package sketch

import (
	"fmt"
	"slices"
	"testing"

	"github.com/graphstream/gsketch/internal/hashutil"
)

// benchBank builds a bank shaped like a finely partitioned 16 MiB gSketch:
// shards-1 partitions of a few dozen columns and one outlier shard holding
// a tenth of the width.
func benchBank(b *testing.B, shards int) *Bank {
	const depth, totalWidth = 5, 16 << 20 / (5 * CellSize)
	widths := make([]int, shards)
	seeds := make([]uint64, shards)
	for i := range widths {
		widths[i] = (totalWidth - totalWidth/10) / (shards - 1)
		seeds[i] = hashutil.Mix64(uint64(i))
	}
	widths[shards-1] = totalWidth / 10
	bank, err := NewBank(widths, depth, seeds, false)
	if err != nil {
		b.Fatal(err)
	}
	return bank
}

// BenchmarkBankRouted times the routed kernels alone on runs shaped like a
// random-position batch: half the positions in the outlier shard, the rest
// scattered one or two to a shard, shard-major.
func BenchmarkBankRouted(b *testing.B) {
	const shards = 1 << 14
	bank := benchBank(b, shards)
	rng := hashutil.NewRNG(9)
	const pool = 1 << 20
	ids := make([]int32, pool)
	keys := make([]uint64, pool)
	counts := make([]int64, pool)
	out := make([]int64, pool)
	for i := range ids {
		ids[i] = shards - 1
		if rng.Uint64()%2 == 0 {
			ids[i] = int32(rng.Uint64() % (shards - 1))
		}
		keys[i] = rng.Uint64()
		counts[i] = 1
	}
	for _, run := range []int{1, 32, 2048, 8192} {
		for lo := 0; lo+run <= pool; lo += run {
			slices.Sort(ids[lo : lo+run])
		}
		b.Run(fmt.Sprintf("run=%d/update", run), func(b *testing.B) {
			lo := 0
			for i := 0; i < b.N; i++ {
				if lo+run > pool {
					lo = 0
				}
				bank.UpdateRouted(ids[lo:lo+run], keys[lo:lo+run], counts[lo:lo+run])
				lo += run
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*run), "ns/key")
		})
		b.Run(fmt.Sprintf("run=%d/estimate", run), func(b *testing.B) {
			lo := 0
			for i := 0; i < b.N; i++ {
				if lo+run > pool {
					lo = 0
				}
				bank.EstimateRouted(ids[lo:lo+run], keys[lo:lo+run], out[lo:lo+run])
				lo += run
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*run), "ns/key")
		})
	}
}
