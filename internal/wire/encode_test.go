package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/stream"
)

// The encoders as they were before records were written in place: each
// record built in a stack array, then appended (results in the version-2
// layout). Kept as the reference the in-place encoders are held to byte
// for byte.

func refHeader(dst []byte, typ byte, n int) []byte {
	var hdr [HeaderSize]byte
	hdr[0] = Version
	hdr[1] = typ
	binary.LittleEndian.PutUint32(hdr[4:], uint32(n))
	return append(dst, hdr[:]...)
}

func refIngest(dst []byte, edges []stream.Edge) []byte {
	dst = refHeader(dst, TypeIngest, len(edges)*EdgeSize)
	var rec [EdgeSize]byte
	for _, e := range edges {
		binary.LittleEndian.PutUint64(rec[0:], e.Src)
		binary.LittleEndian.PutUint64(rec[8:], e.Dst)
		binary.LittleEndian.PutUint64(rec[16:], uint64(e.Weight))
		binary.LittleEndian.PutUint64(rec[24:], uint64(e.Time))
		dst = append(dst, rec[:]...)
	}
	return dst
}

func refQuery(dst []byte, qs []core.EdgeQuery) []byte {
	dst = refHeader(dst, TypeQuery, len(qs)*QuerySize)
	var rec [QuerySize]byte
	for _, q := range qs {
		binary.LittleEndian.PutUint64(rec[0:], q.Src)
		binary.LittleEndian.PutUint64(rec[8:], q.Dst)
		dst = append(dst, rec[:]...)
	}
	return dst
}

func refResults(dst []byte, rs []core.Result) []byte {
	dst = refHeader(dst, TypeResults, 16+len(rs)*ResultSize)
	var hdr [16]byte
	if len(rs) > 0 {
		binary.LittleEndian.PutUint64(hdr[0:], uint64(rs[0].StreamTotal))
		binary.LittleEndian.PutUint64(hdr[8:], math.Float64bits(rs[0].Confidence))
	}
	dst = append(dst, hdr[:]...)
	var rec [ResultSize]byte
	for _, r := range rs {
		binary.LittleEndian.PutUint64(rec[0:], uint64(r.Estimate))
		binary.LittleEndian.PutUint64(rec[8:], math.Float64bits(r.ErrorBound))
		binary.LittleEndian.PutUint32(rec[16:], uint32(int32(r.Partition)))
		var flags byte
		if r.Outlier {
			flags |= 1
		}
		rec[20] = flags
		rec[21], rec[22], rec[23] = 0, 0, 0
		dst = append(dst, rec[:]...)
	}
	return dst
}

func refFixed(dst []byte, typ byte, words ...uint64) []byte {
	dst = refHeader(dst, typ, 8*len(words))
	for _, w := range words {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

// dirtyBuffers are the destinations every encoder is tried on: nil, an
// empty one, one holding a prefix, and reused ones whose spare capacity is
// full of 0xff — what a pooled frame buffer looks like after a reset — so a
// byte the encoder forgets to write shows.
func dirtyBuffers() map[string]func() []byte {
	dirty := func(prefix, spare int) func() []byte {
		return func() []byte {
			b := bytes.Repeat([]byte{0xff}, prefix+spare)
			return b[:prefix]
		}
	}
	return map[string]func() []byte{
		"nil":              func() []byte { return nil },
		"empty":            func() []byte { return []byte{} },
		"prefix":           dirty(5, 0),
		"reused":           dirty(0, 1<<19),
		"reused, prefixed": dirty(13, 1<<19),
	}
}

// TestEncodersMatchReference: every frame the in-place encoders write is
// byte-identical to the append-a-record encoders', for empty, 1-record and
// 8 192-record batches, for every Result flag, into every kind of
// destination.
func TestEncodersMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 8192} {
		edges, qs, rs := randEdges(rng, n), randQueries(rng, n), randResults(rng, n)
		for i := range rs {
			rs[i].Outlier = i%2 == 1 // both flag values at every size above 1
		}
		if n == 1 {
			rs = append(rs, core.Result{Outlier: true, Partition: core.NoPartition, ErrorBound: math.NaN(),
				StreamTotal: rs[0].StreamTotal, Confidence: rs[0].Confidence})
		}
		for name, buf := range dirtyBuffers() {
			for _, c := range []struct {
				frame    string
				got, ref []byte
			}{
				{"ingest", AppendIngest(buf(), edges), refIngest(buf(), edges)},
				{"query", AppendQuery(buf(), qs), refQuery(buf(), qs)},
				{"results", AppendResults(buf(), rs), refResults(buf(), rs)},
			} {
				if !bytes.Equal(c.got, c.ref) {
					t.Errorf("%s frame of %d records into %s buffer differs from the reference", c.frame, n, name)
				}
			}
		}
	}
	for name, buf := range dirtyBuffers() {
		for _, c := range []struct {
			frame    string
			got, ref []byte
		}{
			{"ack", AppendAck(buf(), 7, 1<<31), refFixed(buf(), TypeAck, 7|1<<63)},
			{"pong", AppendPong(buf(), Pong{StreamTotal: -3, QueueDepth: 9, Generations: 4}), refFixed(buf(), TypePong, uint64(1<<64-3), 9|4<<32)},
			{"error", AppendError(buf(), CodeInternal, "drain slow"), append(refHeader(buf(), TypeError, 12), 4, 0, 'd', 'r', 'a', 'i', 'n', ' ', 's', 'l', 'o', 'w')},
			{"flush", AppendFlush(buf()), refHeader(buf(), TypeFlush, 0)},
		} {
			if !bytes.Equal(c.got, c.ref) {
				t.Errorf("%s frame into %s buffer: % x, reference % x", c.frame, name, c.got, c.ref)
			}
		}
	}
}

// BenchmarkEncodeFrames times the record-bearing encoders per record into
// one reused buffer, as a serving connection writes them.
func BenchmarkEncodeFrames(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	edges, rs := randEdges(rng, 8192), randResults(rng, 8192)
	var buf []byte
	b.Run("ingest", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf = AppendIngest(buf[:0], edges)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(edges)), "ns/edge")
	})
	b.Run("results", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf = AppendResults(buf[:0], rs)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rs)), "ns/record")
	})
}
