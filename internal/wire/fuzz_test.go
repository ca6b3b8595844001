package wire

import (
	"bytes"
	"io"
	"math"
	"testing"

	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/stream"
)

// FuzzDecoder drives the frame decoder and every payload parser over
// arbitrary byte streams. The invariants: no panic, no unbounded
// allocation (the decoder runs with a small payload cap so the fuzzer can
// not make it allocate gigabytes), and every failure is a typed error —
// whatever decodes successfully must re-encode to a frame that decodes to
// the same records.
func FuzzDecoder(f *testing.F) {
	f.Add([]byte{})
	f.Add(header(Version, TypeFlush, 0))
	f.Add(AppendIngest(nil, []stream.Edge{{Src: 1, Dst: 2, Weight: 3, Time: 4}}))
	f.Add(AppendIngest(nil, []stream.Edge{{Src: 1, Dst: 2, Weight: -1}}))
	f.Add(AppendIngest(nil, []stream.Edge{{Src: 1, Dst: 2, Weight: 3}, {Src: 1, Dst: 2, Weight: math.MinInt64}}))
	f.Add(AppendQuery(nil, []core.EdgeQuery{{Src: 5, Dst: 6}}))
	results := AppendResults(nil, []core.Result{{Estimate: 7, Partition: core.NoPartition, Outlier: true, ErrorBound: 0.5, Confidence: 0.9, StreamTotal: 11}})
	f.Add(results)
	f.Add(AppendResults(nil, nil)) // header only
	v1 := bytes.Clone(results)
	v1[0] = 1
	f.Add(v1)
	pad := bytes.Clone(results)
	pad[HeaderSize+16+21] = 1
	f.Add(pad)
	flag := bytes.Clone(results)
	flag[HeaderSize+16+20] |= 2
	f.Add(flag)
	f.Add(AppendAck(nil, 3, 1))
	f.Add(AppendError(nil, CodeBadFrame, "bad"))
	f.Add(header(99, TypeIngest, 8))
	f.Add(header(Version, 0xee, 4))
	f.Add(header(Version, TypeIngest, 1<<31))

	f.Fuzz(func(t *testing.T, data []byte) {
		dec := NewDecoderSize(bytes.NewReader(data), 1<<16)
		for {
			fr, err := dec.Next()
			if err != nil {
				if err == io.EOF {
					return
				}
				// Any non-EOF failure ends the stream; just ensure the
				// error path returned rather than panicked.
				return
			}
			switch fr.Type {
			case TypeIngest:
				edges, err := DecodeEdges(nil, fr.Payload)
				if err == nil {
					reenc := AppendIngest(nil, edges)
					if !bytes.Equal(reenc[HeaderSize:], fr.Payload) {
						t.Fatalf("ingest payload did not round-trip")
					}
					for i, e := range edges {
						if e.Weight < 0 {
							t.Fatalf("edge %d decoded with negative weight %d", i, e.Weight)
						}
					}
				}
			case TypeQuery:
				qs, err := DecodeQueries(nil, fr.Payload)
				if err == nil {
					reenc := AppendQuery(nil, qs)
					if !bytes.Equal(reenc[HeaderSize:], fr.Payload) {
						t.Fatalf("query payload did not round-trip")
					}
				}
			case TypeResults:
				// The decoder refuses what AppendResults would not write
				// (unknown flags, non-zero pad, a non-zero header before no
				// records), so a clean decode re-encodes byte for byte,
				// float bits included.
				rs, err := DecodeResults(nil, fr.Payload)
				if err == nil {
					reenc := AppendResults(nil, rs)
					if !bytes.Equal(reenc[HeaderSize:], fr.Payload) {
						t.Fatalf("results payload did not round-trip")
					}
				}
			case TypeAck:
				_, _, _ = DecodeAck(fr.Payload)
			case TypeError:
				_, _, _ = DecodeError(fr.Payload)
			}
		}
	})
}
