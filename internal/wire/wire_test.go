package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"testing"

	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/stream"
)

func randEdges(rng *rand.Rand, n int) []stream.Edge {
	edges := make([]stream.Edge, n)
	for i := range edges {
		edges[i] = stream.Edge{
			Src:    rng.Uint64(),
			Dst:    rng.Uint64(),
			Weight: rng.Int63(), // the format has no negative weights
			Time:   rng.Int63() - rng.Int63(),
		}
	}
	return edges
}

func randQueries(rng *rand.Rand, n int) []core.EdgeQuery {
	qs := make([]core.EdgeQuery, n)
	for i := range qs {
		qs[i] = core.EdgeQuery{Src: rng.Uint64(), Dst: rng.Uint64()}
	}
	return qs
}

// randResults is a random answer batch as an estimator gives one: every
// result carries the batch's one stream total and one confidence.
func randResults(rng *rand.Rand, n int) []core.Result {
	rs := make([]core.Result, n)
	total, conf := rng.Int63(), rng.Float64()
	for i := range rs {
		rs[i] = core.Result{
			Estimate:    rng.Int63() - rng.Int63(),
			Partition:   rng.Intn(4096) - 1, // includes NoPartition
			Outlier:     rng.Intn(2) == 1,
			ErrorBound:  rng.NormFloat64() * 1e6,
			Confidence:  conf,
			StreamTotal: total,
		}
	}
	return rs
}

// TestRoundTripProperty encodes random batches of every record-bearing
// frame kind and decodes them back, checking exact equality across many
// random shapes (including empty batches).
func TestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(64)
		edges := randEdges(rng, n)
		qs := randQueries(rng, n)
		rs := randResults(rng, n)

		var buf []byte
		buf = AppendIngest(buf, edges)
		buf = AppendQuery(buf, qs)
		buf = AppendResults(buf, rs)
		buf = AppendAck(buf, trial, n)
		buf = AppendFlush(buf)
		buf = AppendFlushAck(buf)
		buf = AppendError(buf, CodeInternal, "boom")

		dec := NewDecoder(bytes.NewReader(buf))

		f, err := dec.Next()
		if err != nil || f.Type != TypeIngest {
			t.Fatalf("trial %d: ingest frame: type %d err %v", trial, f.Type, err)
		}
		gotEdges, err := DecodeEdges(nil, f.Payload)
		if err != nil {
			t.Fatalf("trial %d: decode edges: %v", trial, err)
		}
		if len(gotEdges) != len(edges) {
			t.Fatalf("trial %d: %d edges, want %d", trial, len(gotEdges), len(edges))
		}
		for i := range edges {
			if gotEdges[i] != edges[i] {
				t.Fatalf("trial %d: edge %d = %+v, want %+v", trial, i, gotEdges[i], edges[i])
			}
		}

		f, err = dec.Next()
		if err != nil || f.Type != TypeQuery {
			t.Fatalf("trial %d: query frame: type %d err %v", trial, f.Type, err)
		}
		gotQs, err := DecodeQueries(nil, f.Payload)
		if err != nil {
			t.Fatalf("trial %d: decode queries: %v", trial, err)
		}
		for i := range qs {
			if gotQs[i] != qs[i] {
				t.Fatalf("trial %d: query %d = %+v, want %+v", trial, i, gotQs[i], qs[i])
			}
		}

		f, err = dec.Next()
		if err != nil || f.Type != TypeResults {
			t.Fatalf("trial %d: results frame: type %d err %v", trial, f.Type, err)
		}
		gotRs, err := DecodeResults(nil, f.Payload)
		if err != nil {
			t.Fatalf("trial %d: decode results: %v", trial, err)
		}
		for i := range rs {
			if gotRs[i] != rs[i] {
				t.Fatalf("trial %d: result %d = %+v, want %+v", trial, i, gotRs[i], rs[i])
			}
		}

		f, err = dec.Next()
		if err != nil || f.Type != TypeAck {
			t.Fatalf("trial %d: ack frame: type %d err %v", trial, f.Type, err)
		}
		acc, rej, err := DecodeAck(f.Payload)
		if err != nil || acc != trial || rej != n {
			t.Fatalf("trial %d: ack = (%d, %d, %v), want (%d, %d)", trial, acc, rej, err, trial, n)
		}

		for _, want := range []byte{TypeFlush, TypeFlushAck} {
			f, err = dec.Next()
			if err != nil || f.Type != want || len(f.Payload) != 0 {
				t.Fatalf("trial %d: frame type %d err %v payload %d, want type %d empty", trial, f.Type, err, len(f.Payload), want)
			}
		}

		f, err = dec.Next()
		if err != nil || f.Type != TypeError {
			t.Fatalf("trial %d: error frame: type %d err %v", trial, f.Type, err)
		}
		code, msg, err := DecodeError(f.Payload)
		if err != nil || code != CodeInternal || msg != "boom" {
			t.Fatalf("trial %d: error = (%d, %q, %v)", trial, code, msg, err)
		}

		if _, err = dec.Next(); err != io.EOF {
			t.Fatalf("trial %d: trailing read err = %v, want io.EOF", trial, err)
		}
	}
}

// TestResultSpecialFloats checks that NaN and ±Inf bounds and confidences
// survive the f64 bit round trip (NaN compares unequal, so it needs its own
// check).
func TestResultSpecialFloats(t *testing.T) {
	for _, conf := range []float64{math.Inf(-1), math.NaN()} {
		rs := []core.Result{
			{ErrorBound: math.Inf(1), Confidence: conf},
			{ErrorBound: math.NaN(), Confidence: conf},
		}
		f, err := NewDecoder(bytes.NewReader(AppendResults(nil, rs))).Next()
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeResults(nil, f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if !math.IsInf(got[0].ErrorBound, 1) || !math.IsNaN(got[1].ErrorBound) {
			t.Fatalf("special bounds mangled: %+v", got)
		}
		for i, r := range got {
			if math.Float64bits(r.Confidence) != math.Float64bits(conf) {
				t.Fatalf("result %d: confidence %v, want %v", i, r.Confidence, conf)
			}
		}
	}
}

// TestResultsLayout pins the version-2 results payload: a 16-byte header
// holding the batch's stream total and confidence, then 24 bytes per query
// — 49 176 bytes for a 2 048-query frame, header included, where version 1
// wrote 81 928 — and the empty batch as a zero header alone.
func TestResultsLayout(t *testing.T) {
	if Version != 2 {
		t.Fatalf("Version = %d, want 2", Version)
	}
	rs := randResults(rand.New(rand.NewSource(3)), 2048)
	frame := AppendResults(nil, rs)
	if len(frame) != 49176 {
		t.Fatalf("2 048-result frame is %d bytes, want 49 176", len(frame))
	}
	p := frame[HeaderSize:]
	if got := int64(binary.LittleEndian.Uint64(p[0:])); got != rs[0].StreamTotal {
		t.Fatalf("header stream total %d, want %d", got, rs[0].StreamTotal)
	}
	if got := math.Float64frombits(binary.LittleEndian.Uint64(p[8:])); got != rs[0].Confidence {
		t.Fatalf("header confidence %v, want %v", got, rs[0].Confidence)
	}
	if got := int64(binary.LittleEndian.Uint64(p[16+ResultSize:])); got != rs[1].Estimate {
		t.Fatalf("second record's estimate %d, want %d", got, rs[1].Estimate)
	}
	if empty := AppendResults(nil, nil); !bytes.Equal(empty, append(header(Version, TypeResults, 16), make([]byte, 16)...)) {
		t.Fatalf("empty results frame % x, want a zero 16-byte header", empty)
	}
}

// TestDecodeResultsStrict: the results decoder accepts exactly what
// AppendResults writes. Each corruption of a valid two-record payload is
// ErrBadPayload.
func TestDecodeResultsStrict(t *testing.T) {
	valid := AppendResults(nil, []core.Result{
		{Estimate: 5, StreamTotal: 9, ErrorBound: 0.5, Confidence: 0.9, Partition: 3},
		{Estimate: 7, StreamTotal: 9, ErrorBound: 1.5, Confidence: 0.9, Partition: core.NoPartition, Outlier: true},
	})[HeaderSize:]
	if _, err := DecodeResults(nil, valid); err != nil {
		t.Fatalf("valid payload refused: %v", err)
	}
	corrupt := func(p []byte, off int, b byte) []byte {
		p = bytes.Clone(p)
		p[off] = b
		return p
	}
	zeroHeader := make([]byte, 16)
	cases := map[string][]byte{
		"empty":              {},
		"short header":       valid[:8],
		"header and a half":  valid[:16+ResultSize/2],
		"ragged":             valid[:len(valid)-1],
		"flag bit 1":         corrupt(valid, 16+20, 2),
		"flag bits 0 and 7":  corrupt(valid, 16+ResultSize+20, 0x81),
		"first pad byte":     corrupt(valid, 16+21, 1),
		"last pad byte":      corrupt(valid, 16+ResultSize+23, 0xff),
		"empty batch, total": corrupt(zeroHeader, 0, 1),
		"empty batch, conf":  corrupt(zeroHeader, 15, 0x3f),
		"two v1 records":     make([]byte, 80),
	}
	if rs, err := DecodeResults(nil, zeroHeader); err != nil || len(rs) != 0 {
		t.Fatalf("zero header alone: %d results, %v; want an empty batch", len(rs), err)
	}
	for name, p := range cases {
		if _, err := DecodeResults(nil, p); !errors.Is(err, ErrBadPayload) {
			t.Errorf("%s: err = %v, want ErrBadPayload", name, err)
		}
	}
	// A bad second record leaves dst holding what it held and the first.
	got, err := DecodeResults(make([]core.Result, 3), corrupt(valid, 16+ResultSize+22, 1))
	if !errors.Is(err, ErrBadPayload) || len(got) != 4 || got[3].Estimate != 5 {
		t.Fatalf("bad second record: %d results (%v), want the 3 given and the first", len(got), err)
	}
}

func header(version, typ byte, n uint32) []byte {
	hdr := make([]byte, HeaderSize)
	hdr[0], hdr[1] = version, typ
	binary.LittleEndian.PutUint32(hdr[4:], n)
	return hdr
}

func TestDecoderRejectsBadFrames(t *testing.T) {
	cases := []struct {
		name string
		in   []byte
		want error
	}{
		{"bad version", header(99, TypeIngest, 0), ErrBadVersion},
		{"zero version", header(0, TypeIngest, 0), ErrBadVersion},
		{"unknown type", header(Version, 0x7f, 0), ErrUnknownType},
		{"type zero", header(Version, 0, 0), ErrUnknownType},
		{"reserved bytes", append(header(Version, TypeFlush, 0)[:2], 1, 0, 0, 0, 0, 0), ErrBadHeader},
		{"truncated header", []byte{Version, TypeIngest, 0}, io.ErrUnexpectedEOF},
		{"truncated payload", header(Version, TypeIngest, 64), io.ErrUnexpectedEOF},
		{"oversized", header(Version, TypeIngest, MaxFrameBytes+1), ErrFrameTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewDecoder(bytes.NewReader(tc.in)).Next()
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestDecoderSizeBound checks the payload cap really bounds allocation: a
// frame claiming just under 4 GiB must be rejected from the header alone
// on a decoder with a small bound.
func TestDecoderSizeBound(t *testing.T) {
	in := header(Version, TypeIngest, math.MaxUint32-7)
	_, err := NewDecoderSize(bytes.NewReader(in), 1<<10).Next()
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestPayloadWidthValidation(t *testing.T) {
	if _, err := DecodeEdges(nil, make([]byte, EdgeSize+1)); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("edges: err = %v, want ErrBadPayload", err)
	}
	// A negative weight anywhere refuses the whole frame: it would panic the
	// cash-register sketch it reached.
	for _, w := range []int64{-1, -5, math.MinInt64} {
		frame := AppendIngest(nil, []stream.Edge{{Src: 1, Dst: 2, Weight: 3}, {Src: 1, Dst: 2, Weight: w}})
		if _, err := DecodeEdges(nil, frame[HeaderSize:]); !errors.Is(err, ErrBadPayload) {
			t.Fatalf("edges with weight %d: err = %v, want ErrBadPayload", w, err)
		}
	}
	if _, err := DecodeQueries(nil, make([]byte, QuerySize-1)); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("queries: err = %v, want ErrBadPayload", err)
	}
	if _, err := DecodeResults(nil, make([]byte, 16+ResultSize*2-3)); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("results: err = %v, want ErrBadPayload", err)
	}
	if _, _, err := DecodeAck(make([]byte, AckSize+4)); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("ack: err = %v, want ErrBadPayload", err)
	}
	if _, _, err := DecodeError(make([]byte, 1)); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("error: err = %v, want ErrBadPayload", err)
	}
}

// TestDecoderPayloadReuse pins the documented aliasing contract: the
// payload of frame k is invalidated by reading frame k+1.
func TestDecoderPayloadReuse(t *testing.T) {
	var buf []byte
	buf = AppendAck(buf, 1, 0)
	buf = AppendAck(buf, 2, 0)
	dec := NewDecoder(bytes.NewReader(buf))
	f1, err := dec.Next()
	if err != nil {
		t.Fatal(err)
	}
	p1 := f1.Payload
	if _, err := dec.Next(); err != nil {
		t.Fatal(err)
	}
	acc, _, err := DecodeAck(p1)
	if err != nil {
		t.Fatal(err)
	}
	if acc != 2 {
		t.Fatalf("payload not reused (acc=%d); decoder grew a fresh buffer per frame", acc)
	}
}

// BenchmarkDecodeResults times the client's side of a 2 048-query reply
// per record.
func BenchmarkDecodeResults(b *testing.B) {
	frame := AppendResults(nil, randResults(rand.New(rand.NewSource(1)), 2048))
	var rs []core.Result
	for i := 0; i < b.N; i++ {
		var err error
		if rs, err = DecodeResults(rs[:0], frame[HeaderSize:]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rs)), "ns/record")
}

func BenchmarkDecodeIngestFrame(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	edges := randEdges(rng, 8192)
	frame := AppendIngest(nil, edges)
	var scratch []stream.Edge
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec := NewDecoder(bytes.NewReader(frame))
		f, err := dec.Next()
		if err != nil {
			b.Fatal(err)
		}
		scratch, err = DecodeEdges(scratch[:0], f.Payload)
		if err != nil {
			b.Fatal(err)
		}
	}
}
