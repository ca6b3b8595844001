package main

import (
	"bytes"
	"fmt"
	"strconv"

	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/graphgen"
	"github.com/graphstream/gsketch/internal/hashutil"
	"github.com/graphstream/gsketch/internal/stream"
)

// Carousel shape of the paced workload: 4096 sources whose zipf(1.1) hot
// set rotates every phase, 256 destinations each.
const (
	carouselVertices     = 4096
	carouselDestinations = 256
	carouselAlpha        = 1.1
)

// maxQueryBatches bounds the pre-built query batches a rep cycles through.
const maxQueryBatches = 4096

// shadowRef marks one query of a batch whose key the shadow tracks.
type shadowRef struct {
	pos uint32 // index into the batch
	key int32  // index into shadow.pairs / truth vectors
}

// occurrence is one shadow-selected edge of the replay buffer.
type occurrence struct {
	frame  int32
	key    int32
	weight int64
}

// shadow keeps exact counts for a hash-selected share of the edge keys. The
// load generator counts acked sends per frame; truth is those counts folded
// over the frames' selected edges, so the hot loop pays one increment per
// frame instead of a map update per edge.
type shadow struct {
	index map[uint64]int32 // edge key → key index
	pairs []core.EdgeQuery // key index → endpoints
	occ   []occurrence
}

func shadowSelects(key uint64, shift uint) bool {
	return hashutil.Mix64(key^0x5eedface0ddba11)>>(64-shift) == 0
}

func buildShadow(edges []stream.Edge, frameEdges int, shift uint) *shadow {
	s := &shadow{index: make(map[uint64]int32)}
	for i, e := range edges {
		k := e.Key()
		if !shadowSelects(k, shift) {
			continue
		}
		idx, ok := s.index[k]
		if !ok {
			idx = int32(len(s.pairs))
			s.index[k] = idx
			s.pairs = append(s.pairs, core.EdgeQuery{Src: e.Src, Dst: e.Dst})
		}
		s.occ = append(s.occ, occurrence{frame: int32(i / frameEdges), key: idx, weight: e.Weight})
	}
	return s
}

// truth folds per-frame ack counts into exact per-key frequencies.
func (s *shadow) truth(acks []int32) []int64 {
	out := make([]int64, len(s.pairs))
	for _, o := range s.occ {
		out[o.key] += o.weight * int64(acks[o.frame])
	}
	return out
}

// refs lists the queries of a batch that the shadow tracks.
func (s *shadow) refs(qs []core.EdgeQuery, shift uint) []shadowRef {
	var out []shadowRef
	for i, q := range qs {
		k := stream.EdgeKey(q.Src, q.Dst)
		if !shadowSelects(k, shift) {
			continue
		}
		if idx, ok := s.index[k]; ok {
			out = append(out, shadowRef{pos: uint32(i), key: idx})
		}
	}
	return out
}

// inputs is everything a run sends, generated from the seed alone.
type inputs struct {
	sz     sized
	edges  []stream.Edge // replay buffer, a whole number of frames
	frames int
	sample []stream.Edge
	shadow *shadow

	// Query batches over stream keys. Closed loop: one pool cycled by every
	// connection. Paced: phasePool[p] is the pool of phase p (half current
	// keys, half earlier phases').
	pool      [][]core.EdgeQuery
	poolRefs  [][]shadowRef
	phasePool [][]int // phase → indices into pool

	// Accuracy set: queries on shadow keys, evaluated after the last ingest.
	accuracy    [][]core.EdgeQuery
	accuracyKey [][]int32

	// HTTP only: pre-rendered request bodies, aligned with frames / pool /
	// accuracy.
	frameBody    [][]byte
	poolBody     [][]byte
	accuracyBody [][]byte

	sources int // distinct sources in the sample
}

func (in *inputs) frame(i int) []stream.Edge {
	n := in.sz.FrameEdges
	return in.edges[i*n : (i+1)*n]
}

func generate(sz sized, seed uint64) (*inputs, error) {
	in := &inputs{sz: sz}
	var err error
	if sz.Phases > 0 {
		in.edges, err = graphgen.ZipfCarouselStream(graphgen.CarouselConfig{
			Vertices:      carouselVertices,
			Destinations:  carouselDestinations,
			Phases:        sz.Phases,
			EdgesPerPhase: sz.StreamEdges / sz.Phases,
			Alpha:         carouselAlpha,
			Seed:          seed,
		})
	} else {
		in.edges, err = graphgen.DefaultRMAT(sz.RMATScale, sz.StreamEdges, seed).Generate()
	}
	if err != nil {
		return nil, fmt.Errorf("generate %s stream: %w", sz.Name, err)
	}
	in.frames = len(in.edges) / sz.FrameEdges
	in.sample = in.edges[:sz.SampleEdges]
	srcs := make(map[uint64]struct{})
	for _, e := range in.sample {
		srcs[e.Src] = struct{}{}
	}
	in.sources = len(srcs)
	in.shadow = buildShadow(in.edges, sz.FrameEdges, sz.ShadowShift)
	if len(in.shadow.pairs) == 0 {
		return nil, fmt.Errorf("%s: the shadow selected no key", sz.Name)
	}

	rng := hashutil.NewRNG(seed ^ 0x9e3779b97f4a7c15)
	pick := func(lo, hi int) core.EdgeQuery {
		e := in.edges[lo+int(rng.Uint64()%uint64(hi-lo))]
		return core.EdgeQuery{Src: e.Src, Dst: e.Dst}
	}
	addBatch := func(draw func(i int) core.EdgeQuery) int {
		qs := make([]core.EdgeQuery, sz.QueryBatch)
		for i := range qs {
			qs[i] = draw(i)
		}
		in.pool = append(in.pool, qs)
		in.poolRefs = append(in.poolRefs, in.shadow.refs(qs, sz.ShadowShift))
		return len(in.pool) - 1
	}
	if sz.Paced {
		per := len(in.edges) / sz.Phases
		perPhase := min(sz.PacedBatches, maxQueryBatches) / sz.Phases
		in.phasePool = make([][]int, sz.Phases)
		for p := 0; p < sz.Phases; p++ {
			for b := 0; b < perPhase; b++ {
				in.phasePool[p] = append(in.phasePool[p], addBatch(func(i int) core.EdgeQuery {
					if p == 0 || i%2 == 0 {
						return pick(p*per, (p+1)*per)
					}
					return pick(0, p*per)
				}))
			}
		}
	} else {
		for b := 0; b < min(sz.Cycles*sz.SliceBatches, maxQueryBatches); b++ {
			addBatch(func(int) core.EdgeQuery { return pick(0, len(in.edges)) })
		}
	}

	// Accuracy set: a seeded draw of distinct shadow keys, in whole batches
	// so the last one needs no special case.
	order := make([]int32, len(in.shadow.pairs))
	for i := range order {
		order[i] = int32(i)
	}
	for i := len(order) - 1; i > 0; i-- {
		j := int(rng.Uint64() % uint64(i+1))
		order[i], order[j] = order[j], order[i]
	}
	want := accuracyQueries
	if sz.Smoke {
		want /= 10
	}
	want = min(want, len(order))
	for lo := 0; lo < want; lo += sz.QueryBatch {
		hi := min(lo+sz.QueryBatch, want)
		qs := make([]core.EdgeQuery, hi-lo)
		for i, k := range order[lo:hi] {
			qs[i] = in.shadow.pairs[k]
		}
		in.accuracy = append(in.accuracy, qs)
		in.accuracyKey = append(in.accuracyKey, order[lo:hi])
	}

	if sz.HTTP {
		in.frameBody = make([][]byte, in.frames)
		for f := range in.frameBody {
			in.frameBody[f] = renderNDJSON(in.frame(f))
		}
		in.poolBody = make([][]byte, len(in.pool))
		for b, qs := range in.pool {
			in.poolBody[b] = renderQueryJSON(qs)
		}
		in.accuracyBody = make([][]byte, len(in.accuracy))
		for b, qs := range in.accuracy {
			in.accuracyBody[b] = renderQueryJSON(qs)
		}
	}
	return in, nil
}

func renderNDJSON(edges []stream.Edge) []byte {
	var b bytes.Buffer
	for _, e := range edges {
		b.WriteString(`{"src":`)
		b.WriteString(strconv.FormatUint(e.Src, 10))
		b.WriteString(`,"dst":`)
		b.WriteString(strconv.FormatUint(e.Dst, 10))
		b.WriteString(`,"weight":`)
		b.WriteString(strconv.FormatInt(e.Weight, 10))
		b.WriteString("}\n")
	}
	return b.Bytes()
}

func renderQueryJSON(qs []core.EdgeQuery) []byte {
	var b bytes.Buffer
	b.WriteString(`{"queries":[`)
	for i, q := range qs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`{"src":`)
		b.WriteString(strconv.FormatUint(q.Src, 10))
		b.WriteString(`,"dst":`)
		b.WriteString(strconv.FormatUint(q.Dst, 10))
		b.WriteByte('}')
	}
	b.WriteString(`]}`)
	return b.Bytes()
}
