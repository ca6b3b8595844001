package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"github.com/graphstream/gsketch/internal/sketch"
	"github.com/graphstream/gsketch/internal/vstats"
)

// GSketch persistence. Layout (little-endian):
//
//	magic      uint32 'GSKP'
//	version    uint32
//	depth      uint64
//	order      uint64
//	total      uint64 (stream volume)
//	totalWidth uint64
//	outlierW   uint64 (0 = no outlier sketch)
//	numLeaves  uint64
//	leaves     numLeaves × {width u64, vertices u64, sumF f64, sumD f64, trimmed u8}
//	           (trimmed is a retired flag: written 0, ignored on read)
//	numRoutes  uint64
//	routes     numRoutes × {vertex u64, partition u32}
//	partitions numLeaves × CountMin (self-delimiting, own checksum)
//	outlier    CountMin if outlierW > 0

const (
	gskMagic = 0x47534b50 // "GSKP"
	// gskVersion 2: the row-hash range reduction changed (see
	// sketch.cmVersion), so counter cells written by version 1 are not
	// addressable by the current hash family. A single gSketch still
	// serializes as version 2, so pre-chain snapshots remain loadable
	// byte for byte.
	gskVersion = 2
	// gskChainVersion 3: a generation-chain container. The header
	// {magic, version, numGens} is followed by numGens self-delimiting
	// version-2 gSketch streams, oldest generation first (the last one is
	// the live head). ReadChain accepts both versions; ReadGSketch stays
	// strict so callers that cannot answer from a chain fail loudly.
	gskChainVersion = 3
	// gskChainMetaVersion 4: the chain container with a per-generation
	// lifecycle record — {builtAt i64 unix-seconds, compactedFrom u64,
	// reserved u64} — preceding each version-2 stream. compactedFrom counts
	// the source generations folded into this one by compaction (1 = never
	// compacted), so a restored chain keeps honest generation accounting.
	// Readers accept versions 2, 3 and 4; writers emit 4.
	gskChainMetaVersion = 4
)

// GenerationMeta is the per-generation lifecycle record of a version-4
// chain container.
type GenerationMeta struct {
	// BuiltAt is the generation's build time (unix seconds; 0 = unknown,
	// e.g. a generation restored from a pre-version-4 stream).
	BuiltAt int64
	// CompactedFrom counts the source generations this one absorbed via
	// compaction. 1 means the generation was built by a plain rotation and
	// never compacted; k > 1 means k former generations were folded into it.
	CompactedFrom int
}

// withDefaults normalizes a zero meta to the never-compacted shape.
func (m GenerationMeta) withDefaults() GenerationMeta {
	if m.CompactedFrom < 1 {
		m.CompactedFrom = 1
	}
	return m
}

// WriteTo serializes the gSketch: layout, router and all counter state.
func (g *GSketch) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	wr := func(v any) error {
		err := binary.Write(bw, binary.LittleEndian, v)
		if err == nil {
			n += int64(binary.Size(v))
		}
		return err
	}

	hdr := []any{
		uint32(gskMagic), uint32(gskVersion),
		uint64(g.cfg.Depth), uint64(g.order), uint64(g.total.Load()),
		uint64(g.totalWidth), uint64(g.outlierWidth), uint64(len(g.leaves)),
	}
	for _, v := range hdr {
		if err := wr(v); err != nil {
			return n, err
		}
	}
	for _, l := range g.leaves {
		for _, v := range []any{uint64(l.Width), uint64(l.Vertices),
			math.Float64bits(l.SumF), math.Float64bits(l.SumD), uint8(0)} {
			if err := wr(v); err != nil {
				return n, err
			}
		}
	}
	if err := wr(uint64(g.router.Len())); err != nil {
		return n, err
	}
	var routeErr error
	g.router.Range(func(vertex uint64, part int32) bool {
		if routeErr = wr(vertex); routeErr != nil {
			return false
		}
		routeErr = wr(uint32(part))
		return routeErr == nil
	})
	if routeErr != nil {
		return n, routeErr
	}
	if err := bw.Flush(); err != nil {
		return n, err
	}
	// The shards' CountMin records, partitions then outlier.
	k, err := g.bank.WriteTo(w)
	return n + k, err
}

// Save serializes an estimator to w. Estimators with a serialized form —
// a bare *GSketch, or a *Concurrent wrapper (snapshotted under its striped
// read locks so concurrent readers proceed and writers wait) — implement
// io.WriterTo; anything else is rejected with an error. The output is
// exactly GSketch.WriteTo's format, so ReadGSketch loads it regardless of
// which wrapper saved it.
func Save(est Estimator, w io.Writer) (int64, error) {
	wt, ok := est.(io.WriterTo)
	if !ok {
		return 0, fmt.Errorf("core: estimator %T does not serialize", est)
	}
	return wt.WriteTo(w)
}

// WriteChain serializes a generation chain: a version-3 container header
// followed by every generation's full version-2 stream, oldest first. Each
// gen is an io.WriterTo producing GSketch.WriteTo's format (a bare *GSketch
// or a *Concurrent wrapper, which snapshots under its stripe read locks).
//
// Deprecated: WriteChainMeta writes the version-4 container carrying
// per-generation lifecycle records. WriteChain stays as the version-3
// writer so back-compat tests can produce genuine version-3 streams.
func WriteChain(w io.Writer, gens []io.WriterTo) (int64, error) {
	if len(gens) == 0 {
		return 0, fmt.Errorf("core: empty generation chain")
	}
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:], gskMagic)
	binary.LittleEndian.PutUint32(hdr[4:], gskChainVersion)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(gens)))
	k, err := w.Write(hdr[:])
	n := int64(k)
	if err != nil {
		return n, err
	}
	for i, gen := range gens {
		k, err := gen.WriteTo(w)
		n += k
		if err != nil {
			return n, fmt.Errorf("core: chain generation %d: %w", i, err)
		}
	}
	return n, nil
}

// WriteChainMeta serializes a generation chain as a version-4 container: the
// {magic, version, numGens} header, then for each generation (oldest first)
// its 24-byte lifecycle record followed by its full version-2 stream. metas
// must be nil (all defaults) or match gens element-wise.
func WriteChainMeta(w io.Writer, gens []io.WriterTo, metas []GenerationMeta) (int64, error) {
	if len(gens) == 0 {
		return 0, fmt.Errorf("core: empty generation chain")
	}
	if metas != nil && len(metas) != len(gens) {
		return 0, fmt.Errorf("core: %d generations but %d metadata records", len(gens), len(metas))
	}
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:], gskMagic)
	binary.LittleEndian.PutUint32(hdr[4:], gskChainMetaVersion)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(gens)))
	k, err := w.Write(hdr[:])
	n := int64(k)
	if err != nil {
		return n, err
	}
	for i, gen := range gens {
		var m GenerationMeta
		if metas != nil {
			m = metas[i]
		}
		m = m.withDefaults()
		var rec [24]byte
		binary.LittleEndian.PutUint64(rec[0:], uint64(m.BuiltAt))
		binary.LittleEndian.PutUint64(rec[8:], uint64(m.CompactedFrom))
		// rec[16:24] is reserved (written zero, ignored on read).
		k, err := w.Write(rec[:])
		n += int64(k)
		if err != nil {
			return n, fmt.Errorf("core: chain generation %d meta: %w", i, err)
		}
		wk, err := gen.WriteTo(w)
		n += wk
		if err != nil {
			return n, fmt.Errorf("core: chain generation %d: %w", i, err)
		}
	}
	return n, nil
}

// ReadChain deserializes a generation chain written by WriteChain or
// WriteChainMeta — or a plain pre-chain gSketch stream written by WriteTo,
// which loads as a single-generation chain. The returned slice is
// oldest-first; the last element is the generation that was live when the
// snapshot was taken. Callers that also want the lifecycle records use
// ReadChainMeta.
func ReadChain(r io.Reader) ([]*GSketch, error) {
	gens, _, err := ReadChainMeta(r)
	return gens, err
}

// ReadChainMeta is ReadChain plus the per-generation lifecycle records.
// Version-2 and version-3 streams carry no records, so their metas come
// back defaulted (BuiltAt 0, CompactedFrom 1); version-4 streams return
// what WriteChainMeta stored. len(metas) always equals len(gens).
func ReadChainMeta(r io.Reader) ([]*GSketch, []GenerationMeta, error) {
	br := bufio.NewReader(r)
	hdr, err := br.Peek(8)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", sketch.ErrCorrupt, err)
	}
	if magic := binary.LittleEndian.Uint32(hdr[0:]); magic != gskMagic {
		return nil, nil, fmt.Errorf("%w: bad gSketch magic %#x", sketch.ErrCorrupt, magic)
	}
	version := binary.LittleEndian.Uint32(hdr[4:])
	switch version {
	case gskVersion:
		g, err := readGSketch(br)
		if err != nil {
			return nil, nil, err
		}
		return []*GSketch{g}, []GenerationMeta{{CompactedFrom: 1}}, nil
	case gskChainVersion, gskChainMetaVersion:
		if _, err := br.Discard(8); err != nil { // consume the peeked header
			return nil, nil, fmt.Errorf("%w: %v", sketch.ErrCorrupt, err)
		}
		var numGens uint64
		if err := binary.Read(br, binary.LittleEndian, &numGens); err != nil {
			return nil, nil, fmt.Errorf("%w: chain header: %v", sketch.ErrCorrupt, err)
		}
		const maxGens = 1 << 10
		if numGens == 0 || numGens > maxGens {
			return nil, nil, fmt.Errorf("%w: implausible generation count %d", sketch.ErrCorrupt, numGens)
		}
		gens := make([]*GSketch, numGens)
		metas := make([]GenerationMeta, numGens)
		for i := range gens {
			if version == gskChainMetaVersion {
				var rec [24]byte
				if _, err := io.ReadFull(br, rec[:]); err != nil {
					return nil, nil, fmt.Errorf("%w: chain generation %d meta: %v", sketch.ErrCorrupt, i, err)
				}
				metas[i] = GenerationMeta{
					BuiltAt:       int64(binary.LittleEndian.Uint64(rec[0:])),
					CompactedFrom: int(binary.LittleEndian.Uint64(rec[8:])),
				}
				const maxCompactedFrom = 1 << 20
				if metas[i].CompactedFrom < 1 || metas[i].CompactedFrom > maxCompactedFrom {
					return nil, nil, fmt.Errorf("%w: chain generation %d: implausible compaction count %d", sketch.ErrCorrupt, i, metas[i].CompactedFrom)
				}
			} else {
				metas[i] = GenerationMeta{CompactedFrom: 1}
			}
			// Every generation parse shares br: bufio.NewReader over an
			// existing *bufio.Reader returns it unchanged, so no generation
			// over-reads into the next one's bytes.
			g, err := readGSketch(br)
			if err != nil {
				return nil, nil, fmt.Errorf("chain generation %d: %w", i, err)
			}
			gens[i] = g
		}
		return gens, metas, nil
	default:
		return nil, nil, fmt.Errorf("%w: unsupported gSketch version %d", sketch.ErrCorrupt, version)
	}
}

// ReadGSketch deserializes a gSketch written by WriteTo.
func ReadGSketch(r io.Reader) (*GSketch, error) {
	return readGSketch(bufio.NewReader(r))
}

// readGSketch parses one full version-2 gSketch stream (including magic and
// version) from a shared buffered reader, leaving the reader positioned at
// the first byte after the stream — the property chain parsing relies on.
func readGSketch(br *bufio.Reader) (*GSketch, error) {
	rd := func(v any) error { return binary.Read(br, binary.LittleEndian, v) }

	var magic, version uint32
	if err := rd(&magic); err != nil {
		return nil, fmt.Errorf("%w: %v", sketch.ErrCorrupt, err)
	}
	if magic != gskMagic {
		return nil, fmt.Errorf("%w: bad gSketch magic %#x", sketch.ErrCorrupt, magic)
	}
	if err := rd(&version); err != nil {
		return nil, fmt.Errorf("%w: %v", sketch.ErrCorrupt, err)
	}
	if version != gskVersion {
		return nil, fmt.Errorf("%w: unsupported gSketch version %d", sketch.ErrCorrupt, version)
	}
	var depth, order, total, totalWidth, outlierW, numLeaves uint64
	for _, p := range []*uint64{&depth, &order, &total, &totalWidth, &outlierW, &numLeaves} {
		if err := rd(p); err != nil {
			return nil, fmt.Errorf("%w: header: %v", sketch.ErrCorrupt, err)
		}
	}
	// A forged header must cost what it sends, not what it claims: tables
	// are pre-sized only up to a cap and grow with the entries delivered
	// (Insert grows the router to the capacity a full pre-size would pick),
	// widths must fit the declared budget, and ReadBank allocates cells as
	// it reads them.
	const maxLeaves, leafPresize = 1 << 24, 1 << 12
	if numLeaves == 0 || numLeaves > maxLeaves {
		return nil, fmt.Errorf("%w: implausible leaf count %d", sketch.ErrCorrupt, numLeaves)
	}
	if depth == 0 || totalWidth == 0 || totalWidth > math.MaxInt/sketch.CellSize/depth || outlierW > totalWidth {
		return nil, fmt.Errorf("%w: implausible dimensions: depth %d, width %d, outlier width %d",
			sketch.ErrCorrupt, depth, totalWidth, outlierW)
	}
	g := &GSketch{
		order:        vstats.SortOrder(order),
		totalWidth:   int(totalWidth),
		outlierWidth: int(outlierW),
		leaves:       make([]Leaf, 0, min(numLeaves, leafPresize)),
	}
	g.total.Store(int64(total))
	room := totalWidth - outlierW // columns the leaves may still claim
	var rec [33]byte              // one leaf, or (its first 12 bytes) one route
	le := binary.LittleEndian
	for i := uint64(0); i < numLeaves; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("%w: leaf %d: %v", sketch.ErrCorrupt, i, err)
		}
		width := le.Uint64(rec[0:])
		if width == 0 || width > room {
			return nil, fmt.Errorf("%w: leaf %d width %d does not fit total width %d", sketch.ErrCorrupt, i, width, totalWidth)
		}
		room -= width
		g.leaves = append(g.leaves, Leaf{
			Width:    int(width),
			Vertices: int(le.Uint64(rec[8:])),
			SumF:     math.Float64frombits(le.Uint64(rec[16:])),
			SumD:     math.Float64frombits(le.Uint64(rec[24:])),
		})
	}
	var numRoutes uint64
	if err := rd(&numRoutes); err != nil {
		return nil, fmt.Errorf("%w: routes: %v", sketch.ErrCorrupt, err)
	}
	const maxRoutes = 1 << 32
	if numRoutes > maxRoutes {
		return nil, fmt.Errorf("%w: implausible route count %d", sketch.ErrCorrupt, numRoutes)
	}
	g.router = NewRouter(int(min(numRoutes, routePresize)))
	for i := uint64(0); i < numRoutes; i++ {
		if _, err := io.ReadFull(br, rec[:12]); err != nil {
			return nil, fmt.Errorf("%w: route %d: %v", sketch.ErrCorrupt, i, err)
		}
		part := le.Uint32(rec[8:])
		if uint64(part) >= numLeaves {
			return nil, fmt.Errorf("%w: route %d targets nonexistent partition %d", sketch.ErrCorrupt, i, part)
		}
		g.router.Insert(le.Uint64(rec[0:]), int32(part))
	}
	// The shards' records, checked against the leaf table as they are read.
	widths := make([]int, g.NumShards())
	for i, leaf := range g.leaves {
		widths[i] = leaf.Width
	}
	if outlierW > 0 {
		widths[len(g.leaves)] = int(outlierW)
	}
	bank, err := sketch.ReadBank(br, widths, int(depth))
	if err != nil {
		return nil, err
	}
	g.bank = bank
	g.cfg = loadedConfig(int(depth), int(totalWidth), bank.Conservative())
	g.initRouteStats()
	return g, nil
}

// routePresize caps the router pre-size of a loaded sketch: a forged route
// count must not reserve the table it claims.
const routePresize = 1 << 16

// loadedConfig is the configuration a loaded sketch carries: what the
// stream records, the rest defaulted.
func loadedConfig(depth, totalWidth int, conservative bool) Config {
	cfg := Config{Depth: depth}.withDefaults()
	cfg.TotalWidth = totalWidth
	cfg.Conservative = conservative
	return cfg
}

// Clone returns the sketch ReadGSketch(WriteTo(g)) would, without the byte
// round trip: its own counters, leaf table and router, which answer, merge
// and serialize exactly as the loaded copy's do. The router is refilled in
// g's serialized order, as the loader fills it, because the slot order of a
// linear-probe table — and so the route section WriteTo writes — follows
// the order of insertion. The caller keeps writers off g.
func (g *GSketch) Clone() *GSketch {
	c := &GSketch{
		cfg:          loadedConfig(g.cfg.Depth, g.totalWidth, g.bank.Conservative()),
		bank:         g.bank.Clone(),
		router:       NewRouter(min(g.router.Len(), routePresize)),
		leaves:       slices.Clone(g.leaves),
		order:        g.order,
		outlierWidth: g.outlierWidth,
		totalWidth:   g.totalWidth,
	}
	c.total.Store(g.total.Load())
	g.router.Range(func(vertex uint64, part int32) bool {
		c.router.Insert(vertex, part)
		return true
	})
	c.initRouteStats()
	return c
}
