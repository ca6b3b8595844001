package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	gsketch "github.com/graphstream/gsketch"
	"github.com/graphstream/gsketch/internal/adapt"
	"github.com/graphstream/gsketch/internal/cluster"
	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/hashutil"
	"github.com/graphstream/gsketch/internal/ingest"
	"github.com/graphstream/gsketch/internal/query"
	"github.com/graphstream/gsketch/internal/server"
	"github.com/graphstream/gsketch/internal/sketch"
	"github.com/graphstream/gsketch/internal/stream"
	"github.com/graphstream/gsketch/internal/tenant"
	"github.com/graphstream/gsketch/internal/vstats"
	"github.com/graphstream/gsketch/internal/wire"
)

// The ladder pushes this many of the workload's edges and queries through
// each rung: enough that a rung runs for a tenth of a second or more, few
// enough that the whole ladder fits one run.
const (
	ladderEdges       = 1 << 20
	ladderQueries     = 1 << 19
	ladderHTTPEdges   = 1 << 17
	ladderHTTPQueries = 1 << 16
	ladderSubgraph    = 8 // constituent edges per subgraph query
)

// sinkInt keeps the hash rung's result alive so the loop is not removed.
var sinkInt int

func timeIt(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

func perOp(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

// timeSteady times a pure in-process rung: the median of three passes, or
// the first alone once a pass is long enough to be steady by itself.
func timeSteady(fn func()) time.Duration {
	first := timeIt(fn)
	if first > 300*time.Millisecond {
		return first
	}
	ds := []float64{float64(first), float64(timeIt(fn)), float64(timeIt(fn))}
	return time.Duration(median(ds))
}

// mallocs is the process-wide heap allocation count; a rung's delta over
// its op count is its allocs per op, client side included.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// ladder is the in-process half of the per-layer metrics: the same
// workload's frames and query batches go through successively taller stacks
// by timing calls into each package's public functions, nothing inside any
// package is instrumented. A rung's added cost over the rung below is its
// self time; the trace report prints it.
func (r *run) ladder(m *metricSet) error {
	sz, in := r.sz, r.in
	cfg := core.Config{TotalBytes: sz.SketchBytes, Seed: 42}
	depth := core.DefaultDepth
	ctx := context.Background()
	nproc := runtime.GOMAXPROCS(0)

	nf := min(in.frames, ladderEdges/sz.FrameEdges)
	frames := make([][]stream.Edge, nf)
	for f := range frames {
		frames[f] = in.frame(f)
	}
	nEdges := nf * sz.FrameEdges
	batches := in.pool[:min(len(in.pool), ladderQueries/sz.QueryBatch)]
	nQueries := len(batches) * sz.QueryBatch

	// hashutil: the edge key plus one pairwise hash per sketch row.
	width, err := sketch.WidthFromMemory(sz.SketchBytes, depth)
	if err != nil {
		return err
	}
	fam := hashutil.NewPairwiseFamily(depth, width, cfg.Seed)
	d := timeSteady(func() {
		acc := 0
		for _, fr := range frames {
			for _, e := range fr {
				k := hashutil.EdgeKey(e.Src, e.Dst)
				for _, h := range fam {
					acc += h.Hash(k)
				}
			}
		}
		sinkInt = acc
	})
	m.set("hashutil.hash_ns_per_key", perOp(d, nEdges))

	// sketch: one CountMin of the whole budget, keys already hashed.
	cm, err := sketch.NewCountMin(width, depth, cfg.Seed)
	if err != nil {
		return err
	}
	keyFrames := make([][]uint64, nf)
	for f, fr := range frames {
		keyFrames[f] = make([]uint64, len(fr))
		for i, e := range fr {
			keyFrames[f][i] = e.Key()
		}
	}
	ones := make([]int64, sz.FrameEdges)
	for i := range ones {
		ones[i] = 1
	}
	keyBatches := make([][]uint64, len(batches))
	for b, qs := range batches {
		keyBatches[b] = make([]uint64, len(qs))
		for i, q := range qs {
			keyBatches[b][i] = stream.EdgeKey(q.Src, q.Dst)
		}
	}
	d = timeSteady(func() {
		for _, ks := range keyFrames {
			cm.UpdateBatch(ks, ones)
		}
	})
	m.set("sketch.update_ns_per_edge", perOp(d, nEdges))
	out := make([]int64, sz.QueryBatch)
	d = timeSteady(func() {
		for _, ks := range keyBatches {
			cm.EstimateBatch(ks, out)
		}
	})
	m.set("sketch.estimate_ns_per_query", perOp(d, nQueries))
	m.set("sketch.memory_bytes", float64(cm.MemoryBytes()))

	// vstats, then the partitioning and router built from it.
	var stats *vstats.Stats
	dv := timeIt(func() { stats = vstats.FromSample(in.sample) })
	m.set("vstats.from_sample_s", dv.Seconds())
	var g *core.GSketch
	db := timeIt(func() { g, err = core.BuildGSketchFromStats(cfg, stats, vstats.ByAvgFreq) })
	if err != nil {
		return err
	}
	m.set("core.build_s", (dv + db).Seconds())
	m.set("core.partitions", float64(g.NumPartitions()))
	m.set("core.router_bytes", float64(g.RouterBytes()))
	hits := 0
	d = timeSteady(func() {
		hits = 0
		for _, fr := range frames {
			for _, e := range fr {
				if _, ok := g.PartitionOf(e.Src); ok {
					hits++
				}
			}
		}
	})
	m.set("core.router_ns_per_lookup", perOp(d, nEdges))
	m.set("core.router_hit_pct", 100*float64(hits)/float64(nEdges))

	// core sketch: route, scatter, update; route, gather, estimate.
	d = timeSteady(func() {
		for _, fr := range frames {
			g.UpdateBatch(fr)
		}
	})
	m.set("core.gsketch_update_ns_per_edge", perOp(d, nEdges))
	d = timeSteady(func() {
		for _, qs := range batches {
			g.EstimateBatch(qs)
		}
	})
	m.set("core.gsketch_estimate_ns_per_query", perOp(d, nQueries))

	// core snapshot of the populated sketch.
	var snap bytes.Buffer
	d = timeIt(func() { _, err = g.WriteTo(&snap) })
	if err != nil {
		return err
	}
	m.set("core.snapshot_write_s", d.Seconds())
	m.set("core.snapshot_bytes", float64(snap.Len()))
	// What a rung costs does not depend on what the counters hold, so the
	// later rungs share two sketches instead of each paying a 16 MiB build:
	// g, and this copy of it.
	var g2 *core.GSketch
	d = timeIt(func() { g2, err = core.ReadGSketch(bytes.NewReader(snap.Bytes())) })
	if err != nil {
		return err
	}
	m.set("core.snapshot_read_s", d.Seconds())

	// core.Concurrent: the stripe locks, alone, contended, and mixed.
	conc := core.NewConcurrent(g2)
	d = timeSteady(func() {
		for _, fr := range frames {
			conc.UpdateBatch(fr)
		}
	})
	m.set("core.concurrent_update_ns_per_edge", perOp(d, nEdges))
	d = timeIt(func() {
		var wg sync.WaitGroup
		for p := 0; p < nproc; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for f := p; f < nf; f += nproc {
					conc.UpdateBatch(frames[f])
				}
			}(p)
		}
		wg.Wait()
	})
	m.set("core.concurrent_update_par_ns_per_edge", perOp(d, nEdges))
	d = timeSteady(func() {
		for _, qs := range batches {
			conc.EstimateBatch(qs)
		}
	})
	m.set("core.concurrent_estimate_ns_per_query", perOp(d, nQueries))
	stopWriter := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for f := 0; ; f = (f + 1) % nf {
			select {
			case <-stopWriter:
				return
			default:
				conc.UpdateBatch(frames[f])
			}
		}
	}()
	d = timeIt(func() {
		for _, qs := range batches {
			conc.EstimateBatch(qs)
		}
	})
	close(stopWriter)
	writer.Wait()
	m.set("core.concurrent_mixed_estimate_ns_per_query", perOp(d, nQueries))

	// ingest: nproc producers into the default pipeline, then the barrier.
	ing, err := ingest.New(conc, ingest.Config{})
	if err != nil {
		return err
	}
	depths, pushErrs := make([]int, nproc), make([]error, nproc)
	d = timeIt(func() {
		var wg sync.WaitGroup
		for p := 0; p < nproc; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for f := p; f < nf; f += nproc {
					if pushErrs[p] = ing.PushBatch(frames[f]); pushErrs[p] != nil {
						return
					}
					if q := ing.QueueDepth(); q > depths[p] {
						depths[p] = q
					}
				}
			}(p)
		}
		wg.Wait()
		err = ing.Flush()
	})
	if err = errors.Join(append(pushErrs, err)...); err != nil {
		return err
	}
	maxDepth := slices.Max(depths)
	m.set("ingest.push_ns_per_edge", perOp(d, nEdges))
	m.set("ingest.queue_depth_max", float64(maxDepth))
	m.set("ingest.sheds", float64(ing.Sheds()))
	m.set("ingest.batches", float64(ing.Batches()))
	if err := ing.Close(); err != nil {
		return err
	}

	// root Engine: open from the sample, then ingest and query through it.
	var eng *gsketch.Engine
	d = timeIt(func() {
		eng, err = gsketch.Open(cfg, gsketch.WithSample(in.sample), gsketch.WithIngest(gsketch.IngestConfig{}))
	})
	if err != nil {
		return err
	}
	m.set("engine.open_s", d.Seconds())
	d = timeIt(func() {
		for _, fr := range frames {
			if ierr := eng.Ingest(ctx, fr...); ierr != nil {
				err = ierr
				return
			}
		}
		err = eng.Drain(ctx)
	})
	if err != nil {
		eng.Close()
		return err
	}
	m.set("engine.ingest_ns_per_edge", perOp(d, nEdges))
	d = timeIt(func() {
		for _, qs := range batches {
			eng.QueryBatch(qs)
		}
	})
	m.set("engine.query_ns_per_query", perOp(d, nQueries))

	// query: subgraph queries, each a bag of the workload's edge queries.
	var subs []query.Query
	for _, qs := range batches {
		for lo := 0; lo+ladderSubgraph <= len(qs); lo += ladderSubgraph {
			subs = append(subs, query.SubgraphQuery{Edges: qs[lo : lo+ladderSubgraph]})
		}
	}
	d = timeIt(func() { eng.AnswerBatch(subs) })
	m.set("query.answer_ns_per_term", perOp(d, len(subs)*ladderSubgraph))
	if err := eng.Close(); err != nil {
		return err
	}

	// adapt: a chain read at one generation and at four, the repartition
	// that adds one, then compact's fold, spill and reload on that chain.
	chain := adapt.NewChain(g, adapt.ChainConfig{SampleSize: 8192, Seed: cfg.Seed, MaxGenerations: 8})
	quarter := max(nf/4, 1)
	feed := func(part int) {
		for f := part * quarter; f < (part+1)*quarter && f < nf; f++ {
			chain.UpdateBatch(frames[f])
		}
	}
	chainRead := func() time.Duration {
		return timeIt(func() {
			for _, qs := range batches {
				chain.EstimateBatch(qs)
			}
		})
	}
	feed(0)
	m.set("adapt.chain_estimate_g1_ns_per_query", perOp(chainRead(), nQueries))
	var swaps []float64
	for gen := 1; gen < 4; gen++ {
		d = timeIt(func() { _, err = adapt.Repartition(chain, cfg, nil) }) // builds and rotates
		if err != nil {
			return fmt.Errorf("repartition: %w", err)
		}
		swaps = append(swaps, ms(d))
		feed(gen)
	}
	m.set("adapt.repartition_ms", median(swaps))
	m.set("adapt.generations_max", float64(chain.Generations()))
	m.set("adapt.chain_estimate_g4_ns_per_query", perOp(chainRead(), nQueries))

	folded, err := chain.Compact(2, cfg, nil)
	if err != nil {
		return fmt.Errorf("compact: %w", err)
	}
	m.set("compact.fold_ms", ms(folded.Duration))
	chain.SetTiering(filepath.Join(r.dir, "ladder-tier"), 1)
	spilled := 0
	d = timeIt(func() { spilled, err = chain.EnforceResidency() })
	if err != nil || spilled == 0 {
		return fmt.Errorf("spill: %d generations spilled: %v", spilled, err)
	}
	m.set("compact.spill_ms", ms(d)/float64(spilled))
	probe := batches[0]
	cold := timeIt(func() { chain.EstimateBatch(probe) }) // reloads what was spilled
	warm := timeIt(func() { chain.EstimateBatch(probe) })
	m.set("compact.reload_ms", ms(cold-warm)/float64(spilled))

	// wire codec, no transport.
	var frameBuf []byte
	d = timeSteady(func() {
		for _, fr := range frames {
			frameBuf = wire.AppendIngest(frameBuf[:0], fr)
		}
	})
	m.set("wire.encode_ns_per_edge", perOp(d, nEdges))
	m.set("wire.bytes_per_edge", float64(len(frameBuf))/float64(sz.FrameEdges))
	var edgeBuf []stream.Edge
	d = timeSteady(func() {
		for range frames {
			if edgeBuf, err = wire.DecodeEdges(edgeBuf[:0], frameBuf[wire.HeaderSize:]); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	m.set("wire.decode_ns_per_edge", perOp(d, nEdges))
	answers := g.EstimateBatch(batches[0])
	var qBuf []core.EdgeQuery
	var rBuf []core.Result
	d = timeSteady(func() {
		for _, qs := range batches {
			frameBuf = wire.AppendQuery(frameBuf[:0], qs)
			if qBuf, err = wire.DecodeQueries(qBuf[:0], frameBuf[wire.HeaderSize:]); err != nil {
				return
			}
			frameBuf = wire.AppendResults(frameBuf[:0], answers)
			if rBuf, err = wire.DecodeResults(rBuf[:0], frameBuf[wire.HeaderSize:]); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	m.set("wire.query_codec_ns_per_query", perOp(d, nQueries))

	// server: one in-process server, one loopback connection per protocol.
	// HTTP moves an order of magnitude fewer edges per second, so it gets
	// fewer of them.
	hf := max(min(nf, ladderHTTPEdges/sz.FrameEdges), 1)
	hb := max(min(len(batches), ladderHTTPQueries/sz.QueryBatch), 1)
	frameBodies, batchBodies := in.frameBody, in.poolBody
	if frameBodies == nil {
		for f := 0; f < hf; f++ {
			frameBodies = append(frameBodies, renderNDJSON(frames[f]))
		}
		for b := 0; b < hb; b++ {
			batchBodies = append(batchBodies, renderQueryJSON(batches[b]))
		}
	}
	frameBodies, batchBodies = frameBodies[:hf], batchBodies[:hb]

	seng, err := gsketch.Open(cfg, gsketch.WithEstimator(conc),
		gsketch.WithIngest(gsketch.IngestConfig{}), gsketch.WithWorkloadRecorder(4096, cfg.Seed))
	if err != nil {
		return err
	}
	srv, err := server.New(server.Config{Engine: seng})
	if err != nil {
		seng.Close()
		return err
	}
	defer srv.Close()
	wireAddr, err := serveOn(srv.ServeWire)
	if err != nil {
		return err
	}
	httpAddr, err := serveOn(srv.Serve)
	if err != nil {
		return err
	}
	wc, err := wire.Dial(wireAddr)
	if err != nil {
		return err
	}
	defer wc.Close()
	a0 := mallocs()
	d = timeIt(func() {
		for _, fr := range frames {
			if _, err = wc.IngestAll(fr, len(fr)); err != nil {
				return
			}
		}
		err = wc.Flush()
	})
	if err != nil {
		return err
	}
	a1 := mallocs()
	m.set("server.wire_ingest_ns_per_edge", perOp(d, nEdges))
	m.set("server.wire_ingest_allocs_per_edge", float64(a1-a0)/float64(nEdges))
	d = timeIt(func() {
		for _, qs := range batches {
			if rBuf, err = wc.Query(rBuf[:0], qs); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	a2 := mallocs()
	m.set("server.wire_query_ns_per_query", perOp(d, nQueries))
	m.set("server.wire_query_allocs_per_query", float64(a2-a1)/float64(nQueries))

	hc := &http.Client{Timeout: opTimeout}
	defer hc.CloseIdleConnections()
	post := func(url, contentType string, body []byte) error {
		resp, perr := hc.Post(url, contentType, bytes.NewReader(body))
		if perr != nil {
			return perr
		}
		defer resp.Body.Close()
		if _, perr = io.Copy(io.Discard, resp.Body); perr != nil {
			return perr
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("POST %s: status %d", url, resp.StatusCode)
		}
		return nil
	}
	// Sync ingest: each chunk drains before the reply, so a full queue
	// cannot turn a rung into a retry loop.
	httpIngest := func(base string) (time.Duration, error) {
		var perr error
		d := timeIt(func() {
			for _, body := range frameBodies {
				if perr = post(base+"/ingest?sync=1", "application/x-ndjson", body); perr != nil {
					return
				}
			}
		})
		return d, perr
	}
	a0 = mallocs()
	if d, err = httpIngest("http://" + httpAddr); err != nil {
		return err
	}
	a1 = mallocs()
	m.set("server.http_ingest_ns_per_edge", perOp(d, hf*sz.FrameEdges))
	m.set("server.http_ingest_allocs_per_edge", float64(a1-a0)/float64(hf*sz.FrameEdges))
	d = timeIt(func() {
		for _, body := range batchBodies {
			if err = post("http://"+httpAddr+"/query", "application/json", body); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	a2 = mallocs()
	m.set("server.http_query_ns_per_query", perOp(d, hb*sz.QueryBatch))
	m.set("server.http_query_allocs_per_query", float64(a2-a1)/float64(hb*sz.QueryBatch))

	// tenant: the same HTTP ingest through tenant resolution, then an
	// evict/reopen cycle forced by a one-engine residency cap. Tenants are
	// built from the default-size sample, as the tenant workload's are.
	tsample := in.sample[:min(len(in.sample), 1<<16)]
	var churn sync.Mutex // the hooks run on request goroutines
	var evicts, reopens []float64
	observe := func(into *[]float64) func(time.Duration) {
		return func(d time.Duration) {
			churn.Lock()
			*into = append(*into, ms(d))
			churn.Unlock()
		}
	}
	reg, err := tenant.New(tenant.Config{
		Dir: filepath.Join(r.dir, "ladder-tenants"), MaxResident: 1, Sketch: cfg, Sample: tsample,
		OnEvict: observe(&evicts), OnReopen: observe(&reopens),
	})
	if err != nil {
		return err
	}
	tsrv, err := server.New(server.Config{Tenants: reg})
	if err != nil {
		reg.Close()
		return err
	}
	defer tsrv.Close()
	tenantAddr, err := serveOn(tsrv.Serve)
	if err != nil {
		return err
	}
	for _, name := range []string{"a", "b"} {
		if _, err := reg.Create(name, tenant.Overrides{}); err != nil {
			return err
		}
	}
	if d, err = httpIngest("http://" + tenantAddr + "/t/a"); err != nil {
		return err
	}
	m.set("tenant.http_ingest_ns_per_edge", perOp(d, hf*sz.FrameEdges))
	churn.Lock()
	evicts, reopens = nil, nil
	churn.Unlock()
	for i := 0; i < 4; i++ {
		// Touching the tenant that is not resident evicts the other one.
		h, terr := reg.Tenant([]string{"b", "a"}[i%2])
		if terr == nil {
			_, terr = h.QueryBatch(batches[0][:1])
		}
		if terr != nil {
			return fmt.Errorf("tenant churn: %w", terr)
		}
	}
	if len(evicts) == 0 || len(reopens) == 0 {
		return errors.New("tenant churn caused no evict or reopen")
	}
	m.set("tenant.evict_ms", median(evicts))
	m.set("tenant.reopen_ms", median(reopens))

	// cluster: a coordinator over one and over two in-process shard
	// servers; the same query batches, so the two figures compare. The
	// server rung's engine is the first shard, a second copy of the sketch
	// the other; the router is the layout they share.
	g3, err := core.ReadGSketch(bytes.NewReader(snap.Bytes()))
	if err != nil {
		return err
	}
	shard2, err := gsketch.Open(cfg, gsketch.WithEstimator(g3), gsketch.WithIngest(gsketch.IngestConfig{}))
	if err != nil {
		return err
	}
	srv2, err := server.New(server.Config{Engine: shard2})
	if err != nil {
		shard2.Close()
		return err
	}
	defer srv2.Close()
	wireAddr2, err := serveOn(srv2.ServeWire)
	if err != nil {
		return err
	}
	for _, addrs := range [][]string{{wireAddr}, {wireAddr, wireAddr2}} {
		ingestNs, queryNs, err := r.clusterRung(g2, addrs, frames, batches)
		if err != nil {
			return fmt.Errorf("cluster of %d: %w", len(addrs), err)
		}
		if len(addrs) == 2 {
			m.set("cluster.ingest_ns_per_edge", ingestNs)
		}
		m.set(fmt.Sprintf("cluster.query_s%d_ns_per_query", len(addrs)), queryNs)
	}
	return nil
}

// serveOn starts serve on a fresh loopback listener and returns its
// address; the server's Close ends it.
func serveOn(serve func(net.Listener) error) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	go serve(ln) //nolint:errcheck // returns ErrServerClosed when the server closes
	return ln.Addr().String(), nil
}

// clusterRung times ingest and query through a coordinator over the shard
// servers at addrs.
func (r *run) clusterRung(router *core.GSketch, addrs []string,
	frames [][]stream.Edge, batches [][]core.EdgeQuery) (ingestNs, queryNs float64, err error) {
	coord, err := cluster.New(cluster.Config{
		Addrs: addrs, Router: router, BatchEdges: r.sz.FrameEdges, QueueBatches: 16,
		PingInterval: -1, // no prober on the measured path
	})
	if err != nil {
		return 0, 0, err
	}
	defer coord.Close()
	nEdges, nQueries := len(frames)*r.sz.FrameEdges, len(batches)*r.sz.QueryBatch
	d := timeIt(func() {
		for _, fr := range frames {
			for len(fr) > 0 {
				n, ierr := coord.TryIngest(fr)
				fr = fr[n:]
				if ierr != nil {
					if !errors.Is(ierr, ingest.ErrQueueFull) {
						err = ierr
						return
					}
					time.Sleep(retryBackoff)
				}
			}
		}
		err = coord.Drain(context.Background())
	})
	if err != nil {
		return 0, 0, err
	}
	ingestNs = perOp(d, nEdges)
	d = timeIt(func() {
		for _, qs := range batches {
			if _, err = coord.QueryBatch(qs); err != nil {
				return
			}
		}
	})
	return ingestNs, perOp(d, nQueries), err
}
