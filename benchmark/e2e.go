package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/obs"
	"github.com/graphstream/gsketch/internal/query"
	"github.com/graphstream/gsketch/internal/stream"
)

// options is one invocation of one workload.
type options struct {
	bin     string // gsketch-serve binary
	workDir string // scratch inside the checkout: sample files, logs, tier and tenant dirs
	outDir  string // span files
	seed    uint64
	seconds float64
	smoke   bool
	trace   bool

	// Fault injection, for the tests that prove the checker checks.
	corruptShadow bool // falsify the exact shadow before queries are verified
	killAtFrame   int  // > 0: kill the server at this ingest frame of the first timed rep
}

// outcome is what one invocation measured.
type outcome struct {
	Workload  string
	Metrics   map[string]metric // end-to-end with trace off, per-layer with trace on
	Samples   map[string]int    // sample count behind each timing
	Ops       map[string]int64  // op counts the run executed
	Attempted int64
	Failed    int64
	Correct   bool
	Problems  []string // why the run is not correct
	Valid     bool
	Invalid   []string // why the numbers should not be trusted
	SpanFile  string
}

// The tail. The 99th percentile over all of a run's ops does not repeat on
// the reference host: the host's own stalls and the open loop's generation
// swaps and folds, a dozen discrete stalls per run, set it, and over ten runs
// that pooled p99 spread 82-158 % of its median on the open loop and up to
// 72 % over HTTP. A p99 taken between such episodes repeats better: the timed
// ops are put in windows of windowGap by the time they completed, the windows
// are ranked by the mean latency of their ops, and the p99 is taken over the
// ops of the steadiest steadyShare of the windows. Over sets of ten runs that
// steady p99 still spread up to 21 % in units of the reference job, too close
// to the widest bound the driver accepts, so neither is an end-to-end metric:
// both are reported per layer without a bound (loadgen.*_p99_ms,
// loadgen.*_steady_p99_ms) and in a result file's ops, and the end-to-end
// word on the tail is within_limit_pct, which counts every op a stall pushes
// past its limit.
const (
	windowGap   = 100 * time.Millisecond
	steadyShare = 0.25
)

// opSample is one timed op that completed.
type opSample struct {
	at int64   // when it completed, ns since the run's origin
	ms float64 // its latency
}

// clientStats is what one load-generating goroutine observed. Latencies are
// kept only for timed ops, in the order they completed.
type clientStats struct {
	ingest, query []opSample
	lateMs        []float64
	retries       int64

	edgesSent, edgesFailed     int64
	queriesSent, queriesFailed int64
	ingestOps, queryOps        int64 // timed ops sent
	ingestWithin, queryWithin  int64 // timed ops completed correctly within the limit

	checked     int64 // answers compared with the shadow
	undercounts int64 // answers below the shadow's truth
	overshoots  int64 // answers above truth by more than their reported bound
	bounded     int64 // answers whose bound was checked

	dead bool // the connection broke; remaining ops fail unsent
	err  error
}

func (s *clientStats) fail(err error) {
	if s.err == nil {
		s.err = err
	}
	if !errors.Is(err, errNeverAccepted) {
		s.dead = true
	}
}

// lane is one independent walk over the replay buffer: a connection on a
// single engine, a tenant on a multi-tenant server.
type lane struct {
	cursor int
	acks   []int32 // acked sends per frame
}

// run is the state of one invocation.
type run struct {
	opt options
	sz  sized
	in  *inputs
	dir string

	ch      *child
	ref     *hostRef
	cl      []client
	tenants []string
	lanes   []lane
	truth   [][]int64 // per tenant, or one vector on a single engine
	stats   []clientStats
	qcursor []int
	setups  []float64
	setupAt []time.Time
	slower  map[int64]float64 // slowerAt's answers, by window

	origin time.Time // op completion times and window edges count from here

	folds   int64 // generation folds the server reported
	reloads int64 // spilled generations seen resident again
	out     *outcome
}

func runWorkload(w *workload, opt options) (*outcome, error) {
	seconds := opt.seconds
	if opt.trace && w.Paced {
		seconds /= 2 // the traced run is an untraced and a traced half
	}
	sz := w.size(seconds, opt.smoke)
	in, err := generate(sz, opt.seed)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(opt.workDir, w.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &run{opt: opt, sz: sz, in: in, dir: dir, out: &outcome{
		Workload: w.Name,
		Metrics:  map[string]metric{},
		Samples:  map[string]int{},
		Ops:      map[string]int64{},
		Valid:    true,
	}}
	f, err := os.Create(filepath.Join(dir, "sample.bin"))
	if err != nil {
		return nil, err
	}
	if err := stream.WriteBinaryEdges(f, in.sample); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	if r.ref, err = newHostRef(); err != nil {
		return nil, fmt.Errorf("reference job: %w", err)
	}
	defer r.ref.close()
	defer r.teardown()
	if opt.trace {
		err = r.traced()
	} else {
		err = r.measure()
	}
	if err != nil {
		return nil, err
	}
	if runtime.NumCPU() < 2 {
		r.invalid("num_cpu %d < 2: nothing about parallelism is measured", runtime.NumCPU())
	}
	if sz.Conns > runtime.NumCPU() {
		r.invalid("load generator used %d connections on %d CPUs", sz.Conns, runtime.NumCPU())
	}
	r.out.Correct = len(r.out.Problems) == 0
	return r.out, nil
}

func (r *run) problem(format string, args ...any) {
	r.out.Problems = append(r.out.Problems, fmt.Sprintf(format, args...))
}

func (r *run) invalid(format string, args ...any) {
	r.out.Valid = false
	r.out.Invalid = append(r.out.Invalid, fmt.Sprintf(format, args...))
}

// serverArgs is the server's command line for one set-up. Tenant and tier
// directories are fresh per set-up so no state carries over.
func (r *run) serverArgs(n int) []string {
	w := r.sz
	args := []string{
		"-sample", filepath.Join(r.dir, "sample.bin"),
		"-sample-cap", strconv.Itoa(w.SampleCap),
		"-bytes", strconv.Itoa(w.SketchBytes),
		"-snapshot", filepath.Join(r.dir, fmt.Sprintf("snap-%d.gsk", n)),
	}
	if w.Adapt {
		// The policy is mounted for its fold width and as the safety net
		// under the generation cap; its ticker is parked, because the
		// harness asks for every fold itself (see control).
		args = append(args, "-adapt", "-adapt-max-gens", "8",
			"-compact-max-gens", "4", "-compact-fold", "2", "-compact-interval", "1h",
			"-tier-dir", filepath.Join(r.dir, fmt.Sprintf("tier-%d", n)), "-tier-resident", "2")
	}
	if w.Tenants > 0 {
		args = append(args, "-tenants", "-tenant-dir", filepath.Join(r.dir, fmt.Sprintf("tenants-%d", n)))
	}
	return args
}

// setup starts a server and connects the clients; its duration is one
// setup_s sample: child exec → /readyz 200 → tenants created → connected.
func (r *run) setup() error {
	n := len(r.setups)
	t0 := time.Now()
	ch, err := startChild(r.opt.bin, filepath.Join(r.dir, fmt.Sprintf("server-%d.log", n)), r.serverArgs(n)...)
	if err != nil {
		return err
	}
	r.ch = ch
	if err := ch.waitReady(2 * time.Minute); err != nil {
		return err
	}
	r.tenants = nil
	for t := 0; t < r.sz.Tenants; t++ {
		name := fmt.Sprintf("tenant%d", t)
		body := fmt.Sprintf(`{"sketch_bytes":%d}`, r.sz.SketchBytes)
		if err := ch.do("PUT", "/t/"+name, []byte(body), 201, nil); err != nil {
			return err
		}
		r.tenants = append(r.tenants, name)
	}
	for c := 0; c < r.sz.Conns; c++ {
		var cl client
		if r.sz.HTTP {
			cl, err = dialHTTP(r.in, ch.httpAddr, r.tenants)
		} else {
			cl, err = dialWire(r.in, ch.wireAddr)
		}
		if err != nil {
			return fmt.Errorf("connect client %d: %w", c, err)
		}
		r.cl = append(r.cl, cl)
	}
	r.setups = append(r.setups, time.Since(t0).Seconds())
	r.setupAt = append(r.setupAt, t0)
	return nil
}

func (r *run) teardown() {
	for _, cl := range r.cl {
		cl.close()
	}
	r.cl = nil
	if r.ch != nil {
		r.ch.stop()
		r.ch = nil
	}
}

// prepare runs the timed set-ups, keeps the last server, and resets the
// load generator's state.
func (r *run) prepare(setups int) error {
	for i := 0; i < setups; i++ {
		if i > 0 {
			r.teardown()
		}
		r.ref.sample()
		if err := r.setup(); err != nil {
			return err
		}
	}
	nLanes := r.sz.Conns
	if r.sz.Tenants > 0 {
		nLanes = r.sz.Tenants
	}
	r.lanes = make([]lane, nLanes)
	for i := range r.lanes {
		// Lanes start spread over the buffer so together they cover it.
		r.lanes[i] = lane{cursor: i * r.in.frames / nLanes, acks: make([]int32, r.in.frames)}
	}
	r.stats = make([]clientStats, r.sz.Conns)
	r.origin = time.Now()
	r.qcursor = make([]int, r.sz.Conns)
	r.refreshTruth()
	return nil
}

// refreshTruth folds the ack counts into the shadow's truth vectors.
func (r *run) refreshTruth() {
	if r.sz.Tenants > 0 {
		r.truth = make([][]int64, len(r.lanes))
		for t := range r.lanes {
			r.truth[t] = r.in.shadow.truth(r.lanes[t].acks)
		}
	} else {
		sum := make([]int32, r.in.frames)
		for _, l := range r.lanes {
			for f, n := range l.acks {
				sum[f] += n
			}
		}
		r.truth = [][]int64{r.in.shadow.truth(sum)}
	}
	if r.opt.corruptShadow {
		for _, tv := range r.truth {
			for k := range tv {
				if k%7 == 0 {
					tv[k] += 1 << 30
				}
			}
		}
	}
}

// laneOf maps a connection's k-th op of a phase to its lane: the connection
// itself, or one of the tenants it owns, round-robin.
func (r *run) laneOf(c, k int) int {
	if r.sz.Tenants == 0 {
		return c
	}
	own := r.sz.Tenants / r.sz.Conns
	return c*own + k%own
}

// ownerOf is the connection that drives a lane.
func (r *run) ownerOf(lane int) int {
	if r.sz.Tenants == 0 {
		return lane
	}
	return lane / (r.sz.Tenants / r.sz.Conns)
}

func (r *run) truthOf(lane int) []int64 {
	if r.sz.Tenants == 0 {
		return r.truth[0]
	}
	return r.truth[lane]
}

// each runs fn once per connection, concurrently, and waits.
func (r *run) each(fn func(c int)) {
	var wg sync.WaitGroup
	for c := range r.cl {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}

// sendFrame sends the lane's next frame on connection c and accounts for it.
// Latency runs from due when it is set (open loop), else from the send.
func (r *run) sendFrame(c, ln int, timed bool, due time.Time, sl *spanLane, parent uint64) (ok bool) {
	st, l := &r.stats[c], &r.lanes[ln]
	f := l.cursor % r.in.frames
	l.cursor++
	n := int64(r.sz.FrameEdges)
	st.edgesSent += n
	if timed {
		st.ingestOps++
	}
	if st.dead {
		st.edgesFailed += n
		return false
	}
	id := sl.begin("ingest", parent)
	if due.IsZero() {
		due = time.Now()
	}
	retries, err := r.cl[c].ingest(f, ln)
	d := time.Since(due)
	sl.end(id)
	st.retries += int64(retries)
	if err != nil {
		st.edgesFailed += n
		st.fail(err)
		return false
	}
	l.acks[f]++
	if timed {
		st.ingest = append(st.ingest, opSample{at: int64(due.Add(d).Sub(r.origin)), ms: ms(d)})
		if d <= ingestLimit {
			st.ingestWithin++
		}
	}
	return true
}

// verify compares the answers the shadow tracks with its truth. A CountMin
// answer may not fall below truth; one above truth by more than its own
// bound counts against the 1-confidence allowance. It needs a quiescent
// truth: the phases of a closed loop never overlap, and finish runs after
// the last ingest.
func (r *run) verify(st *clientStats, res []core.Result, refs []shadowRef, truth []int64) (under int64) {
	for _, ref := range refs {
		got, want := res[ref.pos], truth[ref.key]
		st.checked++
		if got.Estimate < want {
			under++
		}
		if got.Confidence > 0 {
			st.bounded++
			if float64(got.Estimate-want) > got.ErrorBound {
				st.overshoots++
			}
		}
	}
	st.undercounts += under
	return under
}

// sendBatch sends pool batch b on connection c and accounts for it, timing
// it like sendFrame.
func (r *run) sendBatch(c, b, ln int, timed bool, due time.Time, sl *spanLane, parent uint64) (ok bool) {
	st := &r.stats[c]
	n := int64(r.sz.QueryBatch)
	st.queriesSent += n
	if timed {
		st.queryOps++
	}
	if st.dead {
		st.queriesFailed += n
		return false
	}
	id := sl.begin("query", parent)
	if due.IsZero() {
		due = time.Now()
	}
	res, err := r.cl[c].query(false, b, ln)
	d := time.Since(due)
	sl.end(id)
	if err != nil {
		st.queriesFailed += n
		st.fail(err)
		return false
	}
	var under int64
	if !r.sz.Paced {
		// Open-loop answers race the writer, so only their count is
		// checked (the client already did).
		under = r.verify(st, res, r.in.poolRefs[b], r.truthOf(ln))
	}
	if timed {
		st.query = append(st.query, opSample{at: int64(due.Add(d).Sub(r.origin)), ms: ms(d)})
		if d <= queryLimit && under == 0 {
			st.queryWithin++
		}
	}
	return true
}

// flushAll is the barrier that ends an ingest phase: every lane's accepted
// edges are applied when it returns.
func (r *run) flushAll(sl *spanLane, parent uint64) {
	flush := func(c, ln int) {
		st := &r.stats[c]
		if st.dead {
			return
		}
		id := sl.begin("flush", parent)
		if err := r.cl[c].flush(ln); err != nil {
			st.fail(fmt.Errorf("flush: %w", err))
		}
		sl.end(id)
	}
	if r.sz.Tenants == 0 {
		flush(0, 0)
		return
	}
	for ln := range r.lanes {
		flush(r.ownerOf(ln), ln)
	}
}

// repResult is one closed-loop rep: an ingest phase ended by the flush
// barrier, then a query phase. The phases never overlap.
type repResult struct {
	at                  time.Time // when the rep began
	edges, queries      int64
	ingestSec, querySec float64
	ingestCPU, queryCPU float64
}

func (r *run) serverCPU() float64 {
	if r.ch == nil {
		return 0
	}
	v, err := r.ch.cpuSeconds()
	if err != nil {
		return 0 // the process is gone; failed ops already say so
	}
	return v
}

func (r *run) rep(frames, batches int, timed bool, tr *tracer) repResult {
	res := repResult{
		at:      time.Now(),
		edges:   int64(frames) * int64(r.sz.FrameEdges),
		queries: int64(batches) * int64(r.sz.QueryBatch),
	}
	root := tr.lane(r.sz.Conns).begin("rep", 0)

	phase := tr.lane(r.sz.Conns).begin("ingest_phase", root)
	cpu0, t0 := r.serverCPU(), time.Now()
	r.each(func(c int) {
		sl := tr.lane(c)
		for k := 0; k < frames/r.sz.Conns; k++ {
			if timed && c == 0 && r.opt.killAtFrame > 0 && k == r.opt.killAtFrame && r.ch != nil {
				r.ch.kill()
				r.opt.killAtFrame = 0
			}
			r.sendFrame(c, r.laneOf(c, k), timed, time.Time{}, sl, phase)
		}
	})
	r.flushAll(tr.lane(r.sz.Conns), phase)
	res.ingestSec = time.Since(t0).Seconds()
	res.ingestCPU = r.serverCPU() - cpu0
	tr.lane(r.sz.Conns).end(phase)

	r.refreshTruth()

	phase = tr.lane(r.sz.Conns).begin("query_phase", root)
	cpu0, t0 = r.serverCPU(), time.Now()
	r.each(func(c int) {
		sl := tr.lane(c)
		for k := 0; k < batches/r.sz.Conns; k++ {
			b := (r.qcursor[c]*r.sz.Conns + c) % len(r.in.pool)
			r.qcursor[c]++
			r.sendBatch(c, b, r.laneOf(c, k), timed, time.Time{}, sl, phase)
		}
	})
	res.querySec = time.Since(t0).Seconds()
	res.queryCPU = r.serverCPU() - cpu0
	tr.lane(r.sz.Conns).end(phase)
	tr.lane(r.sz.Conns).end(root)
	return res
}

// pacedResult is one open-loop run.
type pacedResult struct {
	edges, queries      int64 // completed
	ingestSec, querySec float64
	cpu                 float64
}

// waitUntil sleeps to just before due and yields through the rest, so the
// generator neither oversleeps by a timer tick nor burns a CPU the server
// needs.
func waitUntil(due time.Time) {
	for {
		d := time.Until(due)
		switch {
		case d <= 0:
			return
		case d > 200*time.Microsecond:
			time.Sleep(d - 150*time.Microsecond)
		default:
			runtime.Gosched()
		}
	}
}

// pacedClock is the open loop's fixed schedule: traffic time runs beside
// wall time except in the pauses, pacedGapsPerPhase per phase at the odd
// eighths of the phase, where it stands still for pacedGap.
type pacedClock struct {
	start time.Time
	phase time.Duration
	gaps  int // in the whole run
}

func (r *run) pacedClock(start time.Time) pacedClock {
	return pacedClock{
		start: start,
		phase: time.Duration(r.sz.Seconds / float64(r.sz.Phases) * float64(time.Second)),
		gaps:  pacedGapsPerPhase * r.sz.Phases,
	}
}

// gapAt is the traffic time at which pause j begins.
func (c pacedClock) gapAt(j int) time.Duration {
	return time.Duration(2*j+1) * c.phase / (2 * pacedGapsPerPhase)
}

// due is the wall time of a point in traffic time: every pause that begins
// at or before it has passed.
func (c pacedClock) due(traffic time.Duration) time.Time {
	j := 0
	for j < c.gaps && c.gapAt(j) <= traffic {
		j++
	}
	return c.start.Add(traffic + time.Duration(j)*pacedGap)
}

// traffic is the traffic time that has passed at a wall time.
func (c pacedClock) traffic(wall time.Time) time.Duration {
	d := wall.Sub(c.start)
	for j := 0; j < c.gaps; j++ {
		begin := c.gapAt(j) + time.Duration(j)*pacedGap // wall offset of pause j
		switch {
		case d >= begin+pacedGap:
			continue
		case d > begin:
			return c.gapAt(j)
		}
		return d - time.Duration(j)*pacedGap
	}
	return d - time.Duration(c.gaps)*pacedGap
}

// paced drives the open loop: connection 0 ingests frames and connection 1
// queries batches, each on its own fixed schedule. Latency runs from an
// op's due time, so a stall is charged to every op it delays. At each phase
// boundary the ingest connection flushes and asks for a repartition, which
// is what makes generations accumulate, fold and spill on schedule. In the
// schedule's pauses a third goroutine samples the reference job.
func (r *run) paced(tr *tracer) pacedResult {
	sz := r.sz
	framesPer, batchesPer := sz.PacedFrames/sz.Phases, sz.PacedBatches/sz.Phases
	bufPer := r.in.frames / sz.Phases
	frameGap := time.Duration(float64(time.Second) * float64(sz.FrameEdges) / float64(sz.EdgesPerSec))
	batchGap := time.Second / time.Duration(sz.BatchesPerSec)
	var res pacedResult

	root := tr.lane(r.sz.Conns).begin("paced_run", 0)
	cpu0 := r.serverCPU()
	clock := r.pacedClock(time.Now().Add(20 * time.Millisecond))
	start := clock.start
	stop := make(chan struct{})
	// One slot per boundary, so the writer never waits for the control
	// goroutine either.
	repartition := make(chan struct{}, sz.Phases)
	var mon sync.WaitGroup
	mon.Add(2)
	go func() {
		defer mon.Done()
		r.control(stop, repartition, clock, tr.lane(r.sz.Conns), root)
	}()
	go func() { // the reference job, once in every pause
		defer mon.Done()
		for j := 0; j < clock.gaps; j++ {
			// A millisecond in, so that the ops due just before the pause
			// have their replies.
			begin := clock.start.Add(clock.gapAt(j) + time.Duration(j)*pacedGap + time.Millisecond)
			select {
			case <-stop:
				return
			case <-time.After(time.Until(begin)):
				r.ref.sample()
			}
		}
	}()

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // ingest
		defer wg.Done()
		st, sl := &r.stats[0], tr.lane(0)
		prevDone := start
		for i := 0; i < sz.PacedFrames; i++ {
			p := i / framesPer
			if i > 0 && i%framesPer == 0 {
				r.boundary(sl, root, repartition)
				prevDone = time.Now() // the barrier is the server's time, not the generator's
			}
			due := clock.due(time.Duration(i) * frameGap)
			waitUntil(due)
			ready := time.Now()
			r.lanes[0].cursor = p*bufPer + (i%framesPer)%bufPer
			ok := r.sendFrame(0, 0, true, due, sl, root)
			done := time.Now()
			if ok {
				res.edges += int64(sz.FrameEdges)
				res.ingestSec = clock.traffic(done).Seconds()
			}
			st.lateMs = append(st.lateMs, ms(ready.Sub(later(due, prevDone))))
			prevDone = done
		}
	}()
	go func() { // query
		defer wg.Done()
		st, sl := &r.stats[1], tr.lane(1)
		prevDone := start
		for j := 0; j < sz.PacedBatches; j++ {
			pool := r.in.phasePool[j/batchesPer]
			due := clock.due(time.Duration(j) * batchGap)
			waitUntil(due)
			ready := time.Now()
			ok := r.sendBatch(1, pool[j%len(pool)], 0, true, due, sl, root)
			done := time.Now()
			if ok {
				res.queries += int64(sz.QueryBatch)
				res.querySec = clock.traffic(done).Seconds()
			}
			st.lateMs = append(st.lateMs, ms(ready.Sub(later(due, prevDone))))
			prevDone = done
		}
	}()
	wg.Wait()
	res.cpu = r.serverCPU() - cpu0
	close(stop)
	mon.Wait()
	tr.lane(r.sz.Conns).end(root)
	return res
}

func later(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	return a
}

// boundary ends a phase on the ingest connection with the flush barrier,
// then hands the repartition to the control goroutine: an operator's
// request beside the traffic, which an open-loop writer does not wait for.
func (r *run) boundary(sl *spanLane, parent uint64, repartition chan<- struct{}) {
	st := &r.stats[0]
	if st.dead {
		return
	}
	id := sl.begin("flush", parent)
	err := r.cl[0].flush(0)
	sl.end(id)
	if err != nil {
		st.fail(fmt.Errorf("flush: %w", err))
		return
	}
	repartition <- struct{}{}
}

// lifecycle is the slice of /stats the harness reads.
type lifecycle struct {
	StreamTotal int64 `json:"stream_total"`
	Partitions  int   `json:"partitions"`
	Generations int   `json:"generations"`
	Resident    int   `json:"resident_generations"`
	Tiered      int   `json:"tiered_generations"`
	Compactions int64 `json:"compactions"`
}

// compactFromPhase is the first phase in whose middle the control goroutine
// asks for a fold: the chain then holds five generations, one more than
// -compact-max-gens keeps, and each later phase adds one and folds two into
// one again.
const compactFromPhase = 4

// control is the harness's control plane during the open loop. It issues
// the repartition each phase boundary asks for, folds generations in the
// middle of every phase from compactFromPhase on, and polls /stats for folds
// and segment reloads. Driving the lifecycle from here, not from the
// server's compaction ticker, puts every rotation, fold and spill at a fixed
// place in the schedule. A generation that has a tier file and is resident
// again was spilled and then reloaded: spilling drops residency and only a
// query's lazy reload restores it.
func (r *run) control(stop <-chan struct{}, repartition <-chan struct{}, clock pacedClock, sl *spanLane, parent uint64) {
	request := func(name, path string) {
		id := sl.begin(name, parent)
		err := r.ch.do("POST", path, nil, 200, nil)
		sl.end(id)
		if err != nil {
			r.problem("%s: %v", name, err)
		}
	}
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	nextFold := compactFromPhase
	for {
		var ls lifecycle
		if err := r.ch.do("GET", "/stats", nil, 200, &ls); err == nil {
			if ls.Compactions > r.folds {
				r.folds = ls.Compactions
			}
			if n := int64(ls.Tiered - (ls.Generations - ls.Resident)); n > r.reloads {
				r.reloads = n
			}
		}
		if nextFold < r.sz.Phases && !time.Now().Before(clock.due(time.Duration(2*nextFold+1)*clock.phase/2)) {
			request("compact", "/compact")
			nextFold++
		}
		select {
		case <-stop:
			return
		case <-repartition:
			// A fold can hold this goroutine past the next boundary on a
			// very short run; two boundaries then ask for one rotation,
			// since a second would find nothing new to partition from.
			for len(repartition) > 0 {
				<-repartition
			}
			request("repartition", "/repartition")
		case <-tick.C:
		}
	}
}

// accuracy holds the paper's two quality metrics over the accuracy set.
type accuracy struct {
	avgRelErr    float64
	effectivePct float64
	evaluated    int
}

// finish runs after the last timed op: the final barrier, stream-total
// conservation, the accuracy pass against the shadow, and the shape the
// workload must keep. It fills the counts every mode reports.
func (r *run) finish() accuracy {
	var acc accuracy
	r.flushAll(nil, 0)
	r.refreshTruth()

	// Conservation: every acked edge must be in the server's stream total.
	var expected, got int64
	weight := make([]int64, r.in.frames)
	for f := range weight {
		for _, e := range r.in.frame(f) {
			weight[f] += e.Weight
		}
	}
	for _, l := range r.lanes {
		for f, n := range l.acks {
			expected += weight[f] * int64(n)
		}
	}
	var shape lifecycle
	var totalErr error
	if r.sz.Tenants > 0 {
		for _, name := range r.tenants {
			var info struct {
				StreamTotal int64 `json:"stream_total"`
			}
			if err := r.ch.do("GET", "/t/"+name, nil, 200, &info); err != nil {
				totalErr = err
				break
			}
			got += info.StreamTotal
		}
	} else if totalErr = r.ch.do("GET", "/stats", nil, 200, &shape); totalErr == nil {
		got = shape.StreamTotal
	}
	var lost int64
	switch {
	case totalErr != nil:
		r.problem("stream total unreadable: %v", totalErr)
		lost = expected
	case got != expected:
		r.problem("stream total %d, want %d acked", got, expected)
		lost = max(expected-got, got-expected)
	}

	// Accuracy pass: full answers, so bounds are checked too.
	var sum float64
	var effective int
	var accQueries, accFailed int64
	st := &r.stats[0]
	for b, qs := range r.in.accuracy {
		ln := 0 // accuracy batches go round the tenants
		if r.sz.Tenants > 0 {
			ln = b % r.sz.Tenants
		}
		c := r.ownerOf(ln)
		accQueries += int64(len(qs))
		if r.stats[c].dead {
			accFailed += int64(len(qs))
			continue
		}
		res, err := r.cl[c].query(true, b, ln)
		if err != nil {
			accFailed += int64(len(qs))
			r.stats[c].fail(err)
			continue
		}
		truth := r.truthOf(ln)
		refs := make([]shadowRef, len(qs))
		for i, k := range r.in.accuracyKey[b] {
			refs[i] = shadowRef{pos: uint32(i), key: k}
			if want := truth[k]; want > 0 && !r.opt.corruptShadow {
				re := query.RelativeError(float64(res[i].Estimate), float64(want))
				sum += re
				if re <= query.DefaultG0 {
					effective++
				}
				acc.evaluated++
			}
		}
		r.verify(st, res, refs, truth)
	}
	if acc.evaluated > 0 {
		acc.avgRelErr = sum / float64(acc.evaluated)
		acc.effectivePct = 100 * float64(effective) / float64(acc.evaluated)
	}

	// Fold the per-connection counts.
	var edges, queries, failed, under, over, bounded, checked, retries int64
	for i := range r.stats {
		s := &r.stats[i]
		edges += s.edgesSent
		queries += s.queriesSent
		checked += s.checked
		failed += s.edgesFailed + s.queriesFailed
		under += s.undercounts
		over += s.overshoots
		bounded += s.bounded
		retries += s.retries
		if s.err != nil {
			r.problem("connection %d: %v", i, s.err)
		}
	}
	// Re-ingest folds replay a scaled sample into a new layout, so on the
	// adaptive workload an answer may fall below truth or overshoot its
	// reported bound by design; both are counted and reported there but
	// fail the run only where CountMin semantics apply.
	if r.sz.Adapt {
		r.out.Ops["answers_below_truth"], r.out.Ops["answers_over_bound"] = under, over
		under, over = 0, 0
	}
	r.out.Attempted = edges + queries + accQueries
	r.out.Failed = min(failed+accFailed+under+lost, r.out.Attempted)
	if under > 0 {
		r.problem("%d answers below the shadow's truth", under)
	}
	// The bound holds with the reported confidence, so the share of answers
	// overshooting it may not exceed 1-confidence = e^-depth.
	allowed := math.Exp(-core.DefaultDepth)
	if bounded > 0 && float64(over)/float64(bounded) > allowed {
		r.problem("%d of %d answers overshoot their bound (allowed share %.4f)", over, bounded, allowed)
	}
	r.out.Ops["edges_sent"] = edges
	r.out.Ops["queries_sent"] = queries + accQueries
	r.out.Ops["accuracy_queries"] = int64(acc.evaluated)
	r.out.Ops["answers_checked"] = checked
	r.out.Ops["retries"] = retries
	r.out.Ops["stream_total"] = got

	// Shape.
	if !r.opt.smoke && totalErr == nil {
		if r.sz.MinPartitions > 0 && shape.Partitions < r.sz.MinPartitions {
			r.problem("shape: %d partitions, want at least %d", shape.Partitions, r.sz.MinPartitions)
		}
		if r.sz.MinSources > 0 && r.in.sources < r.sz.MinSources {
			r.problem("shape: %d routed sources, want at least %d", r.in.sources, r.sz.MinSources)
		}
		if r.sz.Adapt && r.sz.Seconds >= refSeconds/2 {
			if r.folds < 1 {
				r.problem("shape: no generation fold happened")
			}
			if r.reloads < 1 {
				r.problem("shape: no spilled generation was reloaded")
			}
		}
	}
	r.out.Ops["partitions"] = int64(shape.Partitions)
	r.out.Ops["routed_sources"] = int64(r.in.sources)
	r.out.Ops["folds"] = r.folds
	r.out.Ops["reloads"] = r.reloads
	return acc
}

// pooled gathers one latency series over all connections, sorted.
func (r *run) pooled(pick func(*clientStats) []float64) []float64 {
	var all []float64
	for i := range r.stats {
		all = append(all, pick(&r.stats[i])...)
	}
	sort.Float64s(all)
	return all
}

func ingestOf(s *clientStats) []opSample { return s.ingest }
func queryOf(s *clientStats) []opSample  { return s.query }

// slowerAt is how many times slower than nominal the host ran the reference
// job around the time at (ns since the run's origin), looked up once per
// window.
func (r *run) slowerAt(at int64) float64 {
	w := at / int64(windowGap)
	v, ok := r.slower[w]
	if !ok {
		if r.slower == nil {
			r.slower = map[int64]float64{}
		}
		v = r.ref.near(r.origin.Add(time.Duration(w)*windowGap + windowGap/2))
		r.slower[w] = v
	}
	return v
}

// pacedLatencyExponent is how an open-loop latency follows the reference
// job. A closed loop keeps both CPUs busy, and its times follow the job one
// for one (fitted exponents 0.81-1.09 over 40 runs per workload in which the
// job's time ranged from 0.8 to 1.4 of nominal). The open loop runs at half
// load: its CPUs fall idle between ops, and half of an op's latency is the
// host waking them (a timer for the generator, an interrupt for the server),
// which does not follow the job. Over the same kind of 40 runs the fitted
// exponents were 0.46 for ingest frames and 0.80 for query batches; with 1
// the ingest latency's ten-run medians moved 22 % between two sets and
// spread 23 % inside one, with a half 7 % and 11 %. The open loop's server
// CPU follows the job like a closed loop's (0.85) and is divided by it whole.
const pacedLatencyExponent = 0.5

// latencies is the latency of every timed op of one kind on every
// connection, sorted: what the middle latency, the plain median and the
// pooled p99 are taken from. With inRefUnits each is divided by how much
// slower than nominal the host was when the op completed (on the open loop,
// by that to the power of pacedLatencyExponent).
func (r *run) latencies(pick func(*clientStats) []opSample, inRefUnits bool) []float64 {
	return r.pooled(func(s *clientStats) []float64 {
		all := make([]float64, len(pick(s)))
		for i, op := range pick(s) {
			all[i] = op.ms
			switch {
			case !inRefUnits:
			case r.sz.Paced:
				all[i] /= math.Pow(r.slowerAt(op.at), pacedLatencyExponent)
			default:
				all[i] /= r.slowerAt(op.at)
			}
		}
		return all
	})
}

// steadyP99 is the 99th percentile, by the clock, over the ops of the
// steadiest steadyShare of the windows that hold ops of one kind (at least
// one window).
func (r *run) steadyP99(pick func(*clientStats) []opSample) float64 {
	held := map[int64][]float64{}
	for i := range r.stats {
		for _, op := range pick(&r.stats[i]) {
			w := op.at / int64(windowGap)
			held[w] = append(held[w], op.ms)
		}
	}
	if len(held) == 0 {
		return 0
	}
	windows := make([][]float64, 0, len(held))
	for _, ms := range held {
		windows = append(windows, ms)
	}
	mean := func(v []float64) float64 {
		sum := 0.0
		for _, x := range v {
			sum += x
		}
		return sum / float64(len(v))
	}
	sort.Slice(windows, func(i, j int) bool { return mean(windows[i]) < mean(windows[j]) })
	var kept []float64
	for _, ms := range windows[:max(int(math.Ceil(steadyShare*float64(len(windows)))), 1)] {
		kept = append(kept, ms...)
	}
	sort.Float64s(kept)
	return percentile(kept, 0.99)
}

// withinLimit is the share of timed ops that completed correctly within
// their limit; failed and refused ops were sent and so miss it.
func (r *run) withinLimit() float64 {
	var ops, within int64
	for i := range r.stats {
		s := &r.stats[i]
		ops += s.ingestOps + s.queryOps
		within += s.ingestWithin + s.queryWithin
	}
	if ops == 0 {
		return 0
	}
	return 100 * float64(within) / float64(ops)
}

// sortedCopy returns v sorted, leaving v as it was.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// measure is the untraced run behind the end-to-end metrics. Every timing
// it reports is in units of the reference job (reference.go): a time is
// divided, a rate multiplied, by how many times slower than nominal the host
// ran that job around the same moment. The figures as the clock gave them
// are kept in the run's ops.
func (r *run) measure() error {
	if err := r.prepare(r.sz.SetupReps); err != nil {
		return err
	}
	// What one second of traffic did, in units of the reference job and by
	// the clock: the open-loop run as a whole, or the closed loop's middle
	// cycle. The middle is the mean of the cycles between the quartiles, so
	// a cycle the host pre-empted does not count.
	var edgesPerSec, queriesPerSec, cpu, clockEdgesPerSec, clockQueriesPerSec, clockCPU float64
	stretches := r.sz.Cycles
	var paced pacedResult
	var cycles []repResult
	if r.sz.Paced {
		stretches = 1
		paced = r.paced(nil)
	} else {
		r.rep(r.sz.WarmFrames, r.sz.WarmBatches, false, nil)
		cycles = make([]repResult, r.sz.Cycles)
		for i := range cycles {
			cycles[i] = r.rep(r.sz.SliceFrames, r.sz.SliceBatches, true, nil)
			r.ref.sample()
		}
	}
	slower, err := r.ref.ratio()
	if err != nil {
		return err
	}
	if r.sz.Paced {
		// The open loop's rates are the offered rates unless the server
		// falls behind, whatever the host's speed, so they stay as the
		// clock gave them.
		edgesPerSec, queriesPerSec = rate(paced.edges, paced.ingestSec), rate(paced.queries, paced.querySec)
		clockEdgesPerSec, clockQueriesPerSec = edgesPerSec, queriesPerSec
		cpu, clockCPU = paced.cpu/slower, paced.cpu
	} else {
		middle := func(of func(c repResult) float64) (inRefUnits, byTheClock float64) {
			var adjusted, plain []float64
			for _, c := range cycles {
				half := time.Duration((c.ingestSec + c.querySec) / 2 * float64(time.Second))
				plain = append(plain, of(c))
				adjusted = append(adjusted, of(c)/r.ref.near(c.at.Add(half)))
			}
			return midMean(sortedCopy(adjusted)), midMean(sortedCopy(plain))
		}
		edges, queries := float64(r.sz.SliceFrames*r.sz.FrameEdges), float64(r.sz.SliceBatches*r.sz.QueryBatch)
		ingestSec, clockIngestSec := middle(func(c repResult) float64 { return c.ingestSec })
		querySec, clockQuerySec := middle(func(c repResult) float64 { return c.querySec })
		cycleCPU, clockCycleCPU := middle(func(c repResult) float64 { return c.ingestCPU + c.queryCPU })
		edgesPerSec, clockEdgesPerSec = edges/ingestSec, edges/clockIngestSec
		queriesPerSec, clockQueriesPerSec = queries/querySec, queries/clockQuerySec
		cpu, clockCPU = cycleCPU*float64(r.sz.Cycles), clockCycleCPU*float64(r.sz.Cycles)
	}
	setups := make([]float64, len(r.setups))
	for i, sec := range r.setups {
		setups[i] = sec / r.ref.near(r.setupAt[i])
	}
	acc := r.finish()
	rss, err := r.ch.rssPeakMB()
	if err != nil {
		r.problem("server memory unreadable: %v", err)
	}

	m := newMetricSet(endToEnd)
	ingestMs, queryMs := r.latencies(ingestOf, true), r.latencies(queryOf, true)
	m.set("setup_s", median(setups))
	m.set("ingest_edges_per_s", edgesPerSec)
	m.set("query_per_s", queriesPerSec)
	m.set("ingest_mid_ms", midMean(ingestMs))
	m.set("query_mid_ms", midMean(queryMs))
	m.set("within_limit_pct", r.withinLimit())
	m.set("avg_rel_error", acc.avgRelErr)
	m.set("effective_query_pct", acc.effectivePct)
	m.set("server_cpu_s", cpu)
	m.set("server_rss_mb", rss)
	m.set("ok_op_pct", 100*(1-float64(r.out.Failed)/float64(r.out.Attempted)))
	r.out.Metrics = m.vals
	r.out.Samples = map[string]int{
		"setup_s": len(r.setups), "ingest_edges_per_s": stretches, "query_per_s": stretches, "server_cpu_s": stretches,
		"ingest_mid_ms": len(ingestMs) / 2, "query_mid_ms": len(queryMs) / 2,
		"avg_rel_error": acc.evaluated, "effective_query_pct": acc.evaluated,
	}
	// By the clock: what the host's speed of the hour made of the same run.
	r.out.Ops["host_slower_permille"] = int64(1e3 * slower)
	r.out.Ops["host_samples"] = int64(len(r.ref.samples))
	r.out.Ops["clock_setup_us"] = int64(1e6 * median(r.setups))
	r.out.Ops["clock_ingest_edges_per_s"] = int64(clockEdgesPerSec)
	r.out.Ops["clock_query_per_s"] = int64(clockQueriesPerSec)
	r.out.Ops["clock_server_cpu_ms"] = int64(1e3 * clockCPU)
	ingestMs, queryMs = r.latencies(ingestOf, false), r.latencies(queryOf, false)
	r.out.Ops["ingest_p50_us"] = int64(1e3 * percentile(ingestMs, 0.50))
	r.out.Ops["query_p50_us"] = int64(1e3 * percentile(queryMs, 0.50))
	r.out.Ops["ingest_pooled_p99_us"] = int64(1e3 * percentile(ingestMs, 0.99))
	r.out.Ops["query_pooled_p99_us"] = int64(1e3 * percentile(queryMs, 0.99))
	r.out.Ops["ingest_steady_p99_us"] = int64(1e3 * r.steadyP99(ingestOf))
	r.out.Ops["query_steady_p99_us"] = int64(1e3 * r.steadyP99(queryOf))
	r.checkLateness()
	return nil
}

// lateLimitMs is how late (p99) the open-loop generator may hand an op to
// its connection, measured from the later of the op's due time and the
// previous reply. On the two-CPU reference host a woken thread waits up to
// a scheduler tick behind the server's, which alone puts the p99 at
// 0.95-1.1 ms; the limit sits a tick above that so that a generator that
// really falls behind is told apart from one that merely shares its CPUs.
const lateLimitMs = 2.0

// checkLateness marks a paced run invalid when the generator, not the
// server, ran behind schedule.
func (r *run) checkLateness() float64 {
	late := r.pooled(func(s *clientStats) []float64 { return s.lateMs })
	p99 := percentile(late, 0.99)
	if r.sz.Paced {
		r.out.Ops["late_p50_us"] = int64(1e3 * percentile(late, 0.50))
		r.out.Ops["late_p99_us"] = int64(1e3 * p99)
		r.out.Ops["late_max_us"] = int64(1e3 * percentile(late, 1))
	}
	if r.sz.Paced && p99 > lateLimitMs {
		r.invalid("load generator ran late: p99 %.3f ms > %v ms", p99, lateLimitMs)
	}
	return p99
}

// traced is the run behind the per-layer metrics: one untraced and one
// traced rep on one server with /metrics scraped around them, then the
// in-process layer ladder. Correctness is checked exactly as in measure.
func (r *run) traced() error {
	tr := newTracer(r.sz.Name, r.sz.Conns+1)
	m := newMetricSet(perLayer)
	lg0, _ := procCPUSeconds(os.Getpid())
	var plain, withSpans float64 // ops per second
	var edges, queries int64
	var ingestCPU, queryCPU float64
	var before, after []byte
	if r.sz.Paced {
		if err := r.prepare(1); err != nil {
			return err
		}
		// The untraced half is only the baseline of trace.overhead_pct;
		// the traced half, on a fresh server, is the one that is verified.
		p := r.paced(nil)
		plain = rate(p.edges+p.queries, math.Max(p.ingestSec, p.querySec))
		r.teardown()
		r.folds, r.reloads = 0, 0
		if err := r.prepare(1); err != nil {
			return err
		}
		before, _ = r.ch.scrape()
		p = r.paced(tr)
		withSpans = rate(p.edges+p.queries, math.Max(p.ingestSec, p.querySec))
		edges, queries = p.edges, p.queries
		// Writers and readers run together here, so the server's CPU cannot
		// be split between them: each figure carries all of it.
		ingestCPU, queryCPU = p.cpu, p.cpu
	} else {
		if err := r.prepare(1); err != nil {
			return err
		}
		r.rep(r.sz.WarmFrames, r.sz.WarmBatches, false, nil)
		before, _ = r.ch.scrape()
		for _, t := range []*tracer{nil, tr} {
			res := r.rep(r.sz.TraceFrames, r.sz.TraceBatches, true, t)
			for i := 0; i < 4; i++ {
				r.ref.sample()
			}
			tput := rate(res.edges+res.queries, res.ingestSec+res.querySec)
			if t == nil {
				plain = tput
			} else {
				withSpans = tput
			}
			edges += res.edges
			queries += res.queries
			ingestCPU += res.ingestCPU
			queryCPU += res.queryCPU
		}
	}
	after, _ = r.ch.scrape()
	lg1, _ := procCPUSeconds(os.Getpid())
	r.finish()

	hist, ingestLabel, queryLabel := "gsketch_wire_frame_apply_duration_seconds", `type="ingest"`, `type="query"`
	if r.sz.HTTP {
		hist = "gsketch_http_request_duration_seconds"
		ingestLabel, queryLabel = `route="POST /t/{tenant}/ingest"`, `route="POST /t/{tenant}/query"`
	}
	ih, err := histogramDelta(before, after, hist, ingestLabel)
	if err != nil {
		return err
	}
	qh, err := histogramDelta(before, after, hist, queryLabel)
	if err != nil {
		return err
	}
	m.set("server.apply_ingest_p50_ms", ih.Quantile(0.50)*1e3)
	m.set("server.apply_query_p50_ms", qh.Quantile(0.50)*1e3)
	m.set("server.apply_query_p99_ms", qh.Quantile(0.99)*1e3)
	m.set("server.cpu_ns_per_edge", ingestCPU*1e9/float64(edges))
	m.set("server.cpu_ns_per_query", queryCPU*1e9/float64(queries))
	m.set("compact.folds", float64(r.folds))
	m.set("compact.reloads", float64(r.reloads))
	m.set("loadgen.cpu_s", lg1-lg0)
	m.set("loadgen.late_p99_ms", r.checkLateness())
	m.set("loadgen.retries", float64(r.out.Ops["retries"]))
	m.set("loadgen.ingest_p99_ms", percentile(r.latencies(ingestOf, false), 0.99))
	m.set("loadgen.query_p99_ms", percentile(r.latencies(queryOf, false), 0.99))
	m.set("loadgen.ingest_steady_p99_ms", r.steadyP99(ingestOf))
	m.set("loadgen.query_steady_p99_ms", r.steadyP99(queryOf))
	m.set("failed_op_pct", 100*float64(r.out.Failed)/float64(r.out.Attempted))
	m.set("trace.overhead_pct", 100*(plain-withSpans)/plain)
	// Per-layer timings are as the clock gave them; this is what to divide
	// them by to set two traces taken at different host speeds side by side.
	slower, err := r.ref.ratio()
	if err != nil {
		return err
	}
	m.set("host.slower_ratio", slower)
	r.teardown()

	if err := r.ladder(m); err != nil {
		return fmt.Errorf("layer ladder: %w", err)
	}
	r.out.Metrics = m.vals
	r.out.Ops["spans"] = int64(tr.count())
	if err := os.MkdirAll(r.opt.outDir, 0o755); err != nil {
		return err
	}
	r.out.SpanFile = filepath.Join(r.opt.outDir, "trace-"+r.sz.Name+".json")
	return tr.write(r.out.SpanFile)
}

// histogramDelta is the histogram of what happened between two scrapes of
// the child labelled with label (`key="value"`). It reads the exposition
// lines itself: obs.ParseFamilies rejects the tenant server's route labels,
// whose values hold braces.
func histogramDelta(before, after []byte, name, label string) (*obs.HistogramSnapshot, error) {
	find := func(raw []byte) (*obs.HistogramSnapshot, error) {
		snap := &obs.HistogramSnapshot{}
		for _, line := range strings.Split(string(raw), "\n") {
			rest, ok := strings.CutPrefix(line, name+"_bucket{")
			if !ok || !strings.Contains(rest, label) {
				continue
			}
			_, le, ok := strings.Cut(rest, `le="`)
			if !ok {
				return nil, fmt.Errorf("%s: bucket without le: %q", name, line)
			}
			le, value, ok := strings.Cut(le, `"} `)
			if !ok {
				return nil, fmt.Errorf("%s: malformed bucket: %q", name, line)
			}
			n, err := strconv.ParseFloat(value, 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bucket value: %w", name, err)
			}
			if le == "+Inf" {
				snap.Count = int64(n)
				continue
			}
			bound, err := strconv.ParseFloat(le, 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bucket bound: %w", name, err)
			}
			snap.Bounds = append(snap.Bounds, bound)
			snap.Cum = append(snap.Cum, int64(n))
		}
		if len(snap.Bounds) == 0 {
			return nil, fmt.Errorf("histogram %s{%s} not in the scrape", name, label)
		}
		return snap, nil
	}
	a, err := find(after)
	if err != nil {
		return nil, fmt.Errorf("scrape after: %w", err)
	}
	b, err := find(before)
	if err != nil {
		return nil, fmt.Errorf("scrape before: %w", err)
	}
	if len(a.Cum) != len(b.Cum) {
		return nil, fmt.Errorf("histogram %s changed its buckets between scrapes", name)
	}
	for i := range a.Cum {
		a.Cum[i] -= b.Cum[i]
	}
	a.Count -= b.Count
	return a, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func rate(n int64, sec float64) float64 {
	if sec <= 0 {
		return 0
	}
	return float64(n) / sec
}

// midMean is the mean of the middle half of a sorted series, the
// interquartile mean. Like the median it ignores a quarter of the ops at
// either end; unlike the median it moves smoothly when the ops are of two
// kinds and their mix shifts. On the reference host they are: for stretches
// of 50-300 requests an HTTP chunk takes 2.3 ms or 3.7 ms, by what the
// host's caches hold, and the median flips between the two from run to run
// (it spread 26-35 % of itself over ten runs where the throughput of the
// same runs spread 12-18 %).
func midMean(sorted []float64) float64 {
	mid := sorted[len(sorted)/4 : len(sorted)-len(sorted)/4]
	if len(mid) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range mid {
		sum += v
	}
	return sum / float64(len(mid))
}

// percentile is the nearest-rank percentile of a sorted series.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(p*float64(len(sorted)-1))]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}
