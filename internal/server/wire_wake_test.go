package server

import (
	"testing"
	"time"

	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/tenant"
	"github.com/graphstream/gsketch/internal/wire"
)

// The wake rule: a query frame wakes an idle P before its answer only when
// the connection has no estimate of its cost or predicts wakeWorth or more.
// These tests read the wire_poller_wakes counter, not the clock: a one-query
// answer on a small sketch takes microseconds, far under wakeWorth, and a
// slowed one sleeps well past it.

// TestWakePredicate: no estimate wakes, a cheap frame does not, a costly
// one does (wakeWorth itself included), and an empty frame never does.
func TestWakePredicate(t *testing.T) {
	for _, c := range []struct {
		name     string
		perQuery time.Duration
		n        int
		want     bool
	}{
		{"no estimate", 0, 1, true},
		{"no estimate, 512 queries", 0, 512, true},
		{"cheap: 512 × 100 ns", 100 * time.Nanosecond, 512, false},
		{"costly: 512 × 200 ns", 200 * time.Nanosecond, 512, true},
		{"costly: one slow query", 2 * wakeWorth, 1, true},
		{"at wakeWorth", wakeWorth / 4, 4, true},
		{"just under wakeWorth", wakeWorth/4 - 1, 4, false},
		{"zero queries, no estimate", 0, 0, false},
		{"zero queries, costly estimate", time.Second, 0, false},
	} {
		if got := wakes(c.perQuery, c.n); got != c.want {
			t.Errorf("%s: wakes(%v, %d) = %v, want %v", c.name, c.perQuery, c.n, got, c.want)
		}
	}
}

// TestWireCheapQueriesSkipWake: on one connection to a small engine, the
// first query frame wakes (no estimate yet) and one-query frames after it
// do not. One more wake is allowed, for a frame a collector pause or a
// preemption stretched past wakeWorth.
func TestWireCheapQueriesSkipWake(t *testing.T) {
	const frames = 200
	edges := testStream(500, 3)
	srv, _, wireAddr := newWireServer(t, Config{Engine: testEngine(t, buildTestGSketch(t, edges))})
	wc := dialWire(t, wireAddr)
	q := []core.EdgeQuery{{Src: edges[0].Src, Dst: edges[0].Dst}}
	for range frames {
		wc.queryWire(t, q)
	}
	if got := srv.stats.wirePollerWakes.Value(); got < 1 || got > 2 {
		t.Fatalf("%d one-query frames woke a poller %d times, want the first frame's wake and at most one more", frames, got)
	}
}

// TestWireTenantSelectResetsWakeEstimate: a select drops the connection's
// estimate, since the backend it binds may answer faster or slower, so the
// next query frame wakes even after cheap frames on the previous binding.
func TestWireTenantSelectResetsWakeEstimate(t *testing.T) {
	srv, baseURL, wireAddr := newTenantServer(t, tenant.Config{})
	createTenant(t, baseURL, "a", "")
	createTenant(t, baseURL, "b", "")
	wc := dialWire(t, wireAddr)
	q := []core.EdgeQuery{{Src: 1, Dst: 2}}
	// ask answers one query frame and returns the wakes it added.
	ask := func() int64 {
		before := srv.stats.wirePollerWakes.Value()
		wc.queryWire(t, q)
		return srv.stats.wirePollerWakes.Value() - before
	}
	// settle asks until a frame answers without a wake: the connection then
	// holds a cheap estimate.
	settle := func() {
		for i := 0; ask() != 0; i++ {
			if i == 50 {
				t.Fatal("50 one-query frames in a row woke a poller")
			}
		}
	}
	for _, name := range []string{"a", "b", "b", "a"} {
		wc.send(t, wire.AppendTenantSelect(nil, name))
		if f := wc.next(t); f.Type != wire.TypeTenantAck {
			t.Fatalf("select %q: reply type 0x%02x, want tenant ack", name, f.Type)
		}
		if got := ask(); got != 1 {
			t.Fatalf("the first query frame after selecting %q added %d wakes, want 1", name, got)
		}
		settle()
	}
}

// slowSketch is a real sketch whose every answer takes twice wakeWorth.
type slowSketch struct{ core.Estimator }

func (s slowSketch) EstimateBatch(qs []core.EdgeQuery) []core.Result {
	time.Sleep(2 * wakeWorth)
	return s.Estimator.EstimateBatch(qs)
}

// TestWireSlowQueriesWake: when every answer outlasts wakeWorth, every
// query frame wakes, one-query frames included.
func TestWireSlowQueriesWake(t *testing.T) {
	const frames = 20
	edges := testStream(500, 3)
	srv, _, wireAddr := newWireServer(t, Config{
		Engine: testEngine(t, slowSketch{core.NewConcurrent(buildTestGSketch(t, edges))}),
	})
	wc := dialWire(t, wireAddr)
	q := []core.EdgeQuery{{Src: edges[0].Src, Dst: edges[0].Dst}}
	for i := 1; i <= frames; i++ {
		wc.queryWire(t, q)
		if got := srv.stats.wirePollerWakes.Value(); got != int64(i) {
			t.Fatalf("after %d slow query frames, %d wakes; want one per frame", i, got)
		}
	}
}
