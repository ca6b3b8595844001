package server

import (
	"context"

	gsketch "github.com/graphstream/gsketch"
	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/stream"
)

// Backend is the serving surface the Server fronts — the operations every
// endpoint and wire frame shares, implemented by a gsketch.Engine (via
// engineBackend) and by a tenant's handle. Engine-only concerns (workload
// capture, window queries, repartitioning, streaming snapshots) stay off
// the interface: their routes mount only when the backend is an engine.
type Backend interface {
	// TryIngest offers an edge batch without blocking, returning the
	// accepted prefix length (accepted-prefix semantics on every error).
	// It is the HTTP handlers' entry: accepted edges are copied into the
	// backend's bounded queue and applied behind the reply.
	TryIngest(edges []stream.Edge) (int, error)
	// Admit is the wire connections' entry: the same checks and the same
	// accepted-prefix errors as TryIngest, but what an engine accepts is
	// only registered as in flight (every Drain, snapshot, restore and Close
	// waits for it) and left in edges for the connection to fold with
	// adm.Apply once the ack is written — see gsketch.Engine.Admit.
	Admit(edges []stream.Edge) (accepted int, adm gsketch.Admission, err error)
	// AppendQueryBatch answers edge queries with bound-carrying results
	// appended to dst, the caller's buffer.
	AppendQueryBatch(dst []core.Result, qs []core.EdgeQuery) ([]core.Result, error)
	// Drain waits, bounded by ctx, until every accepted edge is applied.
	Drain(ctx context.Context) error
	// SaveSnapshot persists state (path empty = configured default).
	SaveSnapshot(path string) (int64, error)
	// RestoreSnapshot swaps state in from disk (path empty = default).
	RestoreSnapshot(path string) error
	// SnapshotPath is the configured default snapshot location.
	SnapshotPath() string
	// Health reports the non-blocking liveness gauges a Pong carries.
	Health() (streamTotal int64, queueDepth, generations int)
}

// engineBackend adapts gsketch.Engine to Backend.
type engineBackend struct {
	eng *gsketch.Engine
}

func (b engineBackend) TryIngest(edges []stream.Edge) (int, error) { return b.eng.TryIngest(edges) }

func (b engineBackend) Admit(edges []stream.Edge) (int, gsketch.Admission, error) {
	adm, err := b.eng.Admit(edges)
	if err != nil {
		return 0, adm, err
	}
	return len(edges), adm, nil
}

func (b engineBackend) AppendQueryBatch(dst []core.Result, qs []core.EdgeQuery) ([]core.Result, error) {
	return b.eng.AppendQueryBatch(dst, qs), nil
}

func (b engineBackend) Drain(ctx context.Context) error         { return b.eng.Drain(ctx) }
func (b engineBackend) SaveSnapshot(path string) (int64, error) { return b.eng.SaveSnapshot(path) }
func (b engineBackend) RestoreSnapshot(path string) error       { return b.eng.RestoreSnapshot(path) }
func (b engineBackend) SnapshotPath() string                    { return b.eng.SnapshotPath() }

func (b engineBackend) Health() (int64, int, int) {
	return b.eng.Estimator().Count(), b.eng.IngestStats().QueueDepth, b.eng.Generations()
}
