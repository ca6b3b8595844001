package cluster

import (
	"errors"
	"fmt"
	"strings"
)

// Sentinel errors, matched with errors.Is.
var (
	// ErrClosed is returned by every operation after Close.
	ErrClosed = errors.New("cluster: coordinator closed")
	// ErrShardDown marks a shard the coordinator cannot reach; it is
	// always wrapped in a *ShardError naming the shard.
	ErrShardDown = errors.New("cluster: shard unreachable")
)

// ShardError attributes a failure to one shard.
type ShardError struct {
	ID   int    // shard index in the configured topology
	Addr string // shard wire address
	Err  error  // underlying failure (ErrShardDown, a dial error, ...)
}

func (e *ShardError) Error() string {
	return fmt.Sprintf("cluster: shard %d (%s): %v", e.ID, e.Addr, e.Err)
}

func (e *ShardError) Unwrap() error { return e.Err }

// PartialError reports a scatter-gather that lost one or more shards. When
// any shard answered, the partial result is returned alongside it; when
// Failed covers the whole topology there is no result at all.
type PartialError struct {
	Failed []*ShardError // one entry per lost shard, in shard order
	Shards int           // topology size, for "k of n" reporting
}

func (e *PartialError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cluster: partial result: %d of %d shard(s) failed:", len(e.Failed), e.Shards)
	for _, f := range e.Failed {
		fmt.Fprintf(&b, " [%v]", f)
	}
	return b.String()
}

// Unwrap exposes the per-shard failures to errors.Is/As.
func (e *PartialError) Unwrap() []error {
	errs := make([]error, len(e.Failed))
	for i, f := range e.Failed {
		errs[i] = f
	}
	return errs
}
