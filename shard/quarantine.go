// Shard quarantine and graceful degradation: a serving front-end must
// survive one shard's image being unrecoverable. A shard enters
// quarantine when its recovery fails (RecoverShard/RecoverCrashed) or
// when a verifier reports its recovered image corrupt (Quarantine).
// Operations routed to a quarantined shard return a typed
// *ShardUnavailableError — matched by errors.Is(err,
// ErrShardUnavailable) — while every other shard keeps serving; scans
// skip the quarantined partition and are documented degraded. A
// successful RecoverShard is the one way back into service.
package shard

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ErrShardUnavailable is the sentinel matched by errors.Is for
// operations routed to a quarantined shard.
var ErrShardUnavailable = errors.New("shard unavailable")

// ShardUnavailableError reports an operation routed to a quarantined
// shard. It matches ErrShardUnavailable via errors.Is and unwraps to
// the quarantine cause.
type ShardUnavailableError struct {
	// Shard is the quarantined partition's index.
	Shard int
	// Cause is why the shard was quarantined (recovery error, verifier
	// verdict).
	Cause error
}

func (e *ShardUnavailableError) Error() string {
	return fmt.Sprintf("shard %d unavailable: %v", e.Shard, e.Cause)
}

// Unwrap exposes the quarantine cause to errors.Is/As chains.
func (e *ShardUnavailableError) Unwrap() error { return e.Cause }

// Is matches the ErrShardUnavailable sentinel.
func (e *ShardUnavailableError) Is(target error) bool { return target == ErrShardUnavailable }

// shardHealth is one shard's availability state. The quarantined flag
// is read on every routed operation, so it is an atomic separate from
// the mutex guarding the slow-path fields.
type shardHealth struct {
	quarantined atomic.Bool

	mu    sync.Mutex
	cause error
}

// newHealth returns the per-shard health array sized for n shards.
func newHealth(n int) []shardHealth { return make([]shardHealth, n) }

// unavailable returns the typed routing error for shard i, or nil when
// the shard is serving. The fast path is one atomic load.
func (f *frontend[K]) unavailable(i int) error {
	h := &f.health[i]
	if !h.quarantined.Load() {
		return nil
	}
	h.mu.Lock()
	cause := h.cause
	h.mu.Unlock()
	return &ShardUnavailableError{Shard: i, Cause: cause}
}

// Quarantine marks shard i unavailable with the given cause — recovery
// failure does this automatically; verifiers call it when readback
// reports the recovered image corrupt. Operations routed to the shard
// return *ShardUnavailableError until a RecoverShard succeeds.
func (f *frontend[K]) Quarantine(i int, cause error) {
	h := &f.health[i]
	h.mu.Lock()
	h.cause = cause
	h.mu.Unlock()
	h.quarantined.Store(true)
}

// Quarantined returns the indices of quarantined shards, in order.
func (f *frontend[K]) Quarantined() []int {
	var out []int
	for i := range f.health {
		if f.health[i].quarantined.Load() {
			out = append(out, i)
		}
	}
	return out
}

// Degraded reports whether any shard is quarantined — the front-end is
// serving a subset of the key space.
func (f *frontend[K]) Degraded() bool {
	for i := range f.health {
		if f.health[i].quarantined.Load() {
			return true
		}
	}
	return false
}
