// Shard quarantine and graceful degradation: a serving front-end must
// survive one shard's image being unrecoverable. A shard enters
// quarantine when its recovery fails (RecoverShard/RecoverCrashed) or
// when a verifier reports its recovered image corrupt (Quarantine).
// Operations routed to a quarantined shard return a typed
// *ShardUnavailableError — matched by errors.Is(err,
// ErrShardUnavailable) — while every other shard keeps serving; scans
// skip the quarantined partition and are documented degraded.
// RetryShard re-attempts recovery under capped exponential backoff, so
// a transiently failing shard rejoins and a permanently damaged one
// does not consume the front-end in recovery loops.
package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pmem"
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

// Retry backoff bounds: the first RetryShard failure blocks further
// attempts for RetryBackoffBase, doubling per failure up to
// RetryBackoffMax.
const (
	RetryBackoffBase = 50 * time.Millisecond
	RetryBackoffMax  = 5 * time.Second
)

// shardHealth is one shard's availability state. The quarantined flag
// is read on every routed operation, so it is an atomic separate from
// the mutex guarding the slow-path fields.
type shardHealth struct {
	quarantined atomic.Bool

	mu        sync.Mutex
	cause     error
	retries   int       // consecutive failed RetryShard attempts
	nextRetry time.Time // earliest next recovery attempt
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
// return *ShardUnavailableError until a RetryShard succeeds.
func (f *frontend[K]) Quarantine(i int, cause error) {
	h := &f.health[i]
	h.mu.Lock()
	h.cause = cause
	h.retries = 0
	h.nextRetry = time.Time{} // first retry may run immediately
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

// QuarantineCause returns why shard i is quarantined (nil when it is
// serving).
func (f *frontend[K]) QuarantineCause(i int) error {
	h := &f.health[i]
	if !h.quarantined.Load() {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.cause
}

// RetryShard re-attempts recovery of a quarantined shard under capped
// exponential backoff with full-range jitter: the first attempt may
// run immediately; after each failure the backoff ceiling doubles
// (RetryBackoffBase up to RetryBackoffMax) and the actual wait is
// drawn uniformly from [0, ceiling] — full jitter, so many shards
// quarantined by one event do not retry in lockstep. Attempts inside
// the drawn window return *ShardUnavailableError without touching the
// shard. On success the shard leaves quarantine and serves again; a
// no-op on a healthy shard. It must not be called concurrently with
// index operations on shard i.
func (f *frontend[K]) RetryShard(i int) error {
	h := &f.health[i]
	if !h.quarantined.Load() {
		return nil
	}
	h.mu.Lock()
	now := f.clock()
	if now.Before(h.nextRetry) {
		err := &ShardUnavailableError{
			Shard: i,
			Cause: fmt.Errorf("retry backoff (next attempt in %v): %w", h.nextRetry.Sub(now), h.cause),
		}
		h.mu.Unlock()
		return err
	}
	h.mu.Unlock()

	f.shards[i].recoveries++
	if err := f.shards[i].idx.Recover(); err != nil {
		h.mu.Lock()
		h.cause = err
		backoff := RetryBackoffBase << h.retries
		if backoff > RetryBackoffMax || backoff <= 0 {
			backoff = RetryBackoffMax
		}
		h.retries++
		h.nextRetry = f.clock().Add(f.drawJitter(backoff))
		h.mu.Unlock()
		return &ShardUnavailableError{Shard: i, Cause: err}
	}
	h.mu.Lock()
	h.cause = nil
	h.retries = 0
	h.nextRetry = time.Time{}
	h.mu.Unlock()
	h.quarantined.Store(false)
	return nil
}

// clock returns the front-end's time source (injectable for backoff
// tests).
func (f *frontend[K]) clock() time.Time {
	if f.now != nil {
		return f.now()
	}
	return time.Now()
}

// drawJitter draws the actual retry wait uniformly from [0, max] — the
// full-jitter strategy, which decorrelates retry storms better than
// partial jitter because the window floor is zero. The source is
// seeded by Options.RetrySeed (deterministic, for tests) or lazily
// from the wall clock, and is mutex-guarded: retries of different
// shards may race.
func (f *frontend[K]) drawJitter(max time.Duration) time.Duration {
	j := f.jitter
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.rng == nil {
		j.rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	return time.Duration(j.rng.Int63n(int64(max) + 1))
}

// PowerCycleShard materialises a lossy post-power-loss image on shard
// i's heap (pmem.Heap.PowerCycle): stores that never reached a
// clwb+fence revert, unfenced write-backs follow the policy. The shard
// heaps must have been built with Options.Heap.Shadow. The caller then
// recovers the shard (RecoverShard or RetryShard), exactly as a
// restart of that PM pool would. It must not be called concurrently
// with operations on shard i.
func (f *frontend[K]) PowerCycleShard(i int, policy pmem.Policy, seed int64) pmem.CycleReport {
	return f.shards[i].heap.PowerCycle(policy, seed)
}
