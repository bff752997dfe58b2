// Package group is the single-heap group-commit layer: it applies a
// batch of write operations to one converted index under the heap's
// deferred-fence mode (pmem.BeginFenceGroup), so the batch pays one
// covering barrier fence instead of one trailing fence per operation,
// with every operation's clwb coverage and intra-operation ordering
// intact.
//
// The acked-durability contract is unchanged, just paid per group: a
// nil return means every operation of the batch is durable — the
// covering fence retired before Apply returned. A non-nil *Error
// reports how far the batch got. Two crash sites bracket the new
// boundaries the batching introduces, and both are swept by the
// crash-site campaign on the batched path (internal/harness):
//
//   - "group.op.applied" fires after each operation's boundary inside
//     a group — the batch is mid-flight, its trailing commits written
//     back but unfenced.
//   - "group.commit.fenced" fires after the covering barrier, before
//     the acknowledgment returns.
//
// Apply inherits the heap's group-mode single-writer contract: no
// concurrent writes to the same heap during a batch. The sharded
// front-end (ApplyBatch in package shard) serialises batches per shard.
package group

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/crash"
	"repro/internal/pmem"
)

// Crash sites introduced by group commit (see package comment).
const (
	SiteOpApplied    = "group.op.applied"
	SiteCommitFenced = "group.commit.fenced"
)

// Op is one batched write against an index with keys of type K ([]byte
// for the ordered indexes, uint64 for the hash tables).
type Op[K any] struct {
	Key   K
	Value uint64
	// Update selects the in-place update path (core.PointIndex.Update)
	// instead of insert.
	Update bool
}

// Observer receives instrumentation callbacks during Apply, for exact
// per-operation counter attribution: it is called with i after
// operation i's boundary, and once more with the last applied index
// after the covering barrier (charging the barrier to the batch's last
// operation). Nil means no instrumentation.
type Observer func(i int)

// Error reports a batch that did not fully commit.
type Error struct {
	// Applied is the number of leading operations applied before the
	// failure. When Err is not a crash, Apply fenced them before
	// returning, so they are durable and may be acknowledged; after a
	// crash (crash.IsCrash(Err)) nothing past the previous barrier is
	// acknowledged and any subset of the batch may survive the loss.
	Applied int
	// Err is the underlying failure: the failing operation's error, or
	// crash.ErrCrashed.
	Err error
}

func (e *Error) Error() string {
	return fmt.Sprintf("group: batch failed after %d ops: %v", e.Applied, e.Err)
}

// Unwrap exposes the underlying failure to errors.Is/As chains.
func (e *Error) Unwrap() error { return e.Err }

// Apply applies ops to idx as one group commit on heap. A batch of one
// bypasses group mode entirely — it is byte-for-byte the unbatched path,
// with no group crash sites and identical clwb/fence counters. See the
// package comment for the durability contract.
func Apply[K any](heap *pmem.Heap, idx core.PointIndex[K], ops []Op[K], obs Observer) error {
	return apply(heap, len(ops), func(i int) error {
		op := &ops[i]
		if op.Update {
			return idx.Update(op.Key, op.Value)
		}
		return idx.Insert(op.Key, op.Value)
	}, obs)
}

// apply is the key-type-independent group commit.
func apply(heap *pmem.Heap, n int, do func(i int) error, obs Observer) (err error) {
	switch n {
	case 0:
		return nil
	case 1:
		// Single-op bypass: the unbatched path, counter-identical.
		if e := do(0); e != nil {
			return &Error{Applied: 0, Err: e}
		}
		if obs != nil {
			obs(0)
			obs(0) // the op's own fence is its barrier; zero extra delta
		}
		return nil
	}

	heap.BeginFenceGroup()
	applied := 0
	defer func() {
		if r := recover(); r != nil {
			// Our own crash sites panic with the injector's signal; the
			// machine died mid-batch, so nothing gets fenced. Non-crash
			// panics propagate (crash.Recover re-panics them).
			heap.AbortFenceGroup()
			err = &Error{Applied: applied, Err: crash.Recover(r)}
		}
	}()
	for i := 0; i < n; i++ {
		if e := do(i); e != nil {
			if crash.IsCrash(e) {
				// Index operations convert injected crashes to errors; the
				// machine died, so the applied prefix stays unfenced.
				heap.AbortFenceGroup()
			} else {
				// An ordinary failure (key rejected, shard logic): fence the
				// applied prefix so the caller can acknowledge it.
				heap.EndFenceGroup()
			}
			return &Error{Applied: i, Err: e}
		}
		heap.GroupOpBoundary()
		applied = i + 1
		heap.CrashPoint(SiteOpApplied)
		if obs != nil {
			obs(i)
		}
	}
	heap.EndFenceGroup()
	heap.CrashPoint(SiteCommitFenced)
	if obs != nil {
		obs(n - 1)
	}
	return nil
}
