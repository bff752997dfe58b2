// Sharded group commit: a batch of writes against the front-end is
// partitioned by owning shard (preserving the batch's relative order
// within each partition) and each sub-batch is applied as one group
// commit on its shard's private heap (internal/group), so a batch of B
// same-shard writes pays one covering fence instead of B trailing
// fences. Sub-batches on different shards are independent crash
// domains: one shard's failure never blocks another's sub-batch from
// committing, which is why batch application returns a *BatchError
// naming exactly the failed sub-batches rather than failing the whole
// call.
//
// A batch that spans a quarantined shard is the canonical partial
// failure: the quarantined sub-batch is rejected up front with the
// shard's *ShardUnavailableError as cause, every healthy sub-batch
// commits durably, and the returned *BatchError matches
// errors.Is(err, ErrShardUnavailable).
//
// A heap's fence-group mode is single-writer, so every group commit on
// a shard — a sub-batch here (the async pipeline's included), a
// migration copy or shadow apply (reshard.go) — goes through one
// function, commitShard, under the exclusive side of that shard's
// frontend.batchMu; point writes hold the shared side. Every batch
// routes when it commits, under the gate, so one enqueued before a
// routing-table flip and committed after it lands on the new owner.
//
// The batch layer is part of the one front-end body: it is written over
// group.Op[K] and serves Ordered and Hash alike. Only the Deferred
// combiner is ordered-only — nothing queues uint64-key writes per
// connection.
package shard

import (
	"fmt"
	"strings"

	"repro/internal/group"
)

// SubBatchError reports one shard's failed sub-batch.
type SubBatchError struct {
	// Shard is the partition whose sub-batch failed.
	Shard int
	// OpIndices are the original batch indices routed to this shard, in
	// application order.
	OpIndices []int
	// Applied is how many leading operations of this sub-batch were
	// applied before the failure (group.Error.Applied; 0 when the shard
	// was quarantined and the sub-batch never started).
	Applied int
	// Err is the underlying failure: *ShardUnavailableError for a
	// quarantined shard, or the *group.Error from the group commit.
	Err error
}

func (e *SubBatchError) Error() string {
	return fmt.Sprintf("shard %d sub-batch (%d ops): %v", e.Shard, len(e.OpIndices), e.Err)
}

// Unwrap exposes the underlying failure to errors.Is/As chains.
func (e *SubBatchError) Unwrap() error { return e.Err }

// BatchError reports a batch that failed on one or more shards. Every
// sub-batch not listed in Failed committed durably. It participates in
// errors.Is/As through all failed sub-batches, so
// errors.Is(err, ErrShardUnavailable) answers "did any part of this
// batch hit a quarantined shard".
type BatchError struct {
	Failed []SubBatchError
}

func (e *BatchError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "batch failed on %d shard(s): ", len(e.Failed))
	for i := range e.Failed {
		if i > 0 {
			b.WriteString("; ")
		}
		b.WriteString(e.Failed[i].Error())
	}
	return b.String()
}

// Unwrap exposes every failed sub-batch to errors.Is/As chains.
func (e *BatchError) Unwrap() []error {
	out := make([]error, len(e.Failed))
	for i := range e.Failed {
		out[i] = &e.Failed[i]
	}
	return out
}

// subBatch is one shard's slice of a batch: positions into the original
// ops, in original order.
type subBatch struct {
	shard int
	idxs  []int
}

// partition groups op positions by owning shard, preserving original
// order within each shard, and returns the non-empty sub-batches in
// shard order. route maps an op position to its shard.
func partition(n, shards int, route func(i int) int) []subBatch {
	if shards == 1 {
		idxs := make([]int, n)
		for i := range idxs {
			idxs[i] = i
		}
		return []subBatch{{shard: 0, idxs: idxs}}
	}
	byShard := make([][]int, shards)
	for i := 0; i < n; i++ {
		s := route(i)
		byShard[s] = append(byShard[s], i)
	}
	out := make([]subBatch, 0, shards)
	for s, idxs := range byShard {
		if len(idxs) > 0 {
			out = append(out, subBatch{shard: s, idxs: idxs})
		}
	}
	return out
}

// commitShard applies ops to shard s as one group commit, holding the
// exclusive side of the shard's group-commit lock (see batchMu) for its
// duration, and then passes crash site site (none when empty) on the
// shard's heap, still under the lock. The caller has checked the shard
// is serving; a shard that is down (shardOf.down) rejects the whole
// batch.
func (f *frontend[K]) commitShard(s int, ops []group.Op[K], obs group.Observer, site string) error {
	f.batchMu[s].Lock()
	defer f.batchMu[s].Unlock()
	sh := &f.shards[s]
	if err := sh.down(); err != nil {
		return err
	}
	if err := group.Apply(sh.heap, sh.idx, ops, obs); err != nil {
		return err
	}
	if site != "" {
		sh.heap.CrashPoint(site)
	}
	return nil
}

// applied returns how many leading ops of an n-op group commit were
// applied, given the error it returned.
func applied(n int, err error) int {
	if err == nil {
		return n
	}
	if ge, ok := err.(*group.Error); ok {
		return ge.Applied
	}
	return 0
}

// applyBatch runs the partitioned group commits: one per sub-batch, on
// its shard's heap, with obs translated back to original batch indices.
func (f *frontend[K]) applyBatch(subs []subBatch, ops []group.Op[K], obs group.Observer) error {
	var failed []SubBatchError
	for _, sb := range subs {
		if err := f.unavailable(sb.shard); err != nil {
			failed = append(failed, SubBatchError{
				Shard: sb.shard, OpIndices: sb.idxs, Applied: 0, Err: err,
			})
			continue
		}
		if err := f.commitShard(sb.shard, gather(ops, sb.idxs), translate(obs, sb.idxs), ""); err != nil {
			failed = append(failed, SubBatchError{
				Shard: sb.shard, OpIndices: sb.idxs, Applied: applied(len(sb.idxs), err), Err: err,
			})
		}
	}
	if failed != nil {
		return &BatchError{Failed: failed}
	}
	return nil
}

// gather returns the ops at positions idxs, in that order.
func gather[K any](ops []group.Op[K], idxs []int) []group.Op[K] {
	out := make([]group.Op[K], len(idxs))
	for j, i := range idxs {
		out[j] = ops[i]
	}
	return out
}

// translate wraps a caller observer so sub-batch-relative indices
// arrive as original batch indices.
func translate(obs group.Observer, idxs []int) group.Observer {
	if obs == nil {
		return nil
	}
	return func(i int) { obs(idxs[i]) }
}

// ApplyBatch applies ops as per-shard group commits: each shard's
// sub-batch pays one covering fence, and a nil return means every
// operation of the batch is durable. On failure it returns *BatchError;
// sub-batches of shards not listed there committed durably. A batch of
// one op per shard degenerates to the unbatched path, counter-exact.
//
// obs, when not nil, is called with each op's original batch index
// after that op's group boundary, plus once more per sub-batch with the
// sub-batch's last index after its covering fence (the group.Observer
// contract, with indices translated out of sub-batch space).
//
// Under an open handoff window it holds the window shared for the whole
// batch (so a copy batch cannot interleave between a donor sub-batch and
// its shadow) and shadow-applies the covered slice of the donor's
// applied ops to the recipient.
func (f *frontend[K]) ApplyBatch(ops []group.Op[K], obs group.Observer) error {
	if len(f.shards) == 1 {
		f.rt.Load().ops[0].Add(uint64(len(ops)))
		return f.applyBatch(partition(len(ops), 1, nil), ops, obs)
	}
	g := f.gate.enter()
	defer f.gate.exit(g)
	t := f.rt.Load()
	subs := partition(len(ops), len(f.shards), func(i int) int {
		s, _ := f.locateKey(t, ops[i].Key)
		return s
	})
	mg := t.mig
	if mg == nil {
		return f.applyBatch(subs, ops, obs)
	}
	mg.mu.RLock()
	defer mg.mu.RUnlock()
	err := f.applyBatch(subs, ops, obs)
	f.shadow(mg, gather(ops, f.shadowApplied(subs, err, t, ops)))
	return err
}

// shadow group-commits ops — the window-covered writes a group commit
// just applied to the migration donor — to the recipient, with no
// observer: shadow writes are not separately acknowledged. A shadow
// that cannot be applied leaves the recipient incomplete, so it marks
// the migration failed (it will abort instead of flipping). The caller
// holds the window lock shared.
func (f *frontend[K]) shadow(mg *migration, ops []group.Op[K]) {
	if len(ops) == 0 {
		return
	}
	if f.unavailable(mg.recipient) != nil || f.commitShard(mg.recipient, ops, nil, "") != nil {
		mg.failed.Store(true)
	}
}

// shadowApplied returns the original batch indices that must be
// shadow-applied to the migration recipient: the window-covered ops
// among the donor sub-batch's applied prefix (the whole sub-batch
// unless it failed part-way).
func (f *frontend[K]) shadowApplied(subs []subBatch, err error, t *routeTable, ops []group.Op[K]) []int {
	mg := t.mig
	for _, sb := range subs {
		if sb.shard != mg.donor {
			continue
		}
		n := len(sb.idxs)
		if be, ok := err.(*BatchError); ok {
			for i := range be.Failed {
				if be.Failed[i].Shard == mg.donor {
					n = be.Failed[i].Applied
					break
				}
			}
		}
		var out []int
		for _, i := range sb.idxs[:n] {
			if mg.covers(f.part.Point(ops[i].Key), t) {
				out = append(out, i)
			}
		}
		return out
	}
	return nil
}

// Deferred is a group-flush write combiner for the ordered front-end:
// writes queue in arrival order and commit as one batch (ApplyBatch)
// when Flush is called or the queue reaches its limit. Keys are copied
// at enqueue, so callers may reuse their key buffers — the harness run
// loops do. A Deferred is not safe for concurrent use; each worker
// owns one.
//
// Nothing queued is durable (or acknowledged) until the flush that
// carries it returns nil.
type Deferred struct {
	m     *Ordered
	limit int
	ops   []group.Op[[]byte]
	buf   []byte // arena the queued keys are copied into
}

// NewDeferred returns a combiner flushing into m, auto-flushing when
// limit ops are queued (limit < 1 selects 1, i.e. write-through).
func NewDeferred(m *Ordered, limit int) *Deferred {
	if limit < 1 {
		limit = 1
	}
	return &Deferred{m: m, limit: limit}
}

// Insert queues an insertion, flushing first if the queue is full. The
// returned error is a flush error (see Flush); the new op is queued
// regardless.
func (d *Deferred) Insert(key []byte, value uint64) error {
	return d.queue(key, value, false)
}

// Update queues an in-place update, flushing first if the queue is
// full.
func (d *Deferred) Update(key []byte, value uint64) error {
	return d.queue(key, value, true)
}

func (d *Deferred) queue(key []byte, value uint64, update bool) error {
	var err error
	if len(d.ops) >= d.limit {
		err = d.Flush()
	}
	n := len(d.buf)
	d.buf = append(d.buf, key...)
	d.ops = append(d.ops, group.Op[[]byte]{Key: d.buf[n:len(d.buf):len(d.buf)], Value: value, Update: update})
	return err
}

// Pending returns the number of queued, unflushed ops.
func (d *Deferred) Pending() int { return len(d.ops) }

// Flush group-commits the queued ops and empties the queue. A nil
// return means everything previously queued is durable. On error
// (*BatchError) the failed sub-batches were not acknowledged; the
// queue is emptied either way — group commit has no retry slot for
// half-applied sub-batches.
func (d *Deferred) Flush() error {
	if len(d.ops) == 0 {
		return nil
	}
	err := d.m.ApplyBatch(d.ops, nil)
	d.ops = d.ops[:0]
	d.buf = d.buf[:0]
	return err
}
