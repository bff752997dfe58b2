// The shard-routed async pipeline: one committer per shard of a sharded
// front-end — a single heap is a one-shard front-end. Writers enqueue
// through the pipeline, which picks the queue of the shard that owns
// each op's key now (the front-end's Owner), and each committer commits
// its batches through the front-end's ApplyBatch, which routes
// again when it commits — so an op enqueued before a routing-table flip
// and committed after it lands on the new owner, and a pipeline
// inherits the front-end's partitioning, handoff window, quarantine
// behaviour and per-shard single-writer group commits. Reads go to the
// front-end directly and may miss enqueued-but-uncommitted writes; the
// staleness window is bounded by Options.FlushInterval plus one batch
// commit. Callers that need read-your-writes call Drain (or wait their
// own futures) first.
package commit

import (
	"errors"

	"repro/internal/group"
	"repro/internal/pmem"
	"repro/shard"
)

// frontend is what a pipeline needs of a sharded front-end with keys of
// type K; *shard.Ordered and *shard.Hash provide it.
type frontend[K any] interface {
	NumShards() int
	Heap(i int) *pmem.Heap
	Quarantine(i int, cause error)
	Owner(key K) int
	ApplyBatch(ops []group.Op[K], obs group.Observer) error
}

// Pipeline is the async pipeline over a sharded front-end with keys of
// type K: one committer per shard, and the operations that fan out
// across all of them. NewOrdered builds it over the ordered front-end.
type Pipeline[K any] struct {
	m frontend[K]
	// own copies a key the caller may reuse before its op commits; nil
	// when keys are plain values.
	own func(K) K
	cs  []*Committer[group.Op[K]]
}

// newPipeline starts one committer per shard of m. opts applies to each
// committer (Queue and MaxBatch are per shard); committer s carries its
// crash sites on shard s's heap, and a dying committer quarantines
// shard s.
func newPipeline[K any](m frontend[K], own func(K) K, opts Options) *Pipeline[K] {
	p := &Pipeline[K]{m: m, own: own, cs: make([]*Committer[group.Op[K]], m.NumShards())}
	for s := range p.cs {
		p.cs[s] = newCommitter(m.ApplyBatch, opts, m.Heap(s), s,
			func(cause error) { m.Quarantine(s, cause) })
	}
	return p
}

// NewOrdered starts the async pipeline over a sharded ordered
// front-end: one committer per shard of m, each configured by opts
// (Queue and MaxBatch are per shard). Keys are copied at enqueue, so
// callers may reuse their buffers. Close the pipeline to release the
// committer goroutines.
func NewOrdered(m *shard.Ordered, opts Options) *Pipeline[[]byte] {
	return newPipeline[[]byte](m, func(k []byte) []byte { return append([]byte(nil), k...) }, opts)
}

// Insert enqueues an insertion and returns its completion future.
// Backpressure and close behave as Committer.Enqueue.
func (p *Pipeline[K]) Insert(key K, value uint64) (*Future, error) {
	return p.apply(group.Op[K]{Key: key, Value: value})
}

// Update enqueues an in-place update; see Insert.
func (p *Pipeline[K]) Update(key K, value uint64) (*Future, error) {
	return p.apply(group.Op[K]{Key: key, Value: value, Update: true})
}

// apply enqueues one write op onto its owning shard's queue.
func (p *Pipeline[K]) apply(op group.Op[K]) (*Future, error) {
	if p.own != nil {
		op.Key = p.own(op.Key)
	}
	return p.cs[p.m.Owner(op.Key)].Enqueue(op)
}

// Drain waits until every op accepted by any shard's committer before
// the call has resolved. It returns nil when all committers are
// healthy, the joined death causes otherwise, and ErrClosed after
// Close.
func (p *Pipeline[K]) Drain() error {
	futs := make([]*Future, 0, len(p.cs))
	var errs []error
	for _, c := range p.cs {
		f, err := c.Barrier()
		if err != nil {
			errs = append(errs, err)
			continue
		}
		futs = append(futs, f)
	}
	for _, f := range futs {
		if err := f.Wait(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Close shuts every committer down gracefully (see Committer.Close)
// and returns the joined death causes, nil when all exited cleanly.
func (p *Pipeline[K]) Close() error {
	var errs []error
	for _, c := range p.cs {
		if err := c.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Committer returns shard s's committer, for per-shard barriers and
// tests.
func (p *Pipeline[K]) Committer(s int) *Committer[group.Op[K]] { return p.cs[s] }
