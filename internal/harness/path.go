// The write-path seam. The paper states its testing contract once (§5,
// §7.5): when an operation has been acknowledged, every line it dirtied
// is written back and fenced. What the two write paths disagree on is
// only what "acknowledged" means:
//
//	path     ack unit                 in flight at a crash        extra crash sites
//	per-op   the index call returns   the one crashed op          —
//	batched  a combiner flush returns the whole unflushed batch   group.*
//
// A writer hides that decision behind three operations — accept a
// write addressed by dense id, say whether this worker still has
// unacknowledged inserts of its own, and settle — so the plan walker,
// the attribution pass and every crash trial are written once.
package harness

import "repro/internal/ycsb"

// WritePath selects a write path by value.
type WritePath struct {
	// Batch is the ack unit. A batch of 1 or less is the per-op path:
	// every write goes through the index directly, and the call
	// returning is its acknowledgement (it does not pass through the
	// group layer). A larger batch queues each worker's writes in a
	// private combiner and commits them as fence-coalesced groups of
	// up to Batch; a flush returning nil acknowledges its whole batch.
	Batch int
}

// unit is how many consecutive writes one acknowledgement covers.
func (p WritePath) unit() int { return max(p.Batch, 1) }

// hooks let a runner watch writes resolve; both are optional.
type hooks struct {
	// observe is called with a write's kind when its counters are final
	// — after a direct write returns, or as the group layer's observer
	// fires for a queued one (once per op, once more for a batch's last
	// op after the covering fence).
	observe func(ycsb.OpKind)
	// resolved is called once per accepted write as it settles, with nil
	// if it was acknowledged after its covering fence and with the
	// failure if it never was.
	resolved func(id uint64, err error)
}

// writer is one worker's end of a write path; not safe for concurrent
// use.
type writer interface {
	// write accepts an insert (or in-place update) of id. An error
	// reports this write — or, on the batched path, the settle it
	// triggered — failing.
	write(id, v uint64, update bool) error
	// ownInserts reports whether this worker has accepted inserts that
	// are not yet acknowledged: a read of one must settle first.
	ownInserts() bool
	// settle blocks until every accepted write is acknowledged after its
	// covering fence or has failed, and returns the first failure.
	settle() error
}

// writer returns one worker's writer over t, writing directly through
// s on the per-op path.
func (p WritePath) writer(t *Target, s session, h hooks) writer {
	if p.Batch > 1 {
		return &batchedWriter{c: t.combiner(), limit: p.Batch, h: h}
	}
	return &syncWriter{s: s, h: h}
}

// syncWriter: the index call returning is the acknowledgement.
type syncWriter struct {
	s session
	h hooks
}

func (w *syncWriter) write(id, v uint64, update bool) error {
	err := w.s.write(id, v, update)
	if w.h.observe != nil {
		w.h.observe(kindOf(v, update))
	}
	if w.h.resolved != nil {
		w.h.resolved(id, err)
	}
	return err
}

func (*syncWriter) ownInserts() bool { return false }
func (*syncWriter) settle() error    { return nil }

// batchedWriter: a flush of the worker's private combiner is the
// acknowledgement of its whole batch.
type batchedWriter struct {
	c       combiner
	limit   int
	ids     []uint64 // the queued writes, in queue order
	inserts int
	h       hooks
}

// write queues; a full queue is flushed first (so a flush is forced
// only by the next write, a read of an own insert, or the final
// settle), and a failed flush leaves the new write unaccepted.
func (w *batchedWriter) write(id, v uint64, update bool) error {
	if len(w.ids) >= w.limit {
		if err := w.settle(); err != nil {
			return err
		}
	}
	w.c.queue(id, v, update)
	w.ids = append(w.ids, id)
	if !update {
		w.inserts++
	}
	return nil
}

func (w *batchedWriter) ownInserts() bool { return w.inserts > 0 }

func (w *batchedWriter) settle() error {
	if len(w.ids) == 0 {
		return nil
	}
	err := w.c.flush(w.h.observe)
	if w.h.resolved != nil {
		for _, id := range w.ids {
			w.h.resolved(id, err)
		}
	}
	w.ids, w.inserts = w.ids[:0], 0
	return err
}
