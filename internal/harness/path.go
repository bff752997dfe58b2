// The write-path seam. The paper states its testing contract once (§5,
// §7.5): when an operation has been acknowledged, every line it dirtied
// is written back and fenced. What the three write paths disagree on is
// only what "acknowledged" means:
//
//	path     ack unit                 in flight at a crash        extra crash sites
//	Sync     the index call returns   the one crashed op          —
//	Batched  a combiner flush returns the whole unflushed batch   group.*
//	Async    a future resolves nil    every error-resolved future group.*, commit.*
//
// A writer hides that decision behind three operations — accept a
// write addressed by dense id, say whether this worker still has
// unacknowledged inserts of its own, and settle — so the plan walker,
// the attribution pass and every crash trial are written once. Writers
// come from a generation: one incarnation of the path over a Target. A
// crashed committer stays dead, so whatever follows a crash opens a
// fresh generation.
package harness

import (
	"sync"
	"time"

	"repro/internal/commit"
	"repro/internal/ycsb"
)

// PathMode names a write path.
type PathMode int

const (
	// Sync applies every write through the index directly; the call
	// returning is the acknowledgement. It does not pass through the
	// group layer, so it is not "Batched with a batch of one".
	Sync PathMode = iota
	// Batched queues each worker's writes in a private combiner and
	// commits them as fence-coalesced groups; a flush returning nil
	// acknowledges its whole batch.
	Batched
	// Async enqueues writes to committers and receives futures; a future
	// resolving nil — strictly after its batch's covering fence —
	// acknowledges its one op.
	Async
)

// WritePath selects a write path by value.
type WritePath struct {
	Mode PathMode
	// Batch is the ack unit of the queued paths: the combiner's flush
	// limit (Batched; < 1 selects 1) or the committers' drain size
	// (Async; < 1 selects commit.DefaultMaxBatch).
	Batch int
	// Queue and Flush configure Async committers over a sharded
	// front-end: the per-shard bounded queue (0 = commit.DefaultQueue)
	// and the staleness bound on short batches. Trials on a single heap
	// pin both instead (see open).
	Queue int
	Flush time.Duration
}

// PathFromFlags maps the commands' -batch/-async/-queue/-flushns flags
// to a path: -async selects Async, otherwise -batch > 1 selects
// Batched, otherwise Sync.
func PathFromFlags(batch int, async bool, queue int, flush time.Duration) WritePath {
	p := WritePath{Batch: batch, Queue: queue, Flush: flush}
	switch {
	case async:
		p.Mode = Async
	case batch > 1:
		p.Mode = Batched
	}
	return p
}

// unit is how many consecutive writes one acknowledgement covers.
func (p WritePath) unit() int {
	if p.Mode == Sync || p.Batch < 1 {
		return 1
	}
	return p.Batch
}

// hooks let a runner watch writes resolve; both are optional.
type hooks struct {
	// observe is called with a write's kind when its counters are final
	// — after a direct write returns, or as the group layer's observer
	// fires for a queued one (once per op, once more for a batch's last
	// op after the covering fence). On the Async path it runs on the
	// committers' goroutines.
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
	// reports this write — or, on the queued paths, the settle it
	// triggered — failing.
	write(id, v uint64, update bool) error
	// ownInserts reports whether this worker has accepted inserts that
	// are not yet acknowledged: a read of one must settle first.
	ownInserts() bool
	// settle blocks until every accepted write is acknowledged after its
	// covering fence or has failed, and returns the first failure.
	settle() error
}

// generation is one incarnation of a write path over a Target.
type generation struct {
	writer func(session) writer
	// end stops whatever the generation started (Async: its committers,
	// resolving every accepted future); it is idempotent.
	end func() error

	// The enqueue-to-ack latency sample Async writers accumulate.
	mu       sync.Mutex
	ackOps   int
	ackTotal time.Duration
}

// open starts a fresh generation of the path over t.
func (p WritePath) open(t *Target, h hooks) *generation {
	g := &generation{end: func() error { return nil }}
	switch p.Mode {
	case Batched:
		g.writer = func(session) writer {
			return &batchedWriter{c: t.combiner(), limit: max(p.Batch, 1), h: h}
		}
	case Async:
		opts := commit.Options{Queue: p.Queue, MaxBatch: p.Batch, FlushInterval: p.Flush}
		sole := len(t.heaps) == 1
		if sole {
			// A target on one heap has a trial's single enqueuer, which
			// keeps a queue of exactly one batch fed while the flush
			// interval never expires, so mid-stream batches are exactly
			// Batch consecutive ids and the site-visit sequence on the
			// committer goroutine is deterministic.
			opts = commit.Options{Queue: p.Batch, MaxBatch: p.Batch, FlushInterval: time.Hour}
		}
		enqueue, end := t.committers(opts, h.observe)
		g.end = end
		g.writer = func(session) writer {
			return &asyncWriter{g: g, enqueue: enqueue, sole: sole, resolved: h.resolved}
		}
	default:
		g.writer = func(s session) writer { return &syncWriter{s: s, h: h} }
	}
	return g
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

// asyncWindow caps a worker's outstanding futures on a shared
// generation; reaching it settles, so a fast enqueuer cannot hold
// unbounded future memory on top of the committers' bounded queues.
const asyncWindow = 1024

// asyncWriter: each write's future resolving nil is its
// acknowledgement.
type asyncWriter struct {
	g       *generation
	enqueue func(id, v uint64, update bool) (*commit.Future, error)
	// sole marks the only enqueuer of a standalone trial committer.
	sole     bool
	resolved func(id uint64, err error)

	futs    []*commit.Future
	ids     []uint64
	enq     []time.Time
	inserts bool
}

func (w *asyncWriter) write(id, v uint64, update bool) error {
	if !w.sole && len(w.futs) >= asyncWindow {
		if err := w.settle(); err != nil {
			return err
		}
	}
	at := time.Now()
	f, err := w.enqueue(id, v, update)
	if err != nil {
		return err // rejected: never accepted, never owed an ack
	}
	w.futs, w.ids, w.enq = append(w.futs, f), append(w.ids, id), append(w.enq, at)
	w.inserts = w.inserts || !update
	return nil
}

func (w *asyncWriter) ownInserts() bool { return w.inserts }

// settle waits the worker's outstanding futures, sampling ack latency.
// A sole enqueuer ends its generation instead: under the trial's pinned
// flush interval only the close commits a short tail batch, and once it
// returns every accepted future must have resolved — one still pending
// is reported (commit.ErrPending), never waited for.
func (w *asyncWriter) settle() error {
	if w.sole {
		_ = w.g.end() // a death cause is also what failed the futures below
	}
	var first error
	ops, total := 0, time.Duration(0)
	for i, f := range w.futs {
		err := f.Err()
		if !w.sole {
			err = f.Wait()
		}
		if at, ok := f.ResolvedAt(); ok {
			total += at.Sub(w.enq[i])
			ops++
		}
		if w.resolved != nil {
			w.resolved(w.ids[i], err)
		}
		if err != nil && first == nil {
			first = err
		}
	}
	w.futs, w.ids, w.enq, w.inserts = w.futs[:0], w.ids[:0], w.enq[:0], false
	w.g.mu.Lock()
	w.g.ackOps += ops
	w.g.ackTotal += total
	w.g.mu.Unlock()
	return first
}
