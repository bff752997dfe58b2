// Package commit is the per-shard asynchronous commit pipeline on top
// of the group-persistence layer: writers enqueue operations into a
// bounded queue and immediately receive a completion Future; a
// committer goroutine drains the queue into group commits (group.Apply)
// and resolves each Future only after the covering fence of the batch
// carrying its op retired — never before. Acknowledgement is thereby
// tied to durability while persistence latency leaves the writer's
// critical path, the shape of Ben-David et al.'s delay-free
// construction.
//
// The robustness contract:
//
//   - Bounded queue, blocking backpressure: an enqueue against a full
//     queue waits for the committer to free space.
//   - Bounded staleness: Options.FlushInterval caps how long the
//     committer waits for a batch to fill after its first op, so a
//     trickle of writes never waits indefinitely; zero means commit
//     whatever is immediately available.
//   - Graceful shutdown: after Close returns, every accepted Future is
//     resolved, the committer goroutine has exited, and further
//     enqueues fail with ErrClosed.
//   - Containment: a committer panic or a crash of its own shard
//     resolves all affected and queued Futures with a *CommitterError
//     (matched by errors.Is(err, ErrCommitterFailed)) and quarantines
//     the shard — waiters never deadlock. Operations routed to an
//     already quarantined shard resolve with an error matching that
//     shard's *shard.ShardUnavailableError instead of hanging.
//
// Two crash sites bracket the committer's drain loop, swept by the
// async lossy and durability-site campaigns (internal/harness):
//
//   - "commit.drain.applied" fires after the committer applies each op
//     of a draining batch, inside the fence group — the batch is
//     mid-flight and unfenced, and no Future it carries has resolved.
//   - "commit.ack.fenced" fires after the covering fence retires and
//     before any Future of the batch resolves — the batch is durable
//     but unacknowledged.
//
// Crashing at either site can therefore never lose an acknowledged
// write: a Future that resolved nil had its covering fence retire
// strictly earlier.
package commit

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/crash"
	"repro/internal/group"
	"repro/internal/pmem"
	"repro/shard"
)

// Crash sites introduced by the committer drain loop (see the package
// comment).
const (
	SiteDrainApplied = "commit.drain.applied"
	SiteAckFenced    = "commit.ack.fenced"
)

// Typed failures of the pipeline surface.
var (
	// ErrClosed reports an enqueue after Close.
	ErrClosed = errors.New("commit: pipeline closed")
	// ErrPending is returned by Future.Err while the future is
	// unresolved.
	ErrPending = errors.New("commit: future pending")
	// ErrCommitterFailed is the sentinel matched by errors.Is for
	// futures failed by a committer that died (panic or injected crash).
	ErrCommitterFailed = errors.New("commit: committer failed")
)

// CommitterError reports a committer that died mid-drain: an injected
// crash or a panic escaping the apply function. Every future the
// committer still owed — the in-flight batch and everything queued
// behind it — resolves with this error, so no waiter hangs on a dead
// committer. It matches ErrCommitterFailed via errors.Is and unwraps
// to the underlying cause (e.g. crash.ErrCrashed).
type CommitterError struct {
	// Shard is the shard whose committer died (0 for a committer built
	// by NewCommitter).
	Shard int
	// Cause is the underlying failure.
	Cause error
}

func (e *CommitterError) Error() string {
	return fmt.Sprintf("commit: shard %d committer failed: %v", e.Shard, e.Cause)
}

// Unwrap exposes the cause to errors.Is/As chains.
func (e *CommitterError) Unwrap() error { return e.Cause }

// Is matches the ErrCommitterFailed sentinel.
func (e *CommitterError) Is(target error) bool { return target == ErrCommitterFailed }

// Options configures a Committer (and, via the pipeline constructors,
// every per-shard committer).
type Options struct {
	// Queue is the bounded queue capacity (ops admitted but not yet
	// committed). Values < 1 select DefaultQueue.
	Queue int
	// MaxBatch caps how many queued ops one group commit drains. Values
	// < 1 select DefaultMaxBatch.
	MaxBatch int
	// FlushInterval bounds staleness: the longest the committer waits,
	// after a batch's first op arrives, for the batch to fill to
	// MaxBatch before committing it anyway. Zero commits whatever is
	// immediately available (minimum latency, smallest batches).
	FlushInterval time.Duration
}

// Queue/batch defaults (see Options).
const (
	DefaultQueue    = 256
	DefaultMaxBatch = 64
)

func (o Options) queue() int {
	if o.Queue < 1 {
		return DefaultQueue
	}
	return o.Queue
}

func (o Options) maxBatch() int {
	if o.MaxBatch < 1 {
		return DefaultMaxBatch
	}
	return o.MaxBatch
}

// Future is the completion handle returned by an accepted enqueue. It
// resolves exactly once: with nil after the covering fence of the
// group commit carrying the op retired (the op is durable and may be
// acknowledged downstream), or with an error if the op did not commit
// (shard unavailable, committer death, close-time failure). An
// unresolved future only ever means the op is not yet — and may never
// be — durable.
type Future struct {
	done chan struct{}
	err  error     // written before done closes; read only after
	when time.Time // resolution time, for enqueue-to-ack latency
}

func newFuture() *Future { return &Future{done: make(chan struct{})} }

// resolve publishes the outcome; the done-channel close is the
// happens-before edge making err/when visible to waiters.
func (f *Future) resolve(err error, at time.Time) {
	f.err = err
	f.when = at
	close(f.done)
}

// Wait blocks until the future resolves and returns its outcome: nil
// means the op is durable (covering fence retired).
func (f *Future) Wait() error {
	<-f.done
	return f.err
}

// Done returns a channel closed when the future resolves, for select
// loops.
func (f *Future) Done() <-chan struct{} { return f.done }

// Err returns the resolution without blocking: ErrPending while
// unresolved, otherwise Wait's result.
func (f *Future) Err() error {
	select {
	case <-f.done:
		return f.err
	default:
		return ErrPending
	}
}

// ResolvedAt returns when the future resolved (false while pending),
// for enqueue-to-ack latency measurement.
func (f *Future) ResolvedAt() (time.Time, bool) {
	select {
	case <-f.done:
		return f.when, true
	default:
		return time.Time{}, false
	}
}

// item is one queue entry: an op awaiting commit, or a barrier (op
// unused) that resolves once everything enqueued before it has
// resolved.
type item[O any] struct {
	op      O
	fut     *Future
	barrier bool
}

// Committer drains one bounded queue of ops into group commits via the
// apply function and resolves futures after each batch's covering
// fence. The pipeline constructors run one per shard of a front-end,
// which is the only way a committer reaches a heap. Enqueue/Barrier/
// Drain are safe for concurrent use; Close is idempotent and safe to
// race with enqueuers.
type Committer[O any] struct {
	apply func(ops []O, obs group.Observer) error
	obs   func(op O)        // per-op instrumentation, on the committer goroutine
	quar  func(cause error) // nil: nothing to quarantine
	heap  *pmem.Heap        // carries the crash sites; nil disables them
	shard int

	flush    time.Duration
	maxBatch int

	ch      chan item[O]
	closing chan struct{} // closed by Close after the closed flag is set
	exited  chan struct{} // closed when the committer goroutine returns

	// mu makes enqueue-vs-Close race-free: enqueuers hold it shared for
	// the whole admission (including the wait on a full queue — safe
	// because the committer never takes mu and keeps draining), Close
	// takes it exclusive to set closed. Everything admitted before Close
	// wins the lock is therefore in the queue before closing is
	// observable, and is drained; everything after fails with ErrClosed.
	mu     sync.RWMutex
	closed bool

	// cause is the committer's death cause (nil for a clean shutdown);
	// written by the committer goroutine before exited closes.
	cause error

	batch []item[O] // gather scratch, reused between batches
	ops   []O       // apply scratch, reused between batches
}

// NewCommitter starts a committer goroutine draining enqueued ops into
// apply, which must commit the batch and honour the group.Observer
// contract (obs called after each op's boundary, once more after each
// covering fence); a *shard.BatchError return names the ops that did
// not commit, any other error fails the whole batch. The per-op
// observer obs, when non-nil, is called on the committer goroutine with
// the op for every group.Observer callback — the attribution hook.
// Close the committer to release the goroutine. It has no crash sites
// and no shard to quarantine.
func NewCommitter[O any](apply func(ops []O, obs group.Observer) error, obs func(op O), opts Options) *Committer[O] {
	return newCommitter(apply, obs, opts, nil, 0, nil)
}

// newCommitter is NewCommitter for shard s of a front-end: heap carries
// the crash sites, and quar, when non-nil, is invoked once with the
// cause if the committer dies.
func newCommitter[O any](apply func(ops []O, obs group.Observer) error, obs func(op O), opts Options,
	heap *pmem.Heap, s int, quar func(cause error)) *Committer[O] {
	c := &Committer[O]{
		apply:    apply,
		obs:      obs,
		quar:     quar,
		heap:     heap,
		shard:    s,
		flush:    opts.FlushInterval,
		maxBatch: opts.maxBatch(),
		ch:       make(chan item[O], opts.queue()),
		closing:  make(chan struct{}),
		exited:   make(chan struct{}),
	}
	go c.run()
	return c
}

// Enqueue admits op, waiting for space while the queue is full, and
// returns its completion future. It returns ErrClosed after Close; the
// future is nil exactly when the error is non-nil (a rejected op was
// never accepted and owes no ack).
func (c *Committer[O]) Enqueue(op O) (*Future, error) {
	return c.push(item[O]{op: op, fut: newFuture()})
}

// Barrier enqueues a flush marker and returns its future, which
// resolves once every op accepted before it has resolved. A barrier
// future resolves with nil on a healthy committer (even if individual
// earlier ops failed — each op's own future carries its outcome) and
// with the death cause on a failed one.
func (c *Committer[O]) Barrier() (*Future, error) {
	return c.push(item[O]{fut: newFuture(), barrier: true})
}

// Drain flushes: it waits until everything already accepted has
// resolved. It returns nil on a healthy committer, the death cause on
// a failed one, and ErrClosed after Close.
func (c *Committer[O]) Drain() error {
	f, err := c.Barrier()
	if err != nil {
		return err
	}
	return f.Wait()
}

// push admits one item. A full queue blocks the enqueuer until the
// committer frees space; that cannot deadlock, because the committer
// drains the queue even while Close is pending and after a committer
// failure.
func (c *Committer[O]) push(it item[O]) (*Future, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		return nil, ErrClosed
	}
	c.ch <- it
	return it.fut, nil
}

// Close shuts the committer down gracefully: it rejects further
// enqueues with ErrClosed, waits until every already accepted future
// has resolved and the committer goroutine has exited, and returns the
// committer's death cause (nil for a clean shutdown). It is idempotent
// and safe to call concurrently with enqueuers.
func (c *Committer[O]) Close() error {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		close(c.closing)
	}
	c.mu.Unlock()
	<-c.exited
	return c.cause
}

// run is the committer goroutine: gather a batch, commit it, resolve
// its futures; on Close drain what remains and exit; on committer
// death fail everything still owed and exit.
func (c *Committer[O]) run() {
	defer close(c.exited)
	for {
		var first item[O]
		select {
		case first = <-c.ch:
		case <-c.closing:
			// Closed: everything admitted is already in the queue (see
			// mu). Drain it batch by batch, then exit.
			for {
				batch := c.gatherReady(c.batch[:0])
				if len(batch) == 0 {
					return
				}
				if cause := c.commit(batch); cause != nil {
					c.fail(cause)
					return
				}
			}
		}
		if cause := c.commit(c.gather(first)); cause != nil {
			c.fail(cause)
			return
		}
	}
}

// gather fills a batch starting from first: greedily when
// FlushInterval is zero, otherwise waiting up to the flush deadline
// for the batch to reach MaxBatch — unless a barrier arrives, which
// someone is waiting on, and commits the batch at once.
func (c *Committer[O]) gather(first item[O]) []item[O] {
	batch := append(c.batch[:0], first)
	if c.flush <= 0 {
		return c.gatherReady(batch)
	}
	if first.barrier {
		return batch
	}
	timer := time.NewTimer(c.flush)
	defer timer.Stop()
	for len(batch) < c.maxBatch {
		select {
		case it := <-c.ch:
			if batch = append(batch, it); it.barrier {
				return batch
			}
		case <-timer.C:
			return batch
		case <-c.closing:
			return c.gatherReady(batch)
		}
	}
	return batch
}

// gatherReady appends immediately available items up to MaxBatch.
func (c *Committer[O]) gatherReady(batch []item[O]) []item[O] {
	for len(batch) < c.maxBatch {
		select {
		case it := <-c.ch:
			batch = append(batch, it)
		default:
			return batch
		}
	}
	return batch
}

// commit applies one gathered batch as a group commit and resolves its
// futures. The returned error is non-nil only for committer death
// (injected crash or escaped panic); ordinary batch failures resolve
// the affected futures and keep the committer running.
func (c *Committer[O]) commit(batch []item[O]) error {
	c.batch = batch // retain scratch capacity
	ops := c.ops[:0]
	for i := range batch {
		if !batch[i].barrier {
			ops = append(ops, batch[i].op)
		}
	}
	c.ops = ops

	var err error
	if len(ops) > 0 {
		err = c.runApply(ops)
	}
	// The committer dies of a panic or of its own shard's crash. A crash
	// on another shard — one a flip moved this queue's keys to — fails
	// that shard's sub-batch alone.
	var ce *CommitterError
	fatal := errors.As(err, &ce) || crash.IsCrash(err) && (c.heap == nil || c.heap.Injector().Fired())
	if fatal && ce == nil {
		err = &CommitterError{Shard: c.shard, Cause: err}
	}
	// On committer death nothing past the previous barrier is
	// acknowledged: every op of the batch resolves with the typed
	// committer error. Otherwise an op is acknowledged unless its
	// sub-batch failed before applying it: the front-end committed the
	// other shards' sub-batches in full and fenced the applied ops of a
	// failed one, unless it crashed.
	failed := opErrors(len(ops), err, fatal)
	now := time.Now()
	k := 0
	for i := range batch {
		var ferr error
		if !batch[i].barrier {
			ferr = failed(k)
			k++
		}
		batch[i].fut.resolve(ferr, now)
	}
	if fatal {
		return err
	}
	return nil
}

// opErrors maps each of an n-op batch's positions to its outcome given
// the apply error: nil for an acknowledged op. A *shard.BatchError
// fails the unapplied ops of its failed sub-batches — every op of a
// crashed one — each with its sub-batch's error; any other error, and
// every error when fatal, fails the whole batch.
func opErrors(n int, err error, fatal bool) func(i int) error {
	var be *shard.BatchError
	if err == nil || fatal || !errors.As(err, &be) {
		return func(int) error { return err }
	}
	out := make([]error, n)
	for j := range be.Failed {
		sb := &be.Failed[j]
		idxs := sb.OpIndices[sb.Applied:]
		if crash.IsCrash(sb.Err) {
			idxs = sb.OpIndices
		}
		for _, i := range idxs {
			out[i] = sb
		}
	}
	return func(i int) error { return out[i] }
}

// runApply runs the group commit with the committer's crash sites and
// panic containment: SiteDrainApplied fires after each op's boundary
// inside the group (via the observer), SiteAckFenced fires after a
// successful commit before any future resolves. An injected crash
// surfaces as crash.ErrCrashed; any other panic as *CommitterError.
//
// A batch spanning shards commits as one group per shard, and each
// group calls the observer once more, repeating its last op's index,
// after its covering fence: an op boundary is a callback whose index
// differs from the previous one's.
func (c *Committer[O]) runApply(ops []O) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(crash.Signal); ok {
				// SiteAckFenced fired (in-group signals were already
				// converted by the group layer): the machine died after the
				// fence, before the ack.
				err = crash.ErrCrashed
				return
			}
			err = &CommitterError{Shard: c.shard, Cause: fmt.Errorf("committer panic: %v", r)}
		}
	}()
	prev := -1
	obs := func(i int) {
		if i != prev {
			prev = i
			c.crashPoint(SiteDrainApplied)
		}
		if c.obs != nil {
			c.obs(ops[i])
		}
	}
	if err := c.apply(ops, obs); err != nil {
		return err
	}
	c.crashPoint(SiteAckFenced)
	return nil
}

func (c *Committer[O]) crashPoint(site string) {
	if c.heap != nil {
		c.heap.CrashPoint(site)
	}
}

// fail is the death path: record the cause, quarantine, then keep
// consuming the queue — failing every future still owed — until Close
// empties it, so neither waiters nor enqueuers blocked on a full queue
// ever hang on a dead committer.
func (c *Committer[O]) fail(cause error) {
	werr := cause
	if _, ok := cause.(*CommitterError); !ok {
		werr = &CommitterError{Shard: c.shard, Cause: cause}
	}
	c.cause = werr
	if c.quar != nil {
		c.quar(werr)
	}
	for {
		select {
		case it := <-c.ch:
			it.fut.resolve(werr, time.Now())
		case <-c.closing:
			for {
				select {
				case it := <-c.ch:
					it.fut.resolve(werr, time.Now())
				default:
					return
				}
			}
		}
	}
}
