// Package pmem simulates the persistent-memory substrate that RECIPE's
// converted indexes run on.
//
// On real hardware (Intel Optane DC PMM) a converted index guarantees
// crash consistency by ordering stores with mfence and writing dirty cache
// lines back with clwb. Portable Go exposes neither instruction, so this
// package provides a simulated heap with the same programming model:
//
//   - Alloc registers a persistent object and returns a handle (Obj) that
//     maps the object's bytes onto abstract 64-byte cache lines.
//   - Persist(obj, off, size) stands in for one clwb per dirtied line.
//   - Fence stands in for mfence/sfence.
//   - Dirty and Load report stores and loads for the durability checker
//     (the analogue of the paper's PIN tracing, §5) and for the LLC
//     simulator used to reproduce the paper's cache-miss counters.
//
// The heap counts clwb/fence/allocation events (Fig 4c, 4d, Table 4) and
// optionally charges a configurable busy-wait latency per clwb and fence
// so that flush-heavy indexes pay a throughput penalty, mimicking the
// asymmetric cost of persistence on Optane. Crash points (§5) are routed
// to a crash.Injector.
//
// Because every index operation passes through the heap, its counters are
// the hottest shared state in the whole benchmark. They are striped
// (internal/stripe) so the zero-options fast heap performs no shared-line
// atomics on the hot path: counter adds go to per-shard padded cells and
// line allocation bump-allocates from per-shard chunks. Stats aggregates
// lazily and is exact.
package pmem

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/cachesim"
	"repro/internal/crash"
	"repro/internal/stripe"
)

// LineSize is the simulated cache-line size in bytes.
const LineSize = cachesim.LineSize

// Obj is a handle to a persistent allocation. The zero value is not a
// valid allocation; nodes obtain one from Heap.Alloc. Obj maps byte
// offsets within the object to global abstract line addresses.
type Obj struct {
	base  uint64 // first line address
	lines uint32 // number of lines spanned
}

// Valid reports whether the handle came from an allocation.
func (o Obj) Valid() bool { return o.lines != 0 }

// Lines returns the number of cache lines the allocation spans.
func (o Obj) Lines() int { return int(o.lines) }

func (o Obj) line(off uintptr) uint64 { return o.base + uint64(off/LineSize) }

// Options configures a Heap.
type Options struct {
	// Track enables the durability tracker: every store, clwb and
	// allocation takes a striped lock and a map write (a fence is free).
	Track bool
	// LLC, when non-nil, routes every reported load/store/flush through a
	// simulated last-level cache.
	LLC *cachesim.Cache
	// Injector, when non-nil, is consulted at every crash point.
	Injector *crash.Injector
	// DelayClwb and DelayFence are busy-wait iterations charged per clwb
	// and per fence, approximating Optane write-back latency. Zero means
	// free (unit tests); benchmark harnesses set them.
	DelayClwb  int
	DelayFence int
	// Shadow enables lossy power-failure emulation (shadow.go): the heap
	// keeps typed shadow images of every registered allocation so that
	// PowerCycle can materialise a true post-power-loss state. Shadow
	// implies Track — the cycle classifies allocations by the tracker's
	// dirty/pending line state. Slow; testing only, single writer during
	// tracked phases.
	Shadow bool
}

// Heap is a simulated persistent-memory pool. It is safe for concurrent
// use. A Heap with zero-valued Options has negligible overhead: Persist
// and Fence touch only shard-private padded counter cells, Alloc
// bump-allocates from a shard-private chunk, and Dirty and Load are a
// nil check.
type Heap struct {
	// Striped instrumentation.
	lines  *stripe.Allocator
	clwb   *stripe.Counter
	fence  *stripe.Counter
	allocs *stripe.Counter
	bytes  *stripe.Counter

	llc        *cachesim.Cache
	tracker    *Tracker
	shadow     *shadowState
	inj        *crash.Injector
	delayClwb  int
	delayFence int

	// group is the deferred-fence batching mode (group.go). Zero value =
	// inactive; Persist and Fence check it with one predictable branch.
	group groupState
}

// New returns a heap configured by opts.
func New(opts Options) *Heap {
	h := &Heap{
		// Line 0 is reserved so Obj{} is detectably invalid.
		lines:      stripe.NewAllocator(1, stripe.DefaultChunkLines),
		clwb:       stripe.NewCounter(),
		fence:      stripe.NewCounter(),
		allocs:     stripe.NewCounter(),
		bytes:      stripe.NewCounter(),
		llc:        opts.LLC,
		inj:        opts.Injector,
		delayClwb:  opts.DelayClwb,
		delayFence: opts.DelayFence,
	}
	if opts.Track || opts.Shadow {
		h.tracker = newTracker()
	}
	if opts.Shadow {
		h.shadow = newShadowState()
	}
	return h
}

// Release retires the heap: it aborts an open fence group, clears the
// tracker and drops the shadow registry, which pins every node ever
// registered with it. The caller must have dropped every index built on
// the heap: after Release the heap (and any Obj it handed out) must not
// be used, and further Alloc calls panic. Releasing twice is a no-op.
func (h *Heap) Release() {
	if h.lines == nil {
		return
	}
	h.AbortFenceGroup()
	if h.tracker != nil {
		h.tracker.Reset()
	}
	if h.shadow != nil {
		h.shadow.mu.Lock()
		h.shadow.objs = make(map[uint64]*shadowObj)
		h.shadow.queue = nil
		h.shadow.tainted = 0
		h.shadow.mu.Unlock()
	}
	h.lines = nil
}

// NewFast returns a heap with counters only — the configuration used by
// unit tests and by throughput benchmarks that model PM latency
// separately.
func NewFast() *Heap { return New(Options{}) }

// SetInjector installs (or clears) the crash injector. It must not be
// called concurrently with index operations.
func (h *Heap) SetInjector(in *crash.Injector) { h.inj = in }

// Injector returns the currently installed crash injector.
func (h *Heap) Injector() *crash.Injector { return h.inj }

// Alloc registers a persistent allocation of the given size and returns
// its handle. The allocation's lines start out dirty (a freshly
// initialised object must be persisted before it is linked into the
// index), matching the paper's durability findings about unpersisted node
// allocations in FAST & FAIR and CCEH.
func (h *Heap) Alloc(size uintptr) Obj {
	if size == 0 {
		size = 1
	}
	lines := uint32((size + LineSize - 1) / LineSize)
	k := stripe.Key()
	o := Obj{base: h.lines.AllocKey(k, uint64(lines)), lines: lines}
	h.allocs.AddKey(k, 1)
	h.bytes.AddKey(k, uint64(size))
	if h.tracker != nil {
		h.tracker.dirtyRange(o, 0, size)
	}
	return o
}

// Persist simulates clwb over [off, off+size) of o: one write-back per
// spanned cache line. It does not order stores; callers must issue Fence
// at the points the converted index requires.
func (h *Heap) Persist(o Obj, off, size uintptr) {
	// A fence deferred by group mode retires before any new write-back,
	// preserving intra-operation ordering exactly (group.go).
	h.materialisePending()
	if size == 0 {
		return
	}
	first := o.line(off)
	last := o.line(off + size - 1)
	n := last - first + 1
	h.clwb.Add(n)
	if h.delayClwb > 0 {
		spin(h.delayClwb * int(n))
	}
	if h.llc != nil {
		for l := first; l <= last; l++ {
			h.llc.Access(l)
		}
	}
	if h.shadow != nil {
		h.shadow.capture(o, off, size, h.tracker)
	}
	if h.tracker != nil {
		h.tracker.flushRange(o, off, size)
	}
}

// Fence simulates mfence: all previously issued clwbs become durable.
// Inside a fence group (BeginFenceGroup) the fence is deferred instead:
// the next Persist materialises it, or the op boundary elides it if it
// was the operation's trailing fence (group.go).
func (h *Heap) Fence() {
	if h.group.active {
		h.group.pending = true
		return
	}
	h.fenceReal()
}

// fenceReal is the unconditional fence: counter, latency, tracker and
// shadow promotion.
func (h *Heap) fenceReal() {
	h.fence.Add(1)
	if h.delayFence > 0 {
		spin(h.delayFence)
	}
	if h.tracker != nil {
		h.tracker.fence()
	}
	if h.shadow != nil {
		h.shadow.promote()
	}
}

// PersistFence is the common "clwb; mfence" pair the conversion actions
// insert after each store.
func (h *Heap) PersistFence(o Obj, off, size uintptr) {
	h.Persist(o, off, size)
	h.Fence()
}

// Dirty records that [off, off+size) of o was stored to. Write paths call
// it so the durability checker can verify flush coverage and so the LLC
// simulator sees the store traffic. It is a nil-check no-op on fast heaps.
func (h *Heap) Dirty(o Obj, off, size uintptr) {
	if h.llc != nil && size > 0 {
		for l, last := o.line(off), o.line(off+size-1); l <= last; l++ {
			h.llc.Access(l)
		}
	}
	if h.tracker != nil {
		h.tracker.dirtyRange(o, off, size)
	}
}

// Load records that [off, off+size) of o was read. Read paths call it so
// the LLC simulator sees load traffic. It is a nil-check no-op on fast
// heaps.
func (h *Heap) Load(o Obj, off, size uintptr) {
	if h.llc != nil && size > 0 {
		for l, last := o.line(off), o.line(off+size-1); l <= last; l++ {
			h.llc.Access(l)
		}
	}
}

// CrashPoint marks a §5 crash site: the boundary immediately after one of
// the ordered atomic stores that make up an insert or SMO.
func (h *Heap) CrashPoint(site string) {
	if h.inj != nil {
		h.inj.Here(site)
	}
}

// Stats is a snapshot of heap counters.
type Stats struct {
	Clwb       uint64
	Fence      uint64
	Allocs     uint64
	AllocBytes uint64
	LLC        cachesim.Stats
}

// Add returns s + t field-wise (for aggregating per-shard snapshots).
func (s Stats) Add(t Stats) Stats {
	return Stats{
		Clwb:       s.Clwb + t.Clwb,
		Fence:      s.Fence + t.Fence,
		Allocs:     s.Allocs + t.Allocs,
		AllocBytes: s.AllocBytes + t.AllocBytes,
		LLC: cachesim.Stats{
			Accesses: s.LLC.Accesses + t.LLC.Accesses,
			Hits:     s.LLC.Hits + t.LLC.Hits,
			Misses:   s.LLC.Misses + t.LLC.Misses,
		},
	}
}

// Sub returns s - t field-wise (for per-phase deltas).
func (s Stats) Sub(t Stats) Stats {
	return Stats{
		Clwb:       s.Clwb - t.Clwb,
		Fence:      s.Fence - t.Fence,
		Allocs:     s.Allocs - t.Allocs,
		AllocBytes: s.AllocBytes - t.AllocBytes,
		LLC: cachesim.Stats{
			Accesses: s.LLC.Accesses - t.LLC.Accesses,
			Hits:     s.LLC.Hits - t.LLC.Hits,
			Misses:   s.LLC.Misses - t.LLC.Misses,
		},
	}
}

// Stats returns a snapshot of the counters. Striped counters aggregate
// here, off the hot path; totals are exact with respect to completed
// operations.
func (h *Heap) Stats() Stats {
	s := Stats{
		Clwb:       h.clwb.Load(),
		Fence:      h.fence.Load(),
		Allocs:     h.allocs.Load(),
		AllocBytes: h.bytes.Load(),
	}
	if h.llc != nil {
		s.LLC = h.llc.Stats()
	}
	return s
}

// Tracker returns the durability tracker, or nil when tracking is off.
func (h *Heap) Tracker() *Tracker { return h.tracker }

// spin burns roughly n "work units" to model PM persistence latency.
//
//go:noinline
func spin(n int) {
	var x uint64 = 1
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	spinSink.Store(x)
}

var spinSink atomic.Uint64

// trackerShards is the number of independently locked shards in the
// durability tracker (must be a power of two). Striping by line hash
// keeps Track-mode multi-thread runs (the §5 durability campaigns,
// recipesrv's connections) from serialising every store on one lock.
const trackerShards = 64

// lineState is a non-durable line's state; a durable line has no entry.
type lineState uint8

const (
	lineDirty   lineState = iota + 1 // stored to, not yet clwb'd
	linePending                      // clwb'd, not yet fenced
)

// violationKinds names each state as Violation.Kind reports it.
var violationKinds = [...]string{lineDirty: "dirty", linePending: "pending"}

// Tracker is the shadow state behind the §5 durability test: it records
// which lines are dirty, which have been written back but not yet fenced,
// and reports any line that an operation left unprotected. State is
// sharded by line hash; each line's transitions are serialised by its
// shard lock, which is all the per-line dirty→pending→durable protocol
// needs.
//
// A fence is one add to epoch and touches no shard, so it costs the same
// on a heap of one line and of a million. The pending→durable transition
// it stands for is applied lazily: a shard remembers the epoch its
// pending lines were written back in, and whoever next takes its lock to
// flush or to read (hold) retires them first if the epoch has moved on.
// Every reader goes through hold, so none can tell; a write-back racing
// a fence lands on one side of it, as it did when fence took the locks.
//
// The tracker also counts persistence waste: a dry fence orders no
// write-back (none since the previous fence), a clean write-back
// flushes a line the tracker does not hold dirty. Both counts are exact
// in single-writer phases; with racing writers they are approximate.
type Tracker struct {
	epoch atomic.Uint64 // fences retired so far
	// wrote is 1 + the epoch of the latest write-back (0: none yet), so a
	// fence knows whether its epoch saw one without a flag to clear.
	wrote     atomic.Uint64
	dryFences atomic.Uint64
	cleanWBs  atomic.Uint64
	shards    [trackerShards]trackerShard
}

type trackerShard struct {
	mu    sync.Mutex
	lines map[uint64]lineState // the shard's non-durable lines
	// pend lists the lines written back in epoch, so retiring them costs
	// what was flushed since the last fence, not what the map holds. A
	// line stored to again stays listed; hold checks the state.
	pend  []uint64
	epoch uint64
	// dirty counts the shard's lines in lineDirty, written under mu and
	// read without it, so a boundary check with nothing dirty takes no
	// lock.
	dirty atomic.Int64
	// Pad the 56 bytes above to 128 — the prefetch-pair stride, matching
	// stripe's padding policy — so adjacent shard locks never share a
	// paired line.
	_ [72]byte
}

func newTracker() *Tracker {
	t := &Tracker{}
	t.Reset()
	return t
}

// shard maps a line address to its shard; the multiplier scrambles the
// sequential line addresses the allocator hands out, and the mask takes
// well-mixed high bits.
func (t *Tracker) shard(line uint64) *trackerShard {
	return &t.shards[(line*0x9E3779B97F4A7C15)>>32&(trackerShards-1)]
}

// hold locks s and retires the pending lines a fence has covered since
// they were written back.
func (t *Tracker) hold(s *trackerShard) {
	s.mu.Lock()
	if e := t.epoch.Load(); e != s.epoch {
		for _, l := range s.pend {
			if s.lines[l] == linePending {
				delete(s.lines, l)
			}
		}
		s.pend, s.epoch = s.pend[:0], e
	}
}

func (t *Tracker) dirtyRange(o Obj, off, size uintptr) {
	for l, last := o.line(off), o.line(off+size-1); l <= last; l++ {
		s := t.shard(l)
		s.mu.Lock()
		if s.lines[l] != lineDirty { // also when pending: a store after clwb re-dirties the line
			s.lines[l] = lineDirty
			s.dirty.Add(1)
		}
		s.mu.Unlock()
	}
}

func (t *Tracker) flushRange(o Obj, off, size uintptr) {
	// Mark the epoch as written back. The load keeps every later
	// write-back of the same epoch from storing to the shared line.
	if e := t.epoch.Load() + 1; t.wrote.Load() != e {
		t.wrote.Store(e)
	}
	for l, last := o.line(off), o.line(off+size-1); l <= last; l++ {
		s := t.shard(l)
		t.hold(s)
		if s.lines[l] == lineDirty {
			s.lines[l] = linePending
			s.dirty.Add(-1)
			s.pend = append(s.pend, l)
		} else {
			t.cleanWBs.Add(1)
		}
		s.mu.Unlock()
	}
}

func (t *Tracker) fence() {
	if t.wrote.Load() != t.epoch.Add(1) {
		t.dryFences.Add(1)
	}
}

// DryFences returns the number of fences that ordered no write-back:
// none had been issued since the previous fence.
func (t *Tracker) DryFences() uint64 { return t.dryFences.Load() }

// CleanWriteBacks returns the number of line write-backs of lines that
// were not dirty: already written back, or never stored to.
func (t *Tracker) CleanWriteBacks() uint64 { return t.cleanWBs.Load() }

// Violation describes a durability failure at an operation boundary.
type Violation struct {
	Line uint64
	// Kind is "dirty" (stored, never clwb'd) or "pending" (clwb'd, never
	// fenced).
	Kind string
}

func (v Violation) String() string {
	return fmt.Sprintf("line %d left %s", v.Line, v.Kind)
}

// snapshot returns every line that is not durable at this instant.
func (t *Tracker) snapshot() map[uint64]lineState {
	out := make(map[uint64]lineState)
	for i := range t.shards {
		s := &t.shards[i]
		t.hold(s)
		for l, st := range s.lines {
			out[l] = st
		}
		s.mu.Unlock()
	}
	return out
}

// Check returns the lines that are not durable at this instant. A
// correctly converted index has an empty result at every operation
// boundary.
func (t *Tracker) Check() []Violation {
	var out []Violation
	for l, st := range t.snapshot() {
		out = append(out, Violation{Line: l, Kind: violationKinds[st]})
	}
	return out
}

// NotDurable returns the number of lines Check would report, without
// building the list: what an operation-boundary check needs. With no
// line dirty and a fence since the last write-back, every line a shard
// still holds is pending under a retired epoch, so the answer is 0
// without a lock.
func (t *Tracker) NotDurable() (n int) {
	if t.settled() {
		return 0
	}
	for i := range t.shards {
		s := &t.shards[i]
		t.hold(s)
		n += len(s.lines)
		s.mu.Unlock()
	}
	return n
}

// settled reports that no line is dirty and no write-back has followed
// the last fence.
func (t *Tracker) settled() bool {
	if t.wrote.Load() > t.epoch.Load() {
		return false
	}
	for i := range t.shards {
		if t.shards[i].dirty.Load() != 0 {
			return false
		}
	}
	return true
}

// Reset clears the shadow state (e.g. between test phases). The waste
// counts are cumulative, like the heap's Stats, and survive it.
func (t *Tracker) Reset() {
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		s.lines, s.pend = make(map[uint64]lineState), nil
		s.dirty.Store(0)
		s.mu.Unlock()
	}
}
