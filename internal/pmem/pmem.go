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
//   - Commit and FenceAt are Recipe's conversion actions built on them,
//     each naming the crash site that follows its block.
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

// line maps off to its line address. An offset past the allocation
// panics: it would address another object's lines.
func (o Obj) line(off uintptr) uint64 {
	if off >= uintptr(o.lines)*LineSize {
		o.pastEnd(off)
	}
	return o.base + uint64(off/LineSize)
}

// pastEnd panics out of line, so line stays cheap enough to inline.
func (o Obj) pastEnd(off uintptr) {
	panic(fmt.Sprintf("pmem: offset %d past a %d-line allocation", off, o.lines))
}

// Options configures a Heap.
type Options struct {
	// Track enables the durability tracker: every store, clwb and
	// allocation swaps one atomic state word per line (a fence is free).
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
	if h.llc != nil {
		// The cache model maps a line to its set by number, and a stack
		// address would make the numbers differ run to run: one shard
		// keeps a modelled run reproducible.
		k = 0
	}
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

// Commit is the action a committing store needs (Recipe Condition #1):
// it records the store to [off, off+size) of o, writes the range back,
// fences, and passes the crash site that follows the block ("" for
// none). An injector from crash.NewDropping that names site skips the
// write-back and the fence.
func (h *Heap) Commit(o Obj, off, size uintptr, site string) {
	h.Dirty(o, off, size)
	if !h.inj.Drops(site) {
		h.Persist(o, off, size)
		h.Fence()
	}
	h.CrashPoint(site)
}

// FenceAt fences the write-backs issued since the last fence, then
// passes crash site site ("" for none): the fence a block that writes
// back several ranges takes before the store that publishes them. An
// injector from crash.NewDropping that names site skips the fence.
func (h *Heap) FenceAt(site string) {
	if !h.inj.Drops(site) {
		h.Fence()
	}
	h.CrashPoint(site)
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
// the ordered atomic stores that make up an insert or SMO. The empty
// site is no site.
func (h *Heap) CrashPoint(site string) {
	if h.inj != nil && site != "" {
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

// lineState is a line's state as the tracker reports it; a durable line
// has none (0).
type lineState uint8

const (
	lineDirty   lineState = iota + 1 // stored to, not yet clwb'd
	linePending                      // clwb'd, not yet fenced
)

// violationKinds names each state as Violation.Kind reports it.
var violationKinds = [...]string{lineDirty: "dirty", linePending: "pending"}

// A line's state word is 0 when durable, wordDirty when dirty, and
// otherwise the stamp of the epoch it was written back in. Stamps cycle
// through stampPeriod values; the fence that starts each quarter of the
// cycle retires every stamp but its own epoch's, so no stamp comes round
// again while a line still holds it.
const (
	pageLines   = 4096 // lines per table page
	wordDirty   = ^uint32(0)
	stampPeriod = 1 << 31
	sweepEvery  = stampPeriod / 4
)

func stamp(epoch uint64) uint32 { return uint32(epoch%stampPeriod) + 1 }

type linePage [pageLines]atomic.Uint32

// Tracker is the shadow state behind the §5 durability test: it records
// which lines are dirty, which have been written back but not yet fenced,
// and reports any line that an operation left unprotected.
//
// A line address is a dense number from the heap's bump allocator, so a
// line's state is one atomic word of a paged table indexed by it: a
// store swaps the word to dirty, a write-back swaps dirty for the current
// epoch's stamp. A fence is one add to epoch and touches no line, so it
// costs the same on a heap of one line and of a million: a written-back
// line reads durable once the epoch has moved past its stamp, and a
// write-back racing a fence lands on one side of it.
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
	// dirty counts the words holding wordDirty, so a boundary check with
	// nothing dirty reads no page.
	dirty *stripe.Counter
	pages atomic.Pointer[[]*linePage]
	grow  sync.Mutex // serialises adding pages
}

func newTracker() *Tracker {
	t := &Tracker{dirty: stripe.NewCounter()}
	t.Reset()
	return t
}

// word returns line l's state word, adding the pages up to it on first
// touch.
func (t *Tracker) word(l uint64) *atomic.Uint32 {
	i, p := l/pageLines, *t.pages.Load()
	if i >= uint64(len(p)) {
		t.grow.Lock()
		q := *t.pages.Load()
		for i >= uint64(len(q)) {
			q = append(q, new(linePage))
		}
		t.pages.Store(&q)
		t.grow.Unlock()
		p = q
	}
	return &p[i][l%pageLines]
}

func (t *Tracker) dirtyRange(o Obj, off, size uintptr) {
	var n uint64
	for l, last := o.line(off), o.line(off+size-1); l <= last; l++ {
		if t.word(l).Swap(wordDirty) != wordDirty { // also when pending: a store after clwb re-dirties the line
			n++
		}
	}
	if n != 0 {
		t.dirty.Add(n)
	}
}

func (t *Tracker) flushRange(o Obj, off, size uintptr) {
	// Mark the epoch as written back. The load keeps every later
	// write-back of the same epoch from storing to the shared line.
	e := t.epoch.Load()
	if t.wrote.Load() != e+1 {
		t.wrote.Store(e + 1)
	}
	var n, clean uint64
	for l, last := o.line(off), o.line(off+size-1); l <= last; l++ {
		if t.word(l).CompareAndSwap(wordDirty, stamp(e)) {
			n++
		} else {
			clean++
		}
	}
	if n != 0 {
		t.dirty.Add(-n)
	}
	if clean != 0 {
		t.cleanWBs.Add(clean)
	}
}

func (t *Tracker) fence() {
	e := t.epoch.Add(1)
	if t.wrote.Load() != e {
		t.dryFences.Add(1)
	}
	if e%sweepEvery != 0 {
		return
	}
	// Every stamp but e's is durable. A write-back that read the epoch
	// before this fence and stores after the sweep passes it is retired
	// by the next sweep, a quarter of the cycle before its stamp recurs.
	for _, pg := range *t.pages.Load() {
		for j := range pg {
			if w := pg[j].Load(); w != 0 && w != wordDirty && w != stamp(e) {
				pg[j].CompareAndSwap(w, 0)
			}
		}
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

// scan calls f, in line order, for every line that is not durable at
// this instant. With no line dirty and a fence since the last
// write-back, there is none, and it reads no page.
func (t *Tracker) scan(f func(l uint64, st lineState)) {
	if t.wrote.Load() <= t.epoch.Load() && t.dirty.Load() == 0 {
		return
	}
	cur := stamp(t.epoch.Load())
	for i, pg := range *t.pages.Load() {
		for j := range pg {
			switch pg[j].Load() {
			case wordDirty:
				f(uint64(i*pageLines+j), lineDirty)
			case cur:
				f(uint64(i*pageLines+j), linePending)
			}
		}
	}
}

// snapshot returns every line that is not durable at this instant.
func (t *Tracker) snapshot() map[uint64]lineState {
	out := make(map[uint64]lineState)
	t.scan(func(l uint64, st lineState) { out[l] = st })
	return out
}

// Check returns the lines that are not durable at this instant, in line
// order. A correctly converted index has an empty result at every
// operation boundary.
func (t *Tracker) Check() (out []Violation) {
	t.scan(func(l uint64, st lineState) { out = append(out, Violation{l, violationKinds[st]}) })
	return out
}

// NotDurable returns the number of lines Check would report, without
// building the list: what an operation-boundary check needs.
func (t *Tracker) NotDurable() (n int) {
	t.scan(func(uint64, lineState) { n++ })
	return n
}

// Reset clears the shadow state (e.g. between test phases), dropping
// the table. The waste counts are cumulative, like the heap's Stats, and
// survive it.
func (t *Tracker) Reset() {
	t.pages.Store(new([]*linePage))
	t.dirty.Reset()
}
