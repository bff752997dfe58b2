// Lossy power-failure emulation: the shadow image layer behind
// Heap.PowerCycle.
//
// The §5 crash methodology (internal/crash) simulates a crash by
// unwinding an operation mid-way with every store still visible — a
// model in which a missing clwb or fence can only ever surface as a
// Tracker report, never as actual data loss. Real faulty-PM models
// (Ben-David et al., "Delay-Free Concurrency on Faulty Persistent
// Memory") define a crash as losing exactly the cache lines that were
// never written back and fenced. This file adds that stronger model.
//
// Go gives the heap no view of index node bytes: nodes are ordinary Go
// structs and the heap's Obj handles map them onto abstract line
// addresses with no byte-level correspondence (the simulated persistent
// layout is an idealised C layout, not the Go struct layout). So the
// shadow layer works at the granularity the heap can reason about — the
// allocation — and asks each index to register, next to every Alloc,
// the Go object that allocation models:
//
//   - Shadow(obj, ptr) registers a struct-backed allocation (a node).
//     Its image is one typed shallow copy of the struct.
//   - ShadowSlice(obj, slice, elemBytes) registers a slice-backed
//     allocation (a bucket array, a mapping table) together with the
//     abstract layout's element stride. Because the stride gives a real
//     offset→element correspondence, slice-backed objects are shadowed
//     per element range, not per allocation.
//
// In shadow mode every Persist captures a typed image of the covered
// object (or element range) — the content clwb wrote back — and every
// Fence promotes the images captured since the previous fence to the
// durable baseline. PowerCycle then materialises a post-power-loss
// image: objects with stores that were never written back revert to
// their durable baseline (or to the zero value if they never had one),
// and objects with written-back-but-unfenced state follow the policy.
// PolicyIntact is the §5 image, in which nothing is lost: the cycle
// only adopts the current content as durable and restarts the tracker,
// so one trial protocol serves the tracker-only check and the lossy
// images alike.
// The images are typed copies made and restored through reflect, so
// pointers inside them stay visible to the garbage collector and
// restores go through the runtime's write barriers; the registry keeps
// every allocation ever registered alive, so a restored stale pointer
// always points at live memory.
//
// Precision: a line that is stored to but never written back is lost
// exactly when no *later* Persist of the same allocation re-captures
// it. Capturing whole objects means a missing clwb on line A can hide
// behind a later clwb+fence of line B of the same small node; the
// Tracker still reports such lines as dirty violations, and the capture
// records the taint (CycleReport.TaintedCaptures). Slice-backed
// registrations do not have this imprecision across elements outside
// the persisted range.
//
// Shadow mode is a testing mode, like Track: it serialises captures on
// one mutex and copies node images on every Persist. Campaigns drive
// the tracked phase single-threaded. PowerCycle must not run
// concurrently with index operations.
package pmem

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
)

// Policy selects what a power cycle does with lines that were written
// back (clwb) but not yet fenced at the instant of the crash. Lines
// that were stored to and never written back revert under every policy
// but PolicyIntact — no real power loss can save data that never left
// the cache.
type Policy int

const (
	// PolicyIntact loses nothing: the §5 crash, which unwinds an
	// operation with every store still visible. A missing clwb or fence
	// can only surface as a Tracker violation under it.
	PolicyIntact Policy = iota
	// PolicyRevert loses written-back-but-unfenced state: the adversarial
	// reading of the persistence contract (the fence had not retired, so
	// nothing it would have ordered is guaranteed).
	PolicyRevert
	// PolicyKeep retains written-back-but-unfenced state: the friendly
	// reading (clwb had already pushed the line to the memory controller).
	PolicyKeep
	// PolicyTorn flips a seeded coin per affected object (per element
	// range for slice-backed registrations) between revert and keep —
	// a torn image in which some unfenced lines survived and others did
	// not, the hardest image a recovery path has to face.
	PolicyTorn
)

// Policies lists all power-cycle policies, in definition order.
var Policies = []Policy{PolicyIntact, PolicyRevert, PolicyKeep, PolicyTorn}

func (p Policy) String() string {
	switch p {
	case PolicyIntact:
		return "intact"
	case PolicyRevert:
		return "revert"
	case PolicyKeep:
		return "keep"
	case PolicyTorn:
		return "torn"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy parses "intact", "revert", "keep" or "torn".
func ParsePolicy(s string) (Policy, error) {
	for _, p := range Policies {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("pmem: unknown power-cycle policy %q (want intact, revert, keep or torn)", s)
}

// CycleReport describes what one PowerCycle did.
type CycleReport struct {
	// Policy is the policy the cycle applied.
	Policy Policy
	// Seed drove the torn policy's coin flips.
	Seed int64
	// Objects is the number of registered shadow objects (slice-backed
	// registrations count once).
	Objects int
	// Reverted counts objects (or slice element ranges) restored to
	// their durable baseline because they held never-written-back
	// stores, plus unfenced ones the policy chose to lose.
	Reverted int
	// Kept counts objects (or slice element ranges) whose
	// written-back-but-unfenced state the policy let survive.
	Kept int
	// ZeroFilled counts reverted objects that had no durable baseline at
	// all — they were allocated and stored to but never persisted, so
	// the power loss leaves them as uninitialised (zero) memory. For a
	// correctly converted index this is always 0 for reachable nodes.
	ZeroFilled int
	// TaintedCaptures counts Persist captures that included lines the
	// Tracker held dirty outside the persisted range — the whole-object
	// imprecision documented above. The Tracker reports those lines as
	// violations in their own right.
	TaintedCaptures uint64
}

func (r CycleReport) String() string {
	return fmt.Sprintf("policy=%s objs=%d reverted=%d kept=%d zeroFilled=%d tainted=%d",
		r.Policy, r.Objects, r.Reverted, r.Kept, r.ZeroFilled, r.TaintedCaptures)
}

// shadowObj is one registered allocation.
type shadowObj struct {
	obj Obj

	// Struct-backed registrations: target is the addressable registered
	// value; durable and pending are typed copies (invalid Value = none).
	target  reflect.Value
	durable reflect.Value
	pending reflect.Value

	// Slice-backed registrations: slice is the registered slice value,
	// elemBytes the abstract stride, durableS a same-length baseline
	// slice, pendingR the element ranges captured since the last fence.
	slice     reflect.Value
	elemBytes uintptr
	durableS  reflect.Value
	pendingR  []pendRange

	// queued marks the object as waiting in the fence-promotion queue.
	queued bool
}

type pendRange struct {
	lo, hi int // element indices [lo, hi)
	img    reflect.Value
}

func (s *shadowObj) isSlice() bool { return s.elemBytes != 0 }

// shadowState is a heap's shadow registry. All mutation happens under
// mu; shadow mode is a single-writer testing mode, so the lock is
// uncontended in practice.
type shadowState struct {
	mu      sync.Mutex
	objs    map[uint64]*shadowObj // keyed by Obj base line
	queue   []*shadowObj          // captured since the last fence
	tainted uint64
}

func newShadowState() *shadowState {
	return &shadowState{objs: make(map[uint64]*shadowObj)}
}

// ShadowEnabled reports whether the heap keeps shadow images
// (Options.Shadow).
func (h *Heap) ShadowEnabled() bool { return h.shadow != nil }

// Shadow registers ptr — a non-nil pointer to the Go object that
// allocation o models — as o's backing memory for lossy power-failure
// emulation. Indexes call it immediately after Alloc, before the first
// Persist of the object; it is a nil-check no-op unless the heap was
// built with Options.Shadow. The registry keeps ptr's target alive for
// the life of the heap, so restoring a stale image can never resurrect
// a collected pointer.
func (h *Heap) Shadow(o Obj, ptr any) {
	if h.shadow == nil || !o.Valid() {
		return
	}
	v := reflect.ValueOf(ptr)
	if v.Kind() != reflect.Pointer || v.IsNil() {
		panic("pmem: Shadow needs a non-nil pointer")
	}
	s := h.shadow
	s.mu.Lock()
	s.objs[o.base] = &shadowObj{obj: o, target: v.Elem()}
	s.mu.Unlock()
}

// ShadowSlice registers slice — the Go slice that allocation o models,
// laid out at elemBytes abstract bytes per element — for lossy
// power-failure emulation. Because the stride ties abstract offsets to
// elements, slice-backed objects are captured and restored per element
// range: a Persist of [off, off+size) shadows exactly the elements it
// covers. The durable baseline starts as the zero value of every
// element, matching Alloc's lines-start-dirty contract.
func (h *Heap) ShadowSlice(o Obj, slice any, elemBytes uintptr) {
	if h.shadow == nil || !o.Valid() {
		return
	}
	v := reflect.ValueOf(slice)
	if v.Kind() != reflect.Slice {
		panic("pmem: ShadowSlice needs a slice")
	}
	if elemBytes == 0 {
		panic("pmem: ShadowSlice needs a non-zero element stride")
	}
	base := reflect.MakeSlice(v.Type(), v.Len(), v.Len())
	s := h.shadow
	s.mu.Lock()
	s.objs[o.base] = &shadowObj{obj: o, slice: v, elemBytes: elemBytes, durableS: base}
	s.mu.Unlock()
}

// capture records the image clwb wrote back: the registered object's
// content (or, for slice-backed objects, the persisted element range's
// content) at the instant of the Persist call. Promotion to the durable
// baseline happens at the next Fence.
func (s *shadowState) capture(o Obj, off, size uintptr, t *Tracker) {
	s.mu.Lock()
	defer s.mu.Unlock()
	so, ok := s.objs[o.base]
	if !ok {
		return
	}
	if t != nil && s.captureTainted(so, o, off, size, t) {
		s.tainted++
	}
	if so.isSlice() {
		lo, hi := so.elemRange(off, size)
		if hi > lo {
			img := reflect.MakeSlice(so.slice.Type(), hi-lo, hi-lo)
			reflect.Copy(img, so.slice.Slice(lo, hi))
			so.pendingR = append(so.pendingR, pendRange{lo: lo, hi: hi, img: img})
		}
	} else {
		if !so.pending.IsValid() {
			so.pending = reflect.New(so.target.Type()).Elem()
		}
		so.pending.Set(so.target)
	}
	if !so.queued {
		so.queued = true
		s.queue = append(s.queue, so)
	}
}

// captureTainted reports whether the capture includes lines the tracker
// holds dirty outside the persisted range — for struct-backed objects,
// whose image is the whole object.
func (s *shadowState) captureTainted(so *shadowObj, o Obj, off, size uintptr, t *Tracker) bool {
	if so.isSlice() {
		return false // slice captures cover exactly the persisted range
	}
	first, last := o.line(off), o.line(off+size-1)
	for l := o.base; l < o.base+uint64(o.lines); l++ {
		if l >= first && l <= last {
			continue
		}
		sh := t.shard(l)
		sh.mu.Lock()
		d := sh.lines[l] == lineDirty
		sh.mu.Unlock()
		if d {
			return true
		}
	}
	return false
}

// elemRange maps an abstract byte range of the allocation to the slice
// elements it covers, clamped to the slice length.
func (so *shadowObj) elemRange(off, size uintptr) (lo, hi int) {
	lo = int(off / so.elemBytes)
	hi = int((off + size + so.elemBytes - 1) / so.elemBytes)
	if n := so.slice.Len(); hi > n {
		hi = n
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// promote makes every image captured since the previous fence the
// durable baseline — the clwb'd content is now guaranteed on media.
func (s *shadowState) promote() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, so := range s.queue {
		if so.isSlice() {
			for _, p := range so.pendingR {
				reflect.Copy(so.durableS.Slice(p.lo, p.hi), p.img)
			}
			so.pendingR = so.pendingR[:0]
		} else {
			if !so.durable.IsValid() {
				so.durable = reflect.New(so.target.Type()).Elem()
			}
			so.durable.Set(so.pending)
		}
		so.queued = false
	}
	s.queue = s.queue[:0]
}

// rangeState folds the tracker snapshot over a line range.
func rangeState(lines map[uint64]lineState, first, last uint64) (dirty, pending bool) {
	for l := first; l <= last; l++ {
		switch lines[l] {
		case lineDirty:
			// Dirty dominates the classification; pending no longer
			// matters to the caller.
			return true, pending
		case linePending:
			pending = true
		}
	}
	return false, pending
}

// decide resolves the fate of non-durable state: PolicyIntact keeps
// everything; otherwise never-written-back stores are lost and
// written-back-but-unfenced state follows the policy.
func decide(dirty bool, policy Policy, rng *rand.Rand) (lose bool) {
	switch {
	case policy == PolicyIntact:
		return false
	case dirty:
		return true
	case policy == PolicyKeep:
		return false
	case policy == PolicyTorn:
		return rng.Intn(2) == 0
	}
	return true // PolicyRevert
}

// PowerCycle materialises a true post-power-loss image of every
// registered shadow object and resets the durability tracker to the
// clean post-restart state. State that was stored but never written
// back reverts to the durable baseline under every policy but
// PolicyIntact; state that was written back but not fenced reverts,
// survives, or is torn per-object (per element for slice-backed
// registrations) according to policy. The torn coin flips are driven by seed alone, so a cycle is
// deterministic for a fixed seed and operation history. It must not be
// called concurrently with index operations; the caller runs the
// index's Recover afterwards, exactly as a restart would. PolicyIntact
// keeps every store, so on a Track heap without Shadow the cycle only
// resets the tracker; the lossy policies need Shadow.
func (h *Heap) PowerCycle(policy Policy, seed int64) CycleReport {
	// A power loss ends any fence group mid-batch: the group's unfenced
	// lines are already in the tracker's pending/dirty sets and get
	// classified below; the mode itself does not survive the restart.
	h.AbortFenceGroup()
	rep := CycleReport{Policy: policy, Seed: seed}
	s := h.shadow
	if s == nil {
		if policy != PolicyIntact {
			panic("pmem: a lossy PowerCycle requires a heap with Options.Shadow")
		}
		h.tracker.Reset()
		return rep
	}
	rng := rand.New(rand.NewSource(seed))
	// Only the crashed operation's working set is still non-durable, so
	// the cycle costs in proportion to the damage, not to the heap size.
	lines := h.tracker.snapshot()

	s.mu.Lock()
	rep.Objects = len(s.objs)
	rep.TaintedCaptures = s.tainted

	// Map the affected lines back to their owning objects so the cycle
	// only touches what the crash actually left in flight. Objects are
	// processed in base-address order for deterministic torn flips.
	bases := make([]uint64, 0, len(s.objs))
	for b := range s.objs {
		bases = append(bases, b)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	hit := make(map[uint64]bool)
	for l := range lines {
		// Owning object: the registration with the largest base ≤ l that
		// still spans l. Lines of unregistered allocations are skipped.
		i := sort.Search(len(bases), func(i int) bool { return bases[i] > l }) - 1
		if i < 0 {
			continue
		}
		if so := s.objs[bases[i]]; l < so.obj.base+uint64(so.obj.lines) {
			hit[bases[i]] = true
		}
	}
	for _, b := range bases {
		if !hit[b] {
			continue
		}
		so := s.objs[b]
		if so.isSlice() {
			h.cycleSlice(so, policy, rng, lines, &rep)
		} else {
			h.cycleStruct(so, policy, rng, lines, &rep)
		}
	}
	// Clear capture state everywhere: post-restart there is nothing
	// in flight.
	for _, so := range s.queue {
		so.pending = reflect.Value{}
		so.pendingR = so.pendingR[:0]
		so.queued = false
	}
	s.queue = s.queue[:0]
	s.mu.Unlock()

	// The restored image is, by construction, durable: restart leaves
	// nothing dirty or pending.
	h.tracker.Reset()
	return rep
}

// cycleStruct applies the power-loss decision to one struct-backed
// object that the snapshot marked as affected.
func (h *Heap) cycleStruct(so *shadowObj, policy Policy, rng *rand.Rand, lines map[uint64]lineState, rep *CycleReport) {
	dirty, pending := rangeState(lines, so.obj.base, so.obj.base+uint64(so.obj.lines)-1)
	if !dirty && !pending {
		return // fully durable: the current content is the PM content
	}
	if !decide(dirty, policy, rng) {
		// The unfenced write-back survived the power loss; it is durable
		// in the post-cycle world.
		rep.Kept++
		if !so.durable.IsValid() {
			so.durable = reflect.New(so.target.Type()).Elem()
		}
		so.durable.Set(so.target)
		return
	}
	rep.Reverted++
	if so.durable.IsValid() {
		so.target.Set(so.durable)
	} else {
		// Never persisted at all: power loss leaves uninitialised memory,
		// modelled as the zero value.
		rep.ZeroFilled++
		so.target.Set(reflect.Zero(so.target.Type()))
	}
}

// cycleSlice applies the power-loss decision per affected element of
// one slice-backed object. An element's fate is decided over all the
// lines it spans; elements sharing a line share those lines' state,
// exactly as the hardware loses whole lines.
func (h *Heap) cycleSlice(so *shadowObj, policy Policy, rng *rand.Rand, lines map[uint64]lineState, rep *CycleReport) {
	// Affected elements: those overlapping any affected line of this
	// object, in ascending order for deterministic torn flips.
	maxLine := so.obj.base + uint64(so.obj.lines) - 1
	elems := make(map[int]bool)
	for l := range lines {
		if l < so.obj.base || l > maxLine {
			continue
		}
		off := uintptr(l-so.obj.base) * LineSize
		lo, hi := so.elemRange(off, LineSize)
		for e := lo; e < hi; e++ {
			elems[e] = true
		}
	}
	order := make([]int, 0, len(elems))
	for e := range elems {
		order = append(order, e)
	}
	sort.Ints(order)
	for _, e := range order {
		lo := uintptr(e) * so.elemBytes
		first, last := so.obj.line(lo), so.obj.line(lo+so.elemBytes-1)
		if last > maxLine {
			last = maxLine
		}
		dirty, pending := rangeState(lines, first, last)
		if !dirty && !pending {
			continue
		}
		if !decide(dirty, policy, rng) {
			rep.Kept++
			reflect.Copy(so.durableS.Slice(e, e+1), so.slice.Slice(e, e+1))
			continue
		}
		rep.Reverted++
		reflect.Copy(so.slice.Slice(e, e+1), so.durableS.Slice(e, e+1))
	}
}
