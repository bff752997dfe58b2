package pmem

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// eagerTracker is the reference model the lazy Tracker is held to: the
// tracker as it was before fences became an epoch bump — a dirty set, a
// pending set, and a fence that empties the pending set on the spot —
// plus a flag and two counters for the waste counts. Unsharded and
// unlocked: the tests drive it from one goroutine.
type eagerTracker struct {
	dirty, pending map[uint64]bool
	wrote          bool // a write-back since the last fence
	dry, clean     uint64
}

func newEagerTracker() *eagerTracker {
	return &eagerTracker{dirty: map[uint64]bool{}, pending: map[uint64]bool{}}
}

func (t *eagerTracker) dirtyRange(o Obj, off, size uintptr) {
	for l, last := o.line(off), o.line(off+size-1); l <= last; l++ {
		t.dirty[l] = true
		delete(t.pending, l)
	}
}

func (t *eagerTracker) flushRange(o Obj, off, size uintptr) {
	t.wrote = true
	for l, last := o.line(off), o.line(off+size-1); l <= last; l++ {
		if t.dirty[l] {
			delete(t.dirty, l)
			t.pending[l] = true
		} else {
			t.clean++
		}
	}
}

func (t *eagerTracker) fence() {
	if !t.wrote {
		t.dry++
	}
	t.pending, t.wrote = map[uint64]bool{}, false
}

// reset clears the line sets; the waste counts are cumulative, like the
// heap's Stats, and survive it.
func (t *eagerTracker) reset() { t.dirty, t.pending = map[uint64]bool{}, map[uint64]bool{} }

func (t *eagerTracker) snapshot() map[uint64]lineState {
	out := make(map[uint64]lineState)
	for l := range t.dirty {
		out[l] = lineDirty
	}
	for l := range t.pending {
		out[l] = linePending
	}
	return out
}

// tainted mirrors shadowState.captureTainted: a whole-object capture
// that includes a line held dirty outside the persisted range.
func (t *eagerTracker) tainted(o Obj, off, size uintptr) bool {
	first, last := o.line(off), o.line(off+size-1)
	for l := o.base; l < o.base+uint64(o.lines); l++ {
		if (l < first || l > last) && t.dirty[l] {
			return true
		}
	}
	return false
}

// checkAgainst compares every observable answer of the heap's tracker
// with the model's: the snapshot a power cycle classifies by, Check's
// violation set and NotDurable's count of it.
func checkAgainst(t *testing.T, step int, what string, h *Heap, model *eagerTracker) {
	t.Helper()
	want := model.snapshot()
	if got := h.Tracker().snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("step %d (%s): snapshot diverged\n got  %v\n want %v", step, what, got, want)
	}
	got := make(map[uint64]lineState)
	for _, v := range h.Tracker().Check() {
		if _, dup := got[v.Line]; dup {
			t.Fatalf("step %d (%s): Check reports line %d twice", step, what, v.Line)
		}
		switch v.Kind {
		case "dirty":
			got[v.Line] = lineDirty
		case "pending":
			got[v.Line] = linePending
		default:
			t.Fatalf("step %d (%s): Check reports kind %q", step, what, v.Kind)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("step %d (%s): Check diverged\n got  %v\n want %v", step, what, got, want)
	}
	if n := h.Tracker().NotDurable(); n != len(want) {
		t.Fatalf("step %d (%s): NotDurable = %d, model holds %d lines", step, what, n, len(want))
	}
	tr := h.Tracker()
	if tr.DryFences() != model.dry || tr.CleanWriteBacks() != model.clean {
		t.Fatalf("step %d (%s): waste diverged: dry %d clean %d, model says %d, %d",
			step, what, tr.DryFences(), tr.CleanWriteBacks(), model.dry, model.clean)
	}
}

// TestTrackerCountsWaste: a fence with no write-back since the previous
// one is dry, a write-back of a line not held dirty is clean, and a
// fence after any write-back — even a clean one — is not dry.
func TestTrackerCountsWaste(t *testing.T) {
	h := New(Options{Track: true})
	defer h.Release()
	tr := h.Tracker()
	o := h.Alloc(2 * LineSize)
	want := func(step string, dry, clean uint64) {
		t.Helper()
		if tr.DryFences() != dry || tr.CleanWriteBacks() != clean {
			t.Fatalf("%s: dry %d clean %d, want %d, %d", step, tr.DryFences(), tr.CleanWriteBacks(), dry, clean)
		}
	}
	h.Fence()
	want("fence with nothing written back", 1, 0)
	h.Persist(o, 0, LineSize)
	h.Fence()
	want("write-back of an allocated line, then its fence", 1, 0)
	h.Persist(o, 0, LineSize)
	want("write-back of a durable line", 1, 1)
	h.Dirty(o, LineSize, 8)
	h.Persist(o, LineSize, 8)
	h.Persist(o, LineSize, 8)
	want("second write-back of a pending line", 1, 2)
	h.Fence()
	want("fence after write-backs, clean ones included", 1, 2)
	h.Fence()
	want("fence right after a fence", 2, 2)
}

// TestTrackerMatchesEagerModel drives a heap and the reference model
// with the same seeded random sequence of Alloc / Dirty / Persist /
// Fence / Reset and fence-group calls (and PowerCycle under Shadow),
// and requires identical answers after every step. The model's fences
// are taken from the heap's own fence counter, so a fence the group
// mode defers, materialises or elides is mirrored exactly when the
// heap's tracker sees it.
func TestTrackerMatchesEagerModel(t *testing.T) {
	for _, shadow := range []bool{false, true} {
		for seed := int64(1); seed <= 5; seed++ {
			t.Run(fmt.Sprintf("shadow=%v/seed=%d", shadow, seed), func(t *testing.T) {
				runTrackerSequence(t, shadow, seed, 1500)
			})
		}
	}
}

func runTrackerSequence(t *testing.T, shadow bool, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	h := New(Options{Track: true, Shadow: shadow})
	defer h.Release()
	model := newEagerTracker()
	var (
		objs     []Obj
		sizes    []uintptr
		tainted  uint64 // model's running count of tainted captures
		shadowed = map[uint64]bool{}
	)
	// span picks a non-empty byte range of object i.
	span := func(i int) (off, size uintptr) {
		off = uintptr(rng.Intn(int(sizes[i])))
		return off, 1 + uintptr(rng.Intn(int(sizes[i]-off)))
	}
	for step := 0; step < steps; step++ {
		fences := h.Stats().Fence
		// mirrorFences replays on the model the fences the heap's tracker
		// has seen since the step began.
		mirrorFences := func() {
			for now := h.Stats().Fence; fences < now; fences++ {
				model.fence()
			}
		}
		var what string
		switch r := rng.Intn(100); {
		case r < 15 || len(objs) == 0:
			what = "Alloc"
			size := uintptr(1 + rng.Intn(5*LineSize))
			o := h.Alloc(size)
			model.dirtyRange(o, 0, size)
			objs, sizes = append(objs, o), append(sizes, size)
			if shadow && rng.Intn(2) == 0 {
				h.Shadow(o, new([5 * LineSize]byte))
				shadowed[o.base] = true
			}
		case r < 45:
			what = "Dirty"
			i := rng.Intn(len(objs))
			off, size := span(i)
			h.Dirty(objs[i], off, size)
			model.dirtyRange(objs[i], off, size)
		case r < 75:
			what = "Persist"
			i := rng.Intn(len(objs))
			off, size := span(i)
			h.Persist(objs[i], off, size)
			mirrorFences() // a deferred fence retires before the write-back
			if shadowed[objs[i].base] && model.tainted(objs[i], off, size) {
				tainted++
			}
			model.flushRange(objs[i], off, size)
		case r < 88:
			what = "Fence"
			h.Fence()
		case r < 91:
			what = "FenceBarrier"
			h.FenceBarrier()
		case r < 94:
			if h.GroupActive() {
				what = "GroupOpBoundary"
				h.GroupOpBoundary()
			} else {
				what = "BeginFenceGroup"
				h.BeginFenceGroup()
			}
		case r < 96:
			if h.GroupActive() {
				what = "EndFenceGroup"
				h.EndFenceGroup()
			} else {
				what = "AbortFenceGroup"
				h.AbortFenceGroup()
			}
		case r < 98:
			what = "Reset"
			h.Tracker().Reset()
			model.reset()
		default:
			if !shadow {
				continue
			}
			what = "PowerCycle"
			rep := h.PowerCycle(Policies[rng.Intn(len(Policies))], seed)
			if rep.TaintedCaptures != tainted {
				t.Fatalf("step %d: TaintedCaptures = %d, model says %d", step, rep.TaintedCaptures, tainted)
			}
			model.reset()
		}
		mirrorFences()
		checkAgainst(t, step, what, h, model)
	}
}

// TestTrackerFenceRetiresOnlyEarlierWriteBacks: line X is written back
// and fenced, then line Y is written back and not fenced. The fence made
// X durable and must leave Y pending; a store to X after its fence
// re-dirties it, and the next fence retires Y but not X.
func TestTrackerFenceRetiresOnlyEarlierWriteBacks(t *testing.T) {
	h := New(Options{Track: true})
	tr := h.Tracker()
	x, y := h.Alloc(LineSize), h.Alloc(LineSize)
	h.Persist(x, 0, LineSize) // X pending in epoch e
	h.Fence()                 // X durable
	h.Persist(y, 0, LineSize) // Y pending in epoch e+1
	v := tr.Check()
	if len(v) != 1 || v[0].Line != y.base || v[0].Kind != "pending" {
		t.Fatalf("want only line %d pending, got %v", y.base, v)
	}
	h.Dirty(x, 0, 8) // re-dirtied after its fence: must not read durable
	h.Fence()
	v = tr.Check()
	if len(v) != 1 || v[0].Line != x.base || v[0].Kind != "dirty" {
		t.Fatalf("want only line %d dirty, got %v", x.base, v)
	}
}

// TestTrackerStampWrap drives the epoch across every sweep point of the
// stamp cycle and across its wrap, against the eager model. Storing the
// epoch stands in for the fences between two sweep points, none of which
// sweeps, so the test stops just below each one: write back, fence,
// write back again, fence. Line X, durable since epoch 1, shares its
// stamp with the epoch after the wrap; a wrapped stamp must never turn
// it pending again.
func TestTrackerStampWrap(t *testing.T) {
	h := New(Options{Track: true})
	defer h.Release()
	model := newEagerTracker()
	x, y := h.Alloc(LineSize), h.Alloc(LineSize)
	model.dirtyRange(x, 0, LineSize)
	model.dirtyRange(y, 0, LineSize)
	step := 0
	do := func(what string, f func()) {
		t.Helper()
		f()
		checkAgainst(t, step, what, h, model)
		step++
	}
	writeBack := func(o Obj) func() {
		return func() { h.Persist(o, 0, LineSize); model.flushRange(o, 0, LineSize) }
	}
	fence := func() { h.Fence(); model.fence() }
	do("write back X", writeBack(x))
	do("fence", fence)
	for b := uint64(sweepEvery); b <= 2*stampPeriod; b += sweepEvery {
		h.Tracker().epoch.Store(b - 1)
		do("write back Y below the sweep point", writeBack(y))
		do("fence onto the sweep point", fence)
		do("store to Y", func() { h.Dirty(y, 0, 8); model.dirtyRange(y, 0, 8) })
		do("write back Y again", writeBack(y))
		do("fence past the sweep point", fence)
	}
}

// BenchmarkTrackerPersistFence is BenchmarkPersistFenceFastHeap on a
// Track heap whose tracker has already seen `tracked` other lines go
// dirty → pending → durable. ns/op must not depend on that number: a
// fence is an epoch bump, and a store or write-back touches its own
// lines' words only.
func BenchmarkTrackerPersistFence(b *testing.B) {
	for _, tracked := range []int{1, 1_000, 1_000_000} {
		b.Run(fmt.Sprintf("tracked=%d", tracked), func(b *testing.B) {
			h := New(Options{Track: true})
			defer h.Release()
			size := uintptr(tracked) * LineSize
			h.PersistFence(h.Alloc(size), 0, size)
			o := h.Alloc(64)
			h.PersistFence(o, 0, 64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Dirty(o, 0, 8)
				h.PersistFence(o, 0, 8)
			}
		})
	}
}
