package pmem

import (
	"testing"
)

// node is a toy persistent struct for shadow tests: two "fields" the
// tests store to and persist independently.
type node struct {
	a, b uint64
	next *node
}

func shadowHeap() *Heap { return New(Options{Shadow: true}) }

func TestParsePolicy(t *testing.T) {
	for _, p := range Policies {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatalf("ParsePolicy(bogus) succeeded")
	}
}

// A stored-but-never-persisted object reverts to its durable image
// under every lossy policy — no clwb means the line never left the
// cache — and survives only the intact image, which loses nothing.
func TestPowerCycleRevertsDirty(t *testing.T) {
	for _, p := range Policies {
		h := shadowHeap()
		n := &node{}
		o := h.Alloc(24)
		h.Shadow(o, n)
		n.a, n.b = 1, 2
		h.Dirty(o, 0, 16)
		h.PersistFence(o, 0, 16) // durable baseline {1, 2}

		n.a = 99
		h.Dirty(o, 0, 8) // stored, never clwb'd

		rep := h.PowerCycle(p, 1)
		wantA, reverted := uint64(1), 1
		if p == PolicyIntact {
			wantA, reverted = 99, 0
		}
		if n.a != wantA || n.b != 2 {
			t.Fatalf("policy %v: got {%d,%d}, want {%d,2}", p, n.a, n.b, wantA)
		}
		if rep.Reverted != reverted || rep.Kept != 1-reverted || rep.ZeroFilled != 0 {
			t.Fatalf("policy %v: report %v", p, rep)
		}
		h.Release()
	}
}

// A clwb'd-but-unfenced object follows the policy: revert loses it,
// keep retains it, torn flips a seeded coin.
func TestPowerCyclePolicyOnPending(t *testing.T) {
	build := func() (*Heap, *node) {
		h := shadowHeap()
		n := &node{}
		o := h.Alloc(24)
		h.Shadow(o, n)
		n.a = 1
		h.Dirty(o, 0, 8)
		h.PersistFence(o, 0, 8) // durable baseline {1}

		n.a = 2
		h.Dirty(o, 0, 8)
		h.Persist(o, 0, 8) // clwb'd, no fence
		return h, n
	}

	h, n := build()
	rep := h.PowerCycle(PolicyRevert, 1)
	if n.a != 1 || rep.Reverted != 1 {
		t.Fatalf("revert: a=%d report=%v", n.a, rep)
	}
	h.Release()

	h, n = build()
	rep = h.PowerCycle(PolicyKeep, 1)
	if n.a != 2 || rep.Kept != 1 {
		t.Fatalf("keep: a=%d report=%v", n.a, rep)
	}
	// Kept state is durable in the post-cycle world: a second cycle with
	// no new stores must not lose it.
	rep = h.PowerCycle(PolicyRevert, 2)
	if n.a != 2 || rep.Reverted != 0 {
		t.Fatalf("keep then revert: a=%d report=%v", n.a, rep)
	}
	h.Release()

	// Torn: deterministic for a fixed seed, and both outcomes reachable
	// across seeds.
	outcomes := map[uint64]bool{}
	for seed := int64(0); seed < 8; seed++ {
		h, n = build()
		first := h.PowerCycle(PolicyTorn, seed)
		got := n.a
		outcomes[got] = true
		h.Release()
		h, n = build()
		h.PowerCycle(PolicyTorn, seed)
		if n.a != got {
			t.Fatalf("torn seed %d not deterministic: %d then %d", seed, got, n.a)
		}
		_ = first
		h.Release()
	}
	if !outcomes[1] || !outcomes[2] {
		t.Fatalf("torn never produced both outcomes across seeds: %v", outcomes)
	}
}

// An object that was allocated and stored to but never persisted at all
// zero-fills on power loss — there is no durable image to revert to.
func TestPowerCycleZeroFillsNeverPersisted(t *testing.T) {
	h := shadowHeap()
	n := &node{a: 7, b: 8}
	o := h.Alloc(24)
	h.Shadow(o, n)
	h.Dirty(o, 0, 16)

	rep := h.PowerCycle(PolicyKeep, 1)
	if n.a != 0 || n.b != 0 {
		t.Fatalf("got {%d,%d}, want zero fill", n.a, n.b)
	}
	if rep.ZeroFilled != 1 {
		t.Fatalf("report %v, want ZeroFilled=1", rep)
	}
	h.Release()
}

// A fully durable object is untouched by any policy, and links restored
// from a durable image still point at live memory (the registry keeps
// every registered allocation alive).
func TestPowerCycleDurableUntouchedAndLinksSurvive(t *testing.T) {
	h := shadowHeap()
	child := &node{a: 42}
	oc := h.Alloc(24)
	h.Shadow(oc, child)
	h.Dirty(oc, 0, 8)
	h.PersistFence(oc, 0, 8)

	parent := &node{next: child}
	op := h.Alloc(24)
	h.Shadow(op, parent)
	h.Dirty(op, 0, 24)
	h.PersistFence(op, 0, 24) // durable: parent -> child

	// Unlink the child without persisting the unlink.
	parent.next = nil
	h.Dirty(op, 16, 8)

	rep := h.PowerCycle(PolicyRevert, 1)
	if rep.Reverted != 1 {
		t.Fatalf("report %v, want exactly the parent reverted", rep)
	}
	if parent.next != child || parent.next.a != 42 {
		t.Fatalf("durable link did not survive: next=%v", parent.next)
	}
	h.Release()
}

// Slice-backed registration: only the persisted element range is
// shadowed, and power loss is applied per element. The stride here is
// one full line so each element fails independently; elements sharing a
// line fail together, exactly as the hardware loses whole lines (see
// TestPowerCycleSliceSharedLine).
func TestPowerCycleSliceElements(t *testing.T) {
	h := shadowHeap()
	const elems = 8
	const stride = LineSize
	tab := make([]uint64, elems)
	o := h.Alloc(elems * stride)
	h.ShadowSlice(o, tab, stride)
	// Fresh allocations start dirty; persist the zeroed table once, as
	// index code does, so the durable baseline covers every element.
	h.PersistFence(o, 0, elems*stride)

	// Persist a baseline for elements 0..3 only.
	for i := 0; i < 4; i++ {
		tab[i] = uint64(i + 1)
		h.Dirty(o, uintptr(i)*stride, 8)
		h.Persist(o, uintptr(i)*stride, 8)
	}
	h.Fence()

	// Element 1: store, never clwb'd -> must revert to baseline.
	tab[1] = 100
	h.Dirty(o, 1*stride, 8)
	// Element 2: store + clwb, unfenced -> policy decides.
	tab[2] = 200
	h.Dirty(o, 2*stride, 8)
	h.Persist(o, 2*stride, 8)
	// Element 5: never persisted at all -> reverts to zero baseline.
	tab[5] = 500
	h.Dirty(o, 5*stride, 8)

	rep := h.PowerCycle(PolicyKeep, 1)
	want := []uint64{1, 2, 200, 4, 0, 0, 0, 0}
	for i, w := range want {
		if tab[i] != w {
			t.Fatalf("elem %d = %d, want %d (report %v, tab %v)", i, tab[i], w, rep, tab)
		}
	}
	if rep.Reverted != 2 || rep.Kept != 1 {
		t.Fatalf("report %v, want Reverted=2 Kept=1", rep)
	}
	h.Release()
}

// Elements that share a cache line share its fate: a clwb issued for
// one element writes back its neighbours' stores too, so a neighbour's
// unflushed store survives a keep-policy cycle — real line-granularity
// write-back, not a tracking bug.
func TestPowerCycleSliceSharedLine(t *testing.T) {
	h := shadowHeap()
	const stride = 8 // 8 elements per 64-byte line
	tab := make([]uint64, 8)
	o := h.Alloc(8 * stride)
	h.ShadowSlice(o, tab, stride)

	tab[1] = 100
	h.Dirty(o, 1*stride, 8) // store elem 1, no clwb
	tab[2] = 200
	h.Dirty(o, 2*stride, 8)
	h.Persist(o, 2*stride, 8) // clwb of the shared line writes both back

	h.PowerCycle(PolicyKeep, 1)
	if tab[1] != 100 || tab[2] != 200 {
		t.Fatalf("shared-line keep lost data: tab=%v", tab[:4])
	}
	h.Release()
}

// PowerCycle leaves the tracker clean: restart durability starts fresh.
func TestPowerCycleResetsTracker(t *testing.T) {
	h := shadowHeap()
	n := &node{}
	o := h.Alloc(24)
	h.Shadow(o, n)
	n.a = 1
	h.Dirty(o, 0, 8)

	h.PowerCycle(PolicyRevert, 1)
	if v := h.Tracker().Check(); len(v) != 0 {
		t.Fatalf("tracker not clean after cycle: %v", v)
	}
}

// The intact image loses nothing, so a Track heap without Shadow may
// cycle under it: the stores stay, the tracker restarts clean. The
// lossy images need the shadow registry and refuse to run without it.
func TestPowerCycleIntactWithoutShadow(t *testing.T) {
	h := New(Options{Track: true})
	defer h.Release()
	n := &node{}
	o := h.Alloc(24)
	n.a = 1
	h.Dirty(o, 0, 8)
	h.PowerCycle(PolicyIntact, 1)
	if v := h.Tracker().Check(); len(v) != 0 || n.a != 1 {
		t.Fatalf("after an intact cycle: violations %v, a = %d", v, n.a)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a revert cycle without Shadow did not panic")
		}
	}()
	h.PowerCycle(PolicyRevert, 1)
}

// Release must clear tracker and shadow state — nothing stale
// (dirty/pending lines, shadow images pinning index nodes) outlives the
// heap's use — detach the allocator, and be idempotent.
func TestReleaseClearsTrackerState(t *testing.T) {
	h := New(Options{Shadow: true})
	n := &node{}
	o := h.Alloc(24)
	h.Shadow(o, n)
	n.a = 1
	h.Dirty(o, 0, 24)
	h.Persist(o, 0, 8) // leave both dirty and pending lines behind
	if len(h.Tracker().Check()) == 0 {
		t.Fatalf("test setup: expected outstanding violations before Release")
	}
	tr, sh := h.Tracker(), h.shadow
	h.Release()
	if h.lines != nil {
		t.Fatal("Release must detach the allocator")
	}
	h.Release() // double release is a no-op

	if v := tr.Check(); len(v) != 0 {
		t.Fatalf("tracker state leaked through Release: %v", v)
	}
	sh.mu.Lock()
	objs, queue := len(sh.objs), len(sh.queue)
	sh.mu.Unlock()
	if objs != 0 || queue != 0 {
		t.Fatalf("shadow state leaked through Release: objs=%d queue=%d", objs, queue)
	}

	// A fresh heap starts with clean tracker state and an empty registry.
	h2 := New(Options{Shadow: true})
	if v := h2.Tracker().Check(); len(v) != 0 {
		t.Fatalf("fresh heap inherited tracker state: %v", v)
	}
	o2 := h2.Alloc(24)
	n2 := &node{}
	h2.Shadow(o2, n2)
	h2.shadow.mu.Lock()
	if len(h2.shadow.objs) != 1 {
		t.Fatalf("fresh heap registry polluted: %d objs", len(h2.shadow.objs))
	}
	h2.shadow.mu.Unlock()
	h2.Release()
}

// Shadow registration is a no-op on non-shadow heaps, so index code can
// call it unconditionally.
func TestShadowNoopWithoutMode(t *testing.T) {
	h := NewFast()
	o := h.Alloc(24)
	h.Shadow(o, &node{})
	h.ShadowSlice(o, make([]uint64, 4), 8)
	if h.ShadowEnabled() {
		t.Fatalf("fast heap claims shadow mode")
	}
}
