package cceh

import (
	"errors"
	"testing"

	"repro/internal/crash"
	"repro/internal/keys"
	"repro/internal/pmem"
)

func TestZeroKey(t *testing.T) {
	idx := New(pmem.NewFast())
	if err := idx.Insert(0, 1); err != ErrZeroKey {
		t.Fatalf("err = %v", err)
	}
	if _, err := idx.Delete(0); err != ErrZeroKey {
		t.Fatalf("err = %v", err)
	}
}

func TestSegmentSplitsAndDoubling(t *testing.T) {
	idx := New(pmem.NewFast())
	const n = 100000
	for i := uint64(1); i <= n; i++ {
		if err := idx.Insert(keys.Mix64(i), i); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if idx.segments() < 8 {
		t.Fatalf("expected many segments, got %d", idx.segments())
	}
	if idx.Depth() <= DefaultDepth {
		t.Fatalf("directory never doubled: depth %d", idx.Depth())
	}
	for i := uint64(1); i <= n; i++ {
		if v, ok := idx.Lookup(keys.Mix64(i)); !ok || v != i {
			t.Fatalf("Lookup(%d) = %d,%v", i, v, ok)
		}
	}
	if idx.Len() != n {
		t.Fatalf("Len = %d", idx.Len())
	}
}

// TestLookupRetriesStaleSegment pins the cause of the rare "readback"
// miss in core.TestConcurrentInserts/CCEH deterministically: a reader
// that loaded its segment before a split moved the key away, and probes
// it after an insert reclaimed the moved key's slot, must report
// "stale, retry" — not "absent".
func TestLookupRetriesStaleSegment(t *testing.T) {
	idx := New(pmem.NewFast())
	// find returns a fresh key whose hash satisfies pred.
	next := uint64(1)
	find := func(pred func(h uint64) bool) uint64 {
		for ; ; next++ {
			if pred(hash(next)) {
				next++
				return next - 1
			}
		}
	}
	// victim lives in the initial segment 00 and will move to the sibling
	// (prefix 001) when that segment splits.
	victim := find(func(h uint64) bool { return h>>61 == 0b001 })
	hv := hash(victim)
	home := hv & (BucketsPerSegment - 1)
	if err := idx.Insert(victim, 1); err != nil {
		t.Fatal(err)
	}
	// The reader's stale state: view and segment loaded before the split.
	v := idx.view()
	s := v.segmentFor(hv)

	// Split segment 00 by overfilling one probe window far from victim's.
	far := (home + BucketsPerSegment/2) & (BucketsPerSegment - 1)
	for s.localDepth.Load() == DefaultDepth {
		k := find(func(h uint64) bool { return h>>62 == 0 && h&(BucketsPerSegment-1) == far })
		if err := idx.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	if got, ok := idx.Lookup(victim); !ok || got != 1 {
		t.Fatalf("victim after split = %d, %v", got, ok)
	}
	// Reclaim victim's lazily retained slot in the old segment: inserts of
	// keys the narrowed segment (prefix 000) covers, homed on victim's
	// bucket, take the reclaimable slots of its probe window in order.
	retained := func() bool {
		for i := range s.keys {
			if s.keys[i].Load() == victim {
				return true
			}
		}
		return false
	}
	if !retained() {
		t.Fatal("split did not leave the moved key behind in the old segment")
	}
	for retained() {
		k := find(func(h uint64) bool { return h>>61 == 0 && h&(BucketsPerSegment-1) == home })
		if err := idx.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}

	if _, found, stale := idx.probe(v, s, hv, victim); found || !stale {
		t.Fatalf("probe of the stale segment: found=%v stale=%v, want a stale miss", found, stale)
	}
	if got, ok := idx.Lookup(victim); !ok || got != 1 {
		t.Fatalf("victim after slot reclaim = %d, %v", got, ok)
	}
	// A miss in a segment that still covers the hash is a real miss.
	absent := find(func(h uint64) bool { return h>>61 == 0 })
	cur := idx.view()
	if _, found, stale := idx.probe(cur, cur.segmentFor(hash(absent)), hash(absent), absent); found || stale {
		t.Fatalf("probe for an absent key: found=%v stale=%v, want a final miss", found, stale)
	}
}

// TestInterruptedSplitCompletes: a crash at cceh.split.repointed leaves
// the upper half of a segment's directory range on the new sibling while
// the old segment keeps its old pattern and depth. Writes acknowledged
// into the sibling after the restart must survive the old segment's next
// split, which finishes the interrupted one instead of building a second
// sibling from its stale copies.
func TestInterruptedSplitCompletes(t *testing.T) {
	heap := pmem.NewFast()
	idx := New(heap)
	heap.SetInjector(crash.NewAtSite("cceh.split.repointed", 1))
	acked := make(map[uint64]uint64)
	insert := func(i uint64) error {
		k := keys.Mix64(i)
		err := idx.Insert(k, i)
		if err == nil {
			acked[k] = i
		}
		return err
	}
	i := uint64(1)
	for ; !heap.Injector().Fired(); i++ {
		if err := insert(i); err != nil && !crash.IsCrash(err) {
			t.Fatal(err)
		}
	}
	heap.SetInjector(nil)
	if err := idx.Recover(); err != nil {
		t.Fatal(err)
	}

	// The half-split segment: the upper half of its range names another.
	v := idx.view()
	var stale *segment
	for i := range v.d.entries {
		s := v.d.entries[i].Load()
		ld := s.localDepth.Load()
		first := int(s.pattern.Load()) << (v.depth - ld)
		if v.d.entries[first+(1<<(v.depth-ld))/2].Load() != s {
			stale = s
		}
	}
	if stale == nil {
		t.Fatal("no segment left half split by the crash")
	}
	for depth := stale.localDepth.Load(); stale.localDepth.Load() == depth; i++ {
		if i > 1_000_000 {
			t.Fatal("the half-split segment never split again")
		}
		if err := insert(i); err != nil {
			t.Fatalf("post-crash insert %d: %v", i, err)
		}
	}
	for k, want := range acked {
		if got, ok := idx.Lookup(k); !ok || got != want {
			t.Fatalf("acknowledged key %d: got (%d,%v), want %d", k, got, ok, want)
		}
	}
}

// §3 bug reproduction: in Faithful mode, a crash between the directory
// pointer swap and the global-depth update leaves insertions unable to
// make progress (the published "insertion operations loop infinitely")
// and the recovery walk stalled.
func TestDirectoryDoublingBugFaithful(t *testing.T) {
	heap := pmem.NewFast()
	idx := NewWithMode(heap, Faithful)
	heap.SetInjector(crash.NewAtSite("cceh.double.swapped", 1))
	var sawCrash bool
	for i := uint64(1); i <= 200000; i++ {
		err := idx.Insert(keys.Mix64(i), i)
		if crash.IsCrash(err) {
			sawCrash = true
			break
		}
		if err != nil {
			t.Fatalf("unexpected pre-crash error: %v", err)
		}
	}
	if !sawCrash {
		t.Fatal("directory never doubled; cannot exercise the bug")
	}
	heap.SetInjector(nil)
	// The recovery algorithm itself stalls (§3: "goes into an infinite
	// loop").
	if err := idx.Recover(); !errors.Is(err, ErrStalled) {
		t.Fatalf("Faithful recovery err = %v, want ErrStalled", err)
	}
	// Insertions stall rather than making progress.
	stalled := 0
	for i := uint64(500000); i < 500040; i++ {
		if err := idx.Insert(keys.Mix64(i), i); errors.Is(err, ErrStalled) {
			stalled++
		}
	}
	if stalled == 0 {
		t.Fatal("no insert stalled; the §3 bug was not reproduced")
	}
}

// The same crash in Fixed mode is harmless: the single-pointer publish
// closes the window.
func TestDirectoryDoublingFixed(t *testing.T) {
	heap := pmem.NewFast()
	idx := NewWithMode(heap, Fixed)
	heap.SetInjector(crash.NewAtSite("cceh.double.commit", 1))
	committed := make(map[uint64]uint64)
	for i := uint64(1); i <= 200000; i++ {
		k := keys.Mix64(i)
		err := idx.Insert(k, i)
		if crash.IsCrash(err) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		committed[k] = i
	}
	heap.SetInjector(nil)
	if err := idx.Recover(); err != nil {
		t.Fatalf("Fixed recovery: %v", err)
	}
	for k, v := range committed {
		if got, ok := idx.Lookup(k); !ok || got != v {
			t.Fatalf("key %d lost (%d,%v)", k, got, ok)
		}
	}
	for i := uint64(500000); i < 500100; i++ {
		if err := idx.Insert(keys.Mix64(i), i); err != nil {
			t.Fatalf("post-crash insert: %v", err)
		}
	}
}

// §7.5 durability finding: CCEH's initial root allocation is unpersisted
// in Faithful mode.
func TestDurabilityInitialAllocation(t *testing.T) {
	heapF := pmem.New(pmem.Options{Track: true})
	NewWithMode(heapF, Faithful)
	if v := heapF.Tracker().Check(); len(v) == 0 {
		t.Fatal("Faithful mode should leave the root allocation unpersisted")
	}
	heapX := pmem.New(pmem.Options{Track: true})
	NewWithMode(heapX, Fixed)
	if v := heapX.Tracker().Check(); len(v) != 0 {
		t.Fatalf("Fixed mode left unpersisted lines: %v", v)
	}
}

func BenchmarkInsert(b *testing.B) {
	idx := New(pmem.NewFast())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := idx.Insert(keys.Mix64(uint64(i))|1, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLookup(b *testing.B) {
	idx := New(pmem.NewFast())
	const n = 1 << 16
	for i := uint64(0); i < n; i++ {
		if err := idx.Insert(keys.Mix64(i)|1, i); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.Lookup(keys.Mix64(uint64(i)%n) | 1)
	}
}
