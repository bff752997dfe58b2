package group

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/crash"
	"repro/internal/keys"
	"repro/internal/pmem"
)

func newOrdered(t *testing.T, heap *pmem.Heap) core.OrderedIndex {
	t.Helper()
	idx, err := core.NewOrdered("P-ART", heap, keys.RandInt)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// TestApplyBatchDurable: a committed batch is fully readable and the
// tracker reports every line fenced at the acknowledgment point.
func TestApplyBatchDurable(t *testing.T) {
	heap := pmem.New(pmem.Options{Track: true})
	defer heap.Release()
	idx := newOrdered(t, heap)
	gen := keys.NewGenerator(keys.RandInt)
	heap.Tracker().Reset() // constructor coverage is tested elsewhere

	ops := make([]Op[[]byte], 16)
	for i := range ops {
		ops[i] = Op[[]byte]{Key: gen.Key(uint64(i)), Value: uint64(i)}
	}
	if err := Apply(heap, idx, ops, nil); err != nil {
		t.Fatal(err)
	}
	if v := heap.Tracker().Check(); len(v) != 0 {
		t.Fatalf("acked batch left %d undurable lines: %v", len(v), v)
	}
	for i := range ops {
		if v, ok := idx.Lookup(gen.Key(uint64(i))); !ok || v != uint64(i) {
			t.Fatalf("id %d: ok=%v v=%d", i, ok, v)
		}
	}
}

// TestApplyFewerFences: a batch of in-place updates pays one barrier
// instead of one fence per op.
func TestApplyFewerFences(t *testing.T) {
	heap := pmem.NewFast()
	defer heap.Release()
	idx := newOrdered(t, heap)
	gen := keys.NewGenerator(keys.RandInt)
	const B = 32
	for i := 0; i < B; i++ {
		if err := idx.Insert(gen.Key(uint64(i)), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}

	unbatched := heap.Stats()
	for i := 0; i < B; i++ {
		if err := idx.Update(gen.Key(uint64(i)), uint64(i)+100); err != nil {
			t.Fatal(err)
		}
	}
	unbatchedFences := heap.Stats().Sub(unbatched).Fence

	ops := make([]Op[[]byte], B)
	for i := range ops {
		ops[i] = Op[[]byte]{Key: gen.Key(uint64(i)), Value: uint64(i) + 200, Update: true}
	}
	batched := heap.Stats()
	if err := Apply(heap, idx, ops, nil); err != nil {
		t.Fatal(err)
	}
	d := heap.Stats().Sub(batched)
	if d.Fence >= unbatchedFences {
		t.Errorf("batched fences = %d, want < %d", d.Fence, unbatchedFences)
	}
	if d.Fence != 1 {
		// P-ART updates are single-fence commits, so the whole batch
		// coalesces to the barrier alone.
		t.Errorf("batched update fences = %d, want 1", d.Fence)
	}
}

// TestApplySingleOpBypass: a batch of one is byte-for-byte the
// unbatched path in clwb and fence counters, with no group sites.
func TestApplySingleOpBypass(t *testing.T) {
	gen := keys.NewGenerator(keys.RandInt)

	ha := pmem.NewFast()
	defer ha.Release()
	ia := newOrdered(t, ha)
	beforeA := ha.Stats()
	if err := ia.Insert(gen.Key(1), 1); err != nil {
		t.Fatal(err)
	}
	plain := ha.Stats().Sub(beforeA)

	hb := pmem.NewFast()
	inj := crash.NewProbabilistic(0, 1) // never fires, records visits
	hb.SetInjector(inj)
	defer hb.Release()
	ib := newOrdered(t, hb)
	beforeB := hb.Stats()
	if err := Apply(hb, ib, []Op[[]byte]{{Key: gen.Key(1), Value: 1}}, nil); err != nil {
		t.Fatal(err)
	}
	batched := hb.Stats().Sub(beforeB)

	if plain != batched {
		t.Errorf("batch-of-1 delta %+v != unbatched delta %+v", batched, plain)
	}
	if hb.ElidedFences() != 0 {
		t.Errorf("batch-of-1 elided %d fences, want 0", hb.ElidedFences())
	}
	sites := inj.Sites()
	if sites[SiteOpApplied] != 0 || sites[SiteCommitFenced] != 0 {
		t.Errorf("batch-of-1 visited group sites: %v", sites)
	}
}

// TestApplyCrashMidBatch: a crash at a group site surfaces as a typed
// *Error wrapping crash.ErrCrashed, with the fence group torn down.
func TestApplyCrashMidBatch(t *testing.T) {
	heap := pmem.NewFast()
	defer heap.Release()
	idx := newOrdered(t, heap)
	gen := keys.NewGenerator(keys.RandInt)
	heap.SetInjector(crash.NewAtSite(SiteOpApplied, 3))

	ops := make([]Op[[]byte], 8)
	for i := range ops {
		ops[i] = Op[[]byte]{Key: gen.Key(uint64(i)), Value: uint64(i)}
	}
	err := Apply(heap, idx, ops, nil)
	if !crash.IsCrash(err) {
		t.Fatalf("err = %v, want a crash", err)
	}
	var ge *Error
	if !errors.As(err, &ge) {
		t.Fatalf("err = %T, want *group.Error", err)
	}
	if ge.Applied != 3 {
		t.Errorf("Applied = %d, want 3 (crash at the 3rd op boundary)", ge.Applied)
	}
	if heap.GroupActive() {
		t.Error("fence group still active after crash")
	}
}

// TestApplyOpError: a non-crash op failure fences the applied prefix
// (durable, ackable) and reports where the batch stopped.
func TestApplyOpError(t *testing.T) {
	heap := pmem.New(pmem.Options{Track: true})
	defer heap.Release()
	idx := newOrdered(t, heap)
	gen := keys.NewGenerator(keys.RandInt)
	heap.Tracker().Reset()

	ops := []Op[[]byte]{
		{Key: gen.Key(1), Value: 1},
		{Key: gen.Key(2), Value: 2},
		{Key: nil, Value: 3}, // empty key: every ordered index rejects it
		{Key: gen.Key(4), Value: 4},
	}
	err := Apply(heap, idx, ops, nil)
	var ge *Error
	if !errors.As(err, &ge) {
		t.Fatalf("err = %v, want *group.Error", err)
	}
	if ge.Applied != 2 {
		t.Errorf("Applied = %d, want 2", ge.Applied)
	}
	if crash.IsCrash(err) {
		t.Error("op failure misreported as crash")
	}
	if v := heap.Tracker().Check(); len(v) != 0 {
		t.Errorf("applied prefix not fenced: %v", v)
	}
	for i := uint64(1); i <= 2; i++ {
		if v, ok := idx.Lookup(gen.Key(i)); !ok || v != i {
			t.Errorf("prefix id %d: ok=%v v=%d", i, ok, v)
		}
	}
	if heap.GroupActive() {
		t.Error("fence group still active after op error")
	}
}

// TestApplyObserverCoverage: the observer fires once per op plus once
// for the barrier, on batched and single-op paths alike.
func TestApplyObserverCoverage(t *testing.T) {
	heap := pmem.NewFast()
	defer heap.Release()
	idx := newOrdered(t, heap)
	gen := keys.NewGenerator(keys.RandInt)

	var calls []int
	obs := func(i int) { calls = append(calls, i) }
	ops := []Op[[]byte]{
		{Key: gen.Key(1), Value: 1},
		{Key: gen.Key(2), Value: 2},
		{Key: gen.Key(3), Value: 3},
	}
	if err := Apply(heap, idx, ops, obs); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 2} // per-op boundaries, then the barrier
	if len(calls) != len(want) {
		t.Fatalf("calls = %v, want %v", calls, want)
	}
	for i := range want {
		if calls[i] != want[i] {
			t.Fatalf("calls = %v, want %v", calls, want)
		}
	}

	calls = nil
	if err := Apply(heap, idx, []Op[[]byte]{{Key: gen.Key(9), Value: 9}}, obs); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 2 || calls[0] != 0 || calls[1] != 0 {
		t.Fatalf("single-op calls = %v, want [0 0]", calls)
	}
}

// TestApplyHashBatch: the unordered path commits a batch durably too.
func TestApplyHashBatch(t *testing.T) {
	heap := pmem.New(pmem.Options{Track: true})
	defer heap.Release()
	idx, err := core.NewHash("P-CLHT", heap)
	if err != nil {
		t.Fatal(err)
	}
	gen := keys.NewGenerator(keys.RandInt)
	heap.Tracker().Reset()

	ops := make([]Op[uint64], 16)
	for i := range ops {
		ops[i] = Op[uint64]{Key: gen.Uint64(uint64(i)) | 1, Value: uint64(i)}
	}
	if err := Apply(heap, idx, ops, nil); err != nil {
		t.Fatal(err)
	}
	if v := heap.Tracker().Check(); len(v) != 0 {
		t.Fatalf("acked batch left %d undurable lines: %v", len(v), v)
	}
	for i := range ops {
		if v, ok := idx.Lookup(gen.Uint64(uint64(i)) | 1); !ok || v != uint64(i) {
			t.Fatalf("id %d: ok=%v v=%d", i, ok, v)
		}
	}
}
