package woart

import (
	"testing"

	"repro/internal/crash"
	"repro/internal/keys"
	"repro/internal/pmem"
)

func newIdx() *Index { return New(pmem.NewFast()) }

func k64(v uint64) []byte { return keys.EncodeUint64(v) }

func mustInsert(t testing.TB, idx *Index, key []byte, v uint64) {
	t.Helper()
	if err := idx.Insert(key, v); err != nil {
		t.Fatalf("Insert(%x): %v", key, err)
	}
}

func TestManyKeys(t *testing.T) {
	idx := newIdx()
	const n = 20000
	for i := uint64(0); i < n; i++ {
		mustInsert(t, idx, k64(keys.Mix64(i)), i)
	}
	for i := uint64(0); i < n; i++ {
		if v, ok := idx.Lookup(k64(keys.Mix64(i))); !ok || v != i {
			t.Fatalf("Lookup(%d) = %d,%v", i, v, ok)
		}
	}
	if idx.Len() != n {
		t.Fatalf("Len = %d", idx.Len())
	}
}

func TestPathCompression(t *testing.T) {
	idx := newIdx()
	ks := [][]byte{
		[]byte("sharedprefix-AAAA"),
		[]byte("sharedprefix-BBBB"),
		[]byte("sharedprefix-AABB"),
		[]byte("other"),
	}
	for i, k := range ks {
		mustInsert(t, idx, k, uint64(i))
	}
	for i, k := range ks {
		if v, ok := idx.Lookup(k); !ok || v != uint64(i) {
			t.Fatalf("Lookup(%q) = %d,%v", k, v, ok)
		}
	}
	if err := idx.Insert([]byte("shared"), 9); err == nil {
		t.Fatal("prefix key accepted")
	}
}

// TestLeafSplitCommitsParentSlot: a leaf split below the root stores
// the new node into its parent's child slot, so that slot's line is the
// one the split must commit, not the root word's. With the commit
// dropped, the line left dirty names what the split committed.
func TestLeafSplitCommitsParentSlot(t *testing.T) {
	heap := pmem.New(pmem.Options{Track: true})
	idx := New(heap)
	heap.SetInjector(crash.NewDropping("woart.insert.root", 1<<40))
	mustInsert(t, idx, k64(1<<56), 1)
	v := heap.Tracker().Check()
	if len(v) != 1 {
		t.Fatalf("dropped root commit left %v, want the root word's line", v)
	}
	rootLine := v[0].Line
	heap.SetInjector(nil)
	mustInsert(t, idx, k64(2<<56), 2) // the root becomes a node
	inj := crash.NewDropping("woart.leafsplit.commit", 1<<40)
	heap.SetInjector(inj)
	mustInsert(t, idx, k64(1<<56|1<<48), 3) // splits the root's leaf child
	v = heap.Tracker().Check()
	if inj.Dropped() != 1 || len(v) != 1 {
		t.Fatalf("%d splits dropped, %v left dirty; want 1 split, 1 line", inj.Dropped(), v)
	}
	if v[0].Line == rootLine {
		t.Fatalf("%v; root word is line %d", v[0], rootLine)
	}
}

// TestDroppedSlotCommitLosesTheInsert: with a below-root leaf split's
// slot commit dropped, a power cycle right after the acknowledged insert
// reverts the parent's slot to the leaf it held, so the insert is lost.
// The restart image copies a node's slice elements, so a store into
// children[i] reverts like any other.
func TestDroppedSlotCommitLosesTheInsert(t *testing.T) {
	heap := pmem.New(pmem.Options{Shadow: true})
	defer heap.Release()
	idx := New(heap)
	mustInsert(t, idx, k64(1<<56), 1)
	mustInsert(t, idx, k64(2<<56), 2) // the root becomes a node
	inj := crash.NewDropping("woart.leafsplit.commit", 1<<40)
	heap.SetInjector(inj)
	mustInsert(t, idx, k64(1<<56|1<<48), 3) // splits the root's leaf child: acknowledged
	heap.SetInjector(nil)
	if inj.Dropped() != 1 {
		t.Fatalf("%d split commits dropped, want 1", inj.Dropped())
	}
	heap.PowerCycle(pmem.PolicyRevert, 1)
	if err := idx.Recover(); err != nil {
		t.Fatal(err)
	}
	if v, ok := idx.Lookup(k64(1<<56 | 1<<48)); ok {
		t.Fatalf("the insert whose slot commit was dropped reads %d after the revert; want it lost", v)
	}
	for _, k := range []uint64{1, 2} {
		if v, ok := idx.Lookup(k64(k << 56)); !ok || v != k {
			t.Fatalf("key %d reads %d, %v after the revert", k, v, ok)
		}
	}
}

func BenchmarkInsert(b *testing.B) {
	idx := newIdx()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := idx.Insert(k64(keys.Mix64(uint64(i))), uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func TestScanRangePruned(t *testing.T) {
	idx := newIdx()
	for i := uint64(0); i < 1000; i++ {
		mustInsert(t, idx, k64(i*3), i*3)
	}
	var got []uint64
	n := idx.Scan(k64(100), 6, func(k []byte, v uint64) bool {
		got = append(got, keys.DecodeUint64(k))
		return true
	})
	if n != 6 {
		t.Fatalf("visited %d", n)
	}
	for i, g := range got {
		if g != uint64(102+i*3) {
			t.Fatalf("scan[%d] = %d want %d", i, g, 102+i*3)
		}
	}
}
