package levelhash

import (
	"testing"

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
	if _, ok := idx.Lookup(0); ok {
		t.Fatal("zero key lookup hit")
	}
}

func TestRotationGrowsAndPreserves(t *testing.T) {
	idx := NewWithBuckets(pmem.NewFast(), 4)
	const n = 20000
	for i := uint64(1); i <= n; i++ {
		if err := idx.Insert(keys.Mix64(i), i); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if idx.topBuckets() <= 4 {
		t.Fatal("table never rotated")
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

// Keys that lived in the old top must remain findable after it becomes
// the bottom level — the high-bit indexing invariant.
func TestOldTopFindableAfterRotation(t *testing.T) {
	idx := NewWithBuckets(pmem.NewFast(), 8)
	inserted := []uint64{}
	i := uint64(1)
	start := idx.topBuckets()
	for idx.topBuckets() == start {
		k := keys.Mix64(i)
		if err := idx.Insert(k, i); err != nil {
			t.Fatal(err)
		}
		inserted = append(inserted, k)
		i++
	}
	for j, k := range inserted {
		if v, ok := idx.Lookup(k); !ok || v != uint64(j+1) {
			t.Fatalf("pre-rotation key %d lost after rotation (%d,%v)", k, v, ok)
		}
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
