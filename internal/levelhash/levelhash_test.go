package levelhash

import (
	"sync"
	"testing"

	"repro/internal/keys"
	"repro/internal/pmem"
)

func TestInsertLookup(t *testing.T) {
	idx := New(pmem.NewFast())
	if err := idx.Insert(3, 30); err != nil {
		t.Fatal(err)
	}
	if v, ok := idx.Lookup(3); !ok || v != 30 {
		t.Fatalf("Lookup = %d,%v", v, ok)
	}
	if _, ok := idx.Lookup(4); ok {
		t.Fatal("phantom")
	}
}

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

func TestUpdateInPlace(t *testing.T) {
	idx := New(pmem.NewFast())
	if err := idx.Insert(9, 1); err != nil {
		t.Fatal(err)
	}
	if err := idx.Insert(9, 2); err != nil {
		t.Fatal(err)
	}
	if v, _ := idx.Lookup(9); v != 2 {
		t.Fatalf("v = %d", v)
	}
	if idx.Len() != 1 {
		t.Fatalf("Len = %d", idx.Len())
	}
}

func TestDelete(t *testing.T) {
	idx := New(pmem.NewFast())
	for k := uint64(1); k <= 200; k++ {
		if err := idx.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(1); k <= 200; k += 2 {
		del, err := idx.Delete(k)
		if err != nil || !del {
			t.Fatalf("Delete(%d) = %v,%v", k, del, err)
		}
	}
	if del, _ := idx.Delete(1); del {
		t.Fatal("double delete succeeded")
	}
	for k := uint64(2); k <= 200; k += 2 {
		if v, ok := idx.Lookup(k); !ok || v != k {
			t.Fatalf("survivor %d = %d,%v", k, v, ok)
		}
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

func TestConcurrent(t *testing.T) {
	idx := NewWithBuckets(pmem.NewFast(), 8)
	const threads = 8
	const per = 4000
	var wg sync.WaitGroup
	for g := 0; g < threads; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				k := keys.Mix64(uint64(g*per+i)) | 1
				if err := idx.Insert(k, uint64(i)); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for g := 0; g < threads; g++ {
		for i := 0; i < per; i += 53 {
			k := keys.Mix64(uint64(g*per+i)) | 1
			if _, ok := idx.Lookup(k); !ok {
				t.Fatalf("missing key %d", k)
			}
		}
	}
}

// TestInsertFlushCount: a common-case insert writes its bucket line back
// once and fences once — the value and the committing key share the
// line, so no fence sits between them.
func TestInsertFlushCount(t *testing.T) {
	heap := pmem.NewFast()
	idx := New(heap)
	before := heap.Stats()
	if err := idx.Insert(12345, 1); err != nil {
		t.Fatal(err)
	}
	if d := heap.Stats().Sub(before); d.Clwb != 1 || d.Fence != 1 {
		t.Fatalf("common-case insert issued %d clwb, %d fences; want 1, 1", d.Clwb, d.Fence)
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
