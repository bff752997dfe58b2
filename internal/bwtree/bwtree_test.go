package bwtree

import (
	"sync"
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

func TestEmptyTree(t *testing.T) {
	idx := newIdx()
	if _, ok := idx.Lookup(k64(1)); ok {
		t.Fatal("phantom")
	}
	if idx.Len() != 0 {
		t.Fatal("Len != 0")
	}
	if err := idx.Insert(nil, 1); err != ErrEmptyKey {
		t.Fatalf("empty key err = %v", err)
	}
}

func TestInsertLookup(t *testing.T) {
	idx := newIdx()
	mustInsert(t, idx, k64(5), 50)
	if v, ok := idx.Lookup(k64(5)); !ok || v != 50 {
		t.Fatalf("Lookup = %d,%v", v, ok)
	}
}

func TestDeltaOverridesBase(t *testing.T) {
	idx := newIdx()
	mustInsert(t, idx, k64(1), 1)
	mustInsert(t, idx, k64(1), 2)
	if v, _ := idx.Lookup(k64(1)); v != 2 {
		t.Fatalf("v = %d", v)
	}
	if idx.Len() != 1 {
		t.Fatalf("Len = %d", idx.Len())
	}
}

func TestConsolidationAndSplits(t *testing.T) {
	idx := newIdx()
	const n = 50000
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

func TestSequentialInserts(t *testing.T) {
	idx := newIdx()
	const n = 10000
	for i := uint64(0); i < n; i++ {
		mustInsert(t, idx, k64(i), i)
	}
	for i := uint64(0); i < n; i++ {
		if v, ok := idx.Lookup(k64(i)); !ok || v != i {
			t.Fatalf("Lookup(%d) = %d,%v", i, v, ok)
		}
	}
}

func TestScanRespectsDeletes(t *testing.T) {
	idx := newIdx()
	for i := uint64(0); i < 100; i++ {
		mustInsert(t, idx, k64(i), i)
	}
	for i := uint64(0); i < 100; i += 2 {
		if _, err := idx.Delete(k64(i)); err != nil {
			t.Fatal(err)
		}
	}
	cnt := idx.Scan(nil, 0, func(k []byte, v uint64) bool {
		if keys.DecodeUint64(k)%2 == 0 {
			t.Fatalf("scan surfaced deleted key %d", keys.DecodeUint64(k))
		}
		return true
	})
	if cnt != 50 {
		t.Fatalf("scan visited %d, want 50", cnt)
	}
}

func TestConcurrentMixed(t *testing.T) {
	idx := newIdx()
	for i := uint64(0); i < 2000; i++ {
		mustInsert(t, idx, k64(i), i)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := uint64(0)
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := i % 2000
				if v, ok := idx.Lookup(k64(k)); ok && v != k && v < 2000 {
					t.Errorf("reader saw %d for %d", v, k)
					return
				}
				i++
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			idx.Scan(k64(500), 100, func([]byte, uint64) bool { return true })
		}
	}()
	for i := uint64(2000); i < 8000; i++ {
		mustInsert(t, idx, k64(i), i)
	}
	close(stop)
	wg.Wait()
}

// §5 crash testing: enumerate crash states; lock-free CAS publication
// plus help-along SMO completion must preserve all committed keys. The
// other indexes enumerate through the harness's crash trial
// (TestCrashAtEveryVisit); P-BwTree keeps this loop because a trial
// builds its 8 MB mapping table on a tracked heap, ≈40 ms per state.
func TestCrashRecoveryEnumerated(t *testing.T) {
	for n := int64(1); ; n++ {
		heap := pmem.NewFast()
		idx := New(heap)
		heap.SetInjector(crash.NewNth(n))
		committed := make(map[uint64]uint64)
		crashed := false
		for i := uint64(0); i < 500; i++ {
			k := keys.Mix64(i)
			err := idx.Insert(k64(k), i)
			if crash.IsCrash(err) {
				crashed = true
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			committed[k] = i
		}
		heap.SetInjector(nil)
		if !crashed {
			if n == 1 {
				t.Fatal("no crash sites reached")
			}
			t.Logf("enumerated %d crash states", n-1)
			break
		}
		idx.Recover()
		for k, v := range committed {
			got, ok := idx.Lookup(k64(k))
			if !ok || got != v {
				t.Fatalf("crash state %d: committed key %d lost (%d,%v)", n, k, got, ok)
			}
		}
		// Post-crash writes drive the helping mechanism over any torn SMO.
		for i := uint64(70000); i < 70080; i++ {
			if err := idx.Insert(k64(keys.Mix64(i)), i); err != nil {
				t.Fatalf("crash state %d: post-crash insert: %v", n, err)
			}
		}
		if n > 20000 {
			t.Fatal("enumeration did not terminate")
		}
	}
}

// Crash exactly between the split delta and the parent index entry — the
// Condition #2 window. The next writer must complete the SMO.
func TestCrashBetweenSplitSteps(t *testing.T) {
	heap := pmem.NewFast()
	idx := New(heap)
	heap.SetInjector(crash.NewAtSite("bw.split.delta", 2))
	committed := make(map[uint64]uint64)
	for i := uint64(0); i < 20000; i++ {
		k := keys.Mix64(i)
		err := idx.Insert(k64(k), i)
		if crash.IsCrash(err) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		committed[k] = i
	}
	heap.SetInjector(nil)
	idx.Recover()
	for k, v := range committed {
		if got, ok := idx.Lookup(k64(k)); !ok || got != v {
			t.Fatalf("committed key %d lost after mid-SMO crash (%d,%v)", k, got, ok)
		}
	}
	// Writers complete the torn split and the tree keeps working.
	for i := uint64(90000); i < 91000; i++ {
		mustInsert(t, idx, k64(keys.Mix64(i)), i)
	}
	for k, v := range committed {
		if got, ok := idx.Lookup(k64(k)); !ok || got != v {
			t.Fatalf("key %d lost after post-crash writes (%d,%v)", k, got, ok)
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

func BenchmarkLookup(b *testing.B) {
	idx := newIdx()
	const n = 1 << 16
	for i := uint64(0); i < n; i++ {
		if err := idx.Insert(k64(keys.Mix64(i)), i); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := idx.Lookup(k64(keys.Mix64(uint64(i) % n))); !ok {
			b.Fatal("miss")
		}
	}
}
