package hot

import (
	"math/rand"
	"sync"
	"testing"

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

func TestEmpty(t *testing.T) {
	idx := newIdx()
	if _, ok := idx.Lookup(k64(1)); ok {
		t.Fatal("phantom")
	}
	if err := idx.Insert(nil, 1); err != ErrEmptyKey {
		t.Fatalf("err = %v", err)
	}
	if n := idx.Scan(nil, 0, func([]byte, uint64) bool { return true }); n != 0 {
		t.Fatalf("scan visited %d", n)
	}
}

func TestBasic(t *testing.T) {
	idx := newIdx()
	mustInsert(t, idx, []byte("hello"), 1)
	if v, ok := idx.Lookup([]byte("hello")); !ok || v != 1 {
		t.Fatalf("Lookup = %d,%v", v, ok)
	}
	if _, ok := idx.Lookup([]byte("hellp")); ok {
		t.Fatal("phantom")
	}
}

func TestUpdateCOW(t *testing.T) {
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

func TestSplitsGrowTree(t *testing.T) {
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

func TestDeleteLastKey(t *testing.T) {
	idx := newIdx()
	mustInsert(t, idx, k64(9), 9)
	if del, err := idx.Delete(k64(9)); err != nil || !del {
		t.Fatalf("Delete = %v,%v", del, err)
	}
	mustInsert(t, idx, k64(10), 10)
	if v, ok := idx.Lookup(k64(10)); !ok || v != 10 {
		t.Fatal("insert after emptying broken")
	}
}

// TestConcurrentSameRangeNoStall: eight writers inserting, updating and
// deleting one small key range fight over the same few compound nodes,
// and every commit they lose is a restart. None may reach maxRestarts:
// the bound is for a write that can never commit, not for contention.
func TestConcurrentSameRangeNoStall(t *testing.T) {
	idx := newIdx()
	const threads, per, keyRange = 8, 4000, 64
	var wg sync.WaitGroup
	for g := 0; g < threads; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < per; i++ {
				k := k64(uint64(rng.Intn(keyRange)))
				var err error
				if rng.Intn(4) == 0 {
					_, err = idx.Delete(k)
				} else {
					err = idx.Insert(k, uint64(i))
				}
				if err != nil {
					t.Errorf("writer %d op %d: %v", g, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestConcurrentReadersDuringCOW(t *testing.T) {
	idx := newIdx()
	for i := uint64(0); i < 2000; i++ {
		mustInsert(t, idx, k64(i), i)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
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
				if v, ok := idx.Lookup(k64(k)); !ok || v != k {
					t.Errorf("reader: key %d = %d,%v", k, v, ok)
					return
				}
				i++
			}
		}()
	}
	for i := uint64(2000); i < 8000; i++ {
		mustInsert(t, idx, k64(i), i)
	}
	close(stop)
	wg.Wait()
}

func BenchmarkInsert(b *testing.B) {
	idx := newIdx()
	gen := keys.NewGenerator(keys.RandInt)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := idx.Insert(gen.Key(uint64(i)), uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLookup(b *testing.B) {
	idx := newIdx()
	gen := keys.NewGenerator(keys.RandInt)
	const n = 1 << 16
	for i := uint64(0); i < n; i++ {
		if err := idx.Insert(gen.Key(i), i); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := idx.Lookup(gen.Key(uint64(i) % n)); !ok {
			b.Fatal("miss")
		}
	}
}

// TestRecoverClearsObsolete: a restart can revert the pointer swap that
// retired a node, leaving the node reachable with its obsolete mark —
// modelled here by marking the live root. Every commit through it would
// fail until ErrStalled; Recover must clear the mark.
func TestRecoverClearsObsolete(t *testing.T) {
	idx := newIdx()
	for i := uint64(0); i < 100; i++ {
		mustInsert(t, idx, k64(i), i)
	}
	idx.root.Load().lock.MarkObsolete()
	if err := idx.Recover(); err != nil {
		t.Fatal(err)
	}
	mustInsert(t, idx, k64(100), 100)
	if _, err := idx.Delete(k64(0)); err != nil {
		t.Fatal(err)
	}
}
