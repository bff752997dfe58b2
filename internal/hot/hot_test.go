package hot

import (
	"math/rand"
	"sort"
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

func TestStringKeys(t *testing.T) {
	idx := newIdx()
	gen := keys.NewGenerator(keys.YCSBString)
	const n = 10000
	for i := uint64(0); i < n; i++ {
		mustInsert(t, idx, gen.Key(i), i)
	}
	for i := uint64(0); i < n; i++ {
		if v, ok := idx.Lookup(gen.Key(i)); !ok || v != i {
			t.Fatalf("Lookup(%d) = %d,%v", i, v, ok)
		}
	}
}

func TestDelete(t *testing.T) {
	idx := newIdx()
	for i := uint64(0); i < 1000; i++ {
		mustInsert(t, idx, k64(i), i)
	}
	for i := uint64(0); i < 1000; i += 2 {
		del, err := idx.Delete(k64(i))
		if err != nil || !del {
			t.Fatalf("Delete(%d) = %v,%v", i, del, err)
		}
	}
	if del, _ := idx.Delete(k64(0)); del {
		t.Fatal("double delete")
	}
	for i := uint64(0); i < 1000; i++ {
		_, ok := idx.Lookup(k64(i))
		if i%2 == 0 && ok {
			t.Fatalf("deleted %d present", i)
		}
		if i%2 == 1 && !ok {
			t.Fatalf("survivor %d missing", i)
		}
	}
	if idx.Len() != 500 {
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

func TestScanOrdered(t *testing.T) {
	idx := newIdx()
	var want []uint64
	for i := 0; i < 3000; i++ {
		v := keys.Mix64(uint64(i))
		mustInsert(t, idx, k64(v), v)
		want = append(want, v)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	var got []uint64
	idx.Scan(nil, 0, func(k []byte, v uint64) bool {
		got = append(got, keys.DecodeUint64(k))
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("scan count %d want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order broken at %d", i)
		}
	}
}

func TestScanRange(t *testing.T) {
	idx := newIdx()
	for i := uint64(0); i < 500; i++ {
		mustInsert(t, idx, k64(i*2), i*2)
	}
	var got []uint64
	n := idx.Scan(k64(101), 4, func(k []byte, v uint64) bool {
		got = append(got, keys.DecodeUint64(k))
		return true
	})
	if n != 4 {
		t.Fatalf("visited %d", n)
	}
	for i, g := range got {
		if g != uint64(102+i*2) {
			t.Fatalf("scan[%d] = %d", i, g)
		}
	}
}

func TestConcurrentInserts(t *testing.T) {
	idx := newIdx()
	gen := keys.NewGenerator(keys.RandInt)
	const threads = 8
	const per = 3000
	var wg sync.WaitGroup
	for g := 0; g < threads; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				id := uint64(g*per + i)
				if err := idx.Insert(gen.Key(id), id); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				if v, ok := idx.Lookup(gen.Key(id)); !ok || v != id {
					t.Errorf("readback %d = %d,%v", id, v, ok)
					return
				}
			}
		}()
	}
	wg.Wait()
	if idx.Len() != threads*per {
		t.Fatalf("Len = %d want %d", idx.Len(), threads*per)
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
