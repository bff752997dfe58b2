package woart

import (
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

func TestBasic(t *testing.T) {
	idx := newIdx()
	if _, ok := idx.Lookup(k64(1)); ok {
		t.Fatal("phantom on empty")
	}
	mustInsert(t, idx, k64(1), 10)
	if v, ok := idx.Lookup(k64(1)); !ok || v != 10 {
		t.Fatalf("Lookup = %d,%v", v, ok)
	}
	if err := idx.Insert(nil, 1); err != ErrEmptyKey {
		t.Fatalf("err = %v", err)
	}
}

func TestUpdate(t *testing.T) {
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

func TestDelete(t *testing.T) {
	idx := newIdx()
	for i := uint64(0); i < 500; i++ {
		mustInsert(t, idx, k64(i), i)
	}
	for i := uint64(0); i < 500; i += 2 {
		del, err := idx.Delete(k64(i))
		if err != nil || !del {
			t.Fatalf("Delete(%d) = %v,%v", i, del, err)
		}
	}
	for i := uint64(0); i < 500; i++ {
		_, ok := idx.Lookup(k64(i))
		if i%2 == 0 && ok {
			t.Fatalf("deleted %d present", i)
		}
		if i%2 == 1 && !ok {
			t.Fatalf("survivor %d missing", i)
		}
	}
}

func TestScanOrdered(t *testing.T) {
	idx := newIdx()
	var want []uint64
	for i := 0; i < 2000; i++ {
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
		t.Fatalf("count %d want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order broken at %d", i)
		}
	}
}

// The global lock serialises writers but readers may run concurrently —
// the design property behind the §7.3 gap.
func TestConcurrentGlobalLock(t *testing.T) {
	idx := newIdx()
	const threads = 4
	const per = 2000
	var wg sync.WaitGroup
	for g := 0; g < threads; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				id := uint64(g*per + i)
				if err := idx.Insert(k64(keys.Mix64(id)), id); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if idx.Len() != threads*per {
		t.Fatalf("Len = %d", idx.Len())
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
