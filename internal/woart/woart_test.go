package woart

import (
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
