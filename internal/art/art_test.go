package art

import (
	"bytes"
	"fmt"
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

func TestEmpty(t *testing.T) {
	idx := newIdx()
	if _, ok := idx.Lookup(k64(1)); ok {
		t.Fatal("lookup on empty tree hit")
	}
	if idx.Len() != 0 {
		t.Fatal("empty tree Len != 0")
	}
	if n := idx.Scan(nil, 10, func([]byte, uint64) bool { return true }); n != 0 {
		t.Fatalf("scan on empty tree visited %d", n)
	}
}

func TestSingleKey(t *testing.T) {
	idx := newIdx()
	mustInsert(t, idx, k64(42), 100)
	if v, ok := idx.Lookup(k64(42)); !ok || v != 100 {
		t.Fatalf("Lookup = %d,%v", v, ok)
	}
	if _, ok := idx.Lookup(k64(43)); ok {
		t.Fatal("wrong key hit")
	}
}

func TestEmptyKeyRejected(t *testing.T) {
	idx := newIdx()
	if err := idx.Insert(nil, 1); err != ErrEmptyKey {
		t.Fatalf("Insert(nil) = %v", err)
	}
	if _, err := idx.Delete(nil); err != ErrEmptyKey {
		t.Fatalf("Delete(nil) = %v", err)
	}
}

func TestPrefixKeyRejected(t *testing.T) {
	idx := newIdx()
	mustInsert(t, idx, []byte("abcd"), 1)
	if err := idx.Insert([]byte("ab"), 2); err != ErrPrefixKey {
		t.Fatalf("prefix insert err = %v, want ErrPrefixKey", err)
	}
	if err := idx.Insert([]byte("abcdef"), 2); err != ErrPrefixKey {
		t.Fatalf("extension insert err = %v, want ErrPrefixKey", err)
	}
}

func TestNodeGrowthThroughAllKinds(t *testing.T) {
	idx := newIdx()
	// 256 keys differing in the last byte force node4 -> 16 -> 48 -> 256.
	var key [8]byte
	for i := 0; i < 256; i++ {
		key[7] = byte(i)
		mustInsert(t, idx, key[:], uint64(i))
	}
	for i := 0; i < 256; i++ {
		key[7] = byte(i)
		if v, ok := idx.Lookup(key[:]); !ok || v != uint64(i) {
			t.Fatalf("Lookup(%d) = %d,%v", i, v, ok)
		}
	}
	if idx.Len() != 256 {
		t.Fatalf("Len = %d", idx.Len())
	}
}

func TestPathCompressionSplit(t *testing.T) {
	idx := newIdx()
	// Long shared prefixes exercise compression and splitting, including
	// prefixes beyond the 7 stored bytes.
	ks := [][]byte{
		[]byte("commonprefix-aaaaaaaaaaaa-1"),
		[]byte("commonprefix-aaaaaaaaaaaa-2"),
		[]byte("commonprefix-bbbbbbbbbbbb-1"),
		[]byte("commonprefix-bbbbbbbbbbbb-2"),
		[]byte("otherprefix-cccccccccccc-x1"),
	}
	for i, k := range ks {
		mustInsert(t, idx, k, uint64(i))
	}
	for i, k := range ks {
		if v, ok := idx.Lookup(k); !ok || v != uint64(i) {
			t.Fatalf("Lookup(%q) = %d,%v", k, v, ok)
		}
	}
	if _, ok := idx.Lookup([]byte("commonprefix-aaaaaaaaaaaa-3")); ok {
		t.Fatal("phantom key")
	}
}

func TestDeleteRootLeaf(t *testing.T) {
	idx := newIdx()
	mustInsert(t, idx, k64(1), 1)
	if del, err := idx.Delete(k64(1)); err != nil || !del {
		t.Fatalf("Delete = %v,%v", del, err)
	}
	if _, ok := idx.Lookup(k64(1)); ok {
		t.Fatal("root leaf survived delete")
	}
	mustInsert(t, idx, k64(2), 2) // tree must remain usable
	if v, ok := idx.Lookup(k64(2)); !ok || v != 2 {
		t.Fatal("insert after root delete broken")
	}
}

func TestReinsertAfterDelete(t *testing.T) {
	idx := newIdx()
	mustInsert(t, idx, k64(1), 1)
	mustInsert(t, idx, k64(2), 2)
	if _, err := idx.Delete(k64(1)); err != nil {
		t.Fatal(err)
	}
	mustInsert(t, idx, k64(1), 11)
	if v, ok := idx.Lookup(k64(1)); !ok || v != 11 {
		t.Fatalf("reinserted key = %d,%v", v, ok)
	}
}

func TestConcurrentDeleteInsert(t *testing.T) {
	idx := newIdx()
	const n = 4000
	for i := uint64(0); i < n; i++ {
		mustInsert(t, idx, k64(i), i)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := uint64(0); i < n; i += 2 {
			if _, err := idx.Delete(k64(i)); err != nil {
				t.Errorf("delete: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := uint64(n); i < n+2000; i++ {
			if err := idx.Insert(k64(i), i); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	for i := uint64(1); i < n; i += 2 {
		if v, ok := idx.Lookup(k64(i)); !ok || v != i {
			t.Fatalf("odd key %d = %d,%v", i, v, ok)
		}
	}
	for i := uint64(0); i < n; i += 2 {
		if _, ok := idx.Lookup(k64(i)); ok {
			t.Fatalf("even key %d survived", i)
		}
	}
}

// Crash exactly between the two SMO steps: the stale-prefix state readers
// must tolerate and the first post-crash writer must repair.
func TestCrashBetweenSplitSteps(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		heap := pmem.NewFast()
		idx := New(heap)
		// Build keys with long shared prefixes so splits happen.
		base := fmt.Sprintf("prefix%02d-shared-run-", trial)
		committed := [][]byte{}
		inj := crash.NewAtSite("art.split.installed", 1)
		heap.SetInjector(inj)
		var crashedKey []byte
		for i := 0; i < 40; i++ {
			k := []byte(fmt.Sprintf("%s%04d", base, i*7))
			err := idx.Insert(k, uint64(i))
			if crash.IsCrash(err) {
				crashedKey = k
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			committed = append(committed, k)
		}
		heap.SetInjector(nil)
		idx.Recover()
		// All committed keys must still be readable despite the stale prefix.
		for i, k := range committed {
			if v, ok := idx.Lookup(k); !ok || v != uint64(i) {
				t.Fatalf("trial %d: committed key %q lost after mid-SMO crash", trial, k)
			}
		}
		if crashedKey == nil {
			continue // no split happened this trial
		}
		// A post-crash write through the inconsistent path triggers the
		// helper; afterwards everything still works.
		mustInsert(t, idx, []byte(base+"zzzz"), 999)
		if v, ok := idx.Lookup([]byte(base + "zzzz")); !ok || v != 999 {
			t.Fatalf("trial %d: post-repair lookup broken", trial)
		}
		for i, k := range committed {
			if v, ok := idx.Lookup(k); !ok || v != uint64(i) {
				t.Fatalf("trial %d: key %q lost after repair", trial, k)
			}
		}
	}
}

func TestPackUnpackPrefix(t *testing.T) {
	for _, b := range [][]byte{nil, {1}, {1, 2, 3}, {1, 2, 3, 4, 5, 6, 7}, bytes.Repeat([]byte{9}, 20)} {
		n, got := unpackPrefix(packPrefix(b))
		if n != len(b) {
			t.Fatalf("len %d, want %d", n, len(b))
		}
		m := len(b)
		if m > maxStoredPrefix {
			m = maxStoredPrefix
		}
		for i := 0; i < m; i++ {
			if got[i] != b[i] {
				t.Fatalf("byte %d = %d, want %d", i, got[i], b[i])
			}
		}
	}
}

// TestAtomicBytes sets and reads back every byte of a Node4's key word,
// a Node16's two and a Node48's index.
func TestAtomicBytes(t *testing.T) {
	var n4 node4
	var n16 node16
	var n48 node48
	for _, c := range []struct {
		name string
		get  func(int) byte
		set  func(int, byte)
		n    int
	}{
		{"Node4 keys", atomicBytes(n4.keys[:]).Get, atomicBytes(n4.keys[:]).Set, 8},
		{"Node16 keys", atomicBytes(n16.keys[:]).Get, atomicBytes(n16.keys[:]).Set, 16},
		{"Node48 index", n48.index.Get, n48.index.Set, 256},
	} {
		for i := 0; i < c.n; i++ {
			c.set(i, byte(i*5+1))
		}
		for i := 0; i < c.n; i++ {
			if got := c.get(i); got != byte(i*5+1) {
				t.Fatalf("%s[%d] = %d, want %d", c.name, i, got, byte(i*5+1))
			}
		}
	}
}

func BenchmarkInsertRandInt(b *testing.B) {
	idx := newIdx()
	gen := keys.NewGenerator(keys.RandInt)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := idx.Insert(gen.Key(uint64(i)), uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLookupRandInt(b *testing.B) {
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

// BenchmarkLookupYCSBString reads 24-byte YCSB string keys at the two
// per-shard tree sizes the repository benchmark runs (wire-*: 200K keys
// over 4 shards; lib-scan: 1M over 4), in an order that returns to a key
// only after every other: ns/op is a descent whose leaf is a cache miss.
func BenchmarkLookupYCSBString(b *testing.B) {
	for _, n := range []int{50_000, 250_000} {
		b.Run(fmt.Sprintf("keys=%d", n), func(b *testing.B) {
			idx := newIdx()
			gen := keys.NewGenerator(keys.YCSBString)
			all := make([]byte, 0, n*keys.YCSBString.Size())
			for i := 0; i < n; i++ {
				all = gen.AppendKey(all, uint64(i))
				if err := idx.Insert(all[len(all)-keys.YCSBString.Size():], uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				at := i * 7919 % n * keys.YCSBString.Size()
				if _, ok := idx.Lookup(all[at : at+keys.YCSBString.Size()]); !ok {
					b.Fatal("miss")
				}
			}
		})
	}
}
