package masstree

import (
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"

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

func TestPermutation(t *testing.T) {
	p := emptyPerm()
	if p.count() != 0 {
		t.Fatal("empty perm count != 0")
	}
	// Insert slots at positions and verify ordering bookkeeping.
	p, s0 := p.insertAt(0)
	p, s1 := p.insertAt(0) // before s0
	p, s2 := p.insertAt(2) // after both
	if p.count() != 3 {
		t.Fatalf("count = %d", p.count())
	}
	if p.slot(0) != s1 || p.slot(1) != s0 || p.slot(2) != s2 {
		t.Fatalf("order %d,%d,%d want %d,%d,%d", p.slot(0), p.slot(1), p.slot(2), s1, s0, s2)
	}
	// Remove the middle entry.
	p = p.removeAt(1)
	if p.count() != 2 || p.slot(0) != s1 || p.slot(1) != s2 {
		t.Fatalf("after remove: count %d order %d,%d", p.count(), p.slot(0), p.slot(1))
	}
	// The freed slot is reusable.
	p, s3 := p.insertAt(2)
	if s3 != s0 {
		t.Fatalf("freed slot not reused: got %d want %d", s3, s0)
	}
}

// Property: any sequence of permutation inserts keeps slots a valid
// permutation of 0..14.
func TestQuickPermutationValid(t *testing.T) {
	f := func(positions []uint8) bool {
		p := emptyPerm()
		for _, raw := range positions {
			if p.count() == Fanout {
				break
			}
			pos := int(raw) % (p.count() + 1)
			p, _ = p.insertAt(pos)
		}
		seen := make(map[int]bool)
		for i := 0; i < Fanout; i++ {
			s := p.slot(i)
			if s < 0 || s >= Fanout || seen[s] {
				return false
			}
			seen[s] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTruncateKeepsFreeList(t *testing.T) {
	p := emptyPerm()
	for i := 0; i < Fanout; i++ {
		p, _ = p.insertAt(i)
	}
	p = p.truncate(7)
	if p.count() != 7 {
		t.Fatalf("count = %d", p.count())
	}
	// Slots 7..14 become free and reusable.
	for i := 0; i < 8; i++ {
		var s int
		p, s = p.insertAt(p.count())
		if s < 0 || s >= Fanout {
			t.Fatalf("bad freed slot %d", s)
		}
	}
}

func TestBasic(t *testing.T) {
	idx := newIdx()
	mustInsert(t, idx, k64(1), 10)
	if v, ok := idx.Lookup(k64(1)); !ok || v != 10 {
		t.Fatalf("Lookup = %d,%v", v, ok)
	}
	if _, ok := idx.Lookup(k64(2)); ok {
		t.Fatal("phantom")
	}
	if err := idx.Insert(nil, 1); err != ErrEmptyKey {
		t.Fatalf("empty key err = %v", err)
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

func TestShortKeysSameSlicePrefix(t *testing.T) {
	idx := newIdx()
	// "a", "ab", "abc" share a padded slice; lenclass disambiguates.
	ks := [][]byte{[]byte("a"), []byte("ab"), []byte("abc"), []byte("abcdefgh")}
	for i, k := range ks {
		mustInsert(t, idx, k, uint64(i))
	}
	for i, k := range ks {
		if v, ok := idx.Lookup(k); !ok || v != uint64(i) {
			t.Fatalf("Lookup(%q) = %d,%v", k, v, ok)
		}
	}
}

func TestLongKeysLayerCreation(t *testing.T) {
	idx := newIdx()
	// Shared 8-byte slices force suffix entries and layer creation.
	ks := [][]byte{
		[]byte("prefix00-suffix-A"),
		[]byte("prefix00-suffix-B"),
		[]byte("prefix00-other"),
		[]byte("prefix00"),
		[]byte("prefix00-suffix-A-longer-tail"),
	}
	for i, k := range ks {
		mustInsert(t, idx, k, uint64(i))
	}
	for i, k := range ks {
		if v, ok := idx.Lookup(k); !ok || v != uint64(i) {
			t.Fatalf("Lookup(%q) = %d,%v", k, v, ok)
		}
	}
	if _, ok := idx.Lookup([]byte("prefix00-suffix-C")); ok {
		t.Fatal("phantom suffix key")
	}
	if idx.Len() != len(ks) {
		t.Fatalf("Len = %d want %d", idx.Len(), len(ks))
	}
}

func TestDeepLayerChain(t *testing.T) {
	idx := newIdx()
	// Two 60-byte keys diverging only in the last byte exercise chained
	// intermediate layers.
	base := make([]byte, 60)
	for i := range base {
		base[i] = 'x'
	}
	k1 := append(append([]byte(nil), base...), '1')
	k2 := append(append([]byte(nil), base...), '2')
	mustInsert(t, idx, k1, 1)
	mustInsert(t, idx, k2, 2)
	if v, ok := idx.Lookup(k1); !ok || v != 1 {
		t.Fatalf("k1 = %d,%v", v, ok)
	}
	if v, ok := idx.Lookup(k2); !ok || v != 2 {
		t.Fatalf("k2 = %d,%v", v, ok)
	}
	// Updating a deep key still works.
	mustInsert(t, idx, k1, 11)
	if v, _ := idx.Lookup(k1); v != 11 {
		t.Fatal("deep update failed")
	}
}

func TestSplitsManyIntKeys(t *testing.T) {
	idx := newIdx()
	const n = 30000
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
	const n = 20000
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
	for i := uint64(0); i < 2000; i++ {
		mustInsert(t, idx, k64(i), i)
	}
	for i := uint64(0); i < 2000; i += 2 {
		del, err := idx.Delete(k64(i))
		if err != nil || !del {
			t.Fatalf("Delete(%d) = %v,%v", i, del, err)
		}
	}
	if del, _ := idx.Delete(k64(0)); del {
		t.Fatal("double delete")
	}
	for i := uint64(0); i < 2000; i++ {
		_, ok := idx.Lookup(k64(i))
		if i%2 == 0 && ok {
			t.Fatalf("deleted %d present", i)
		}
		if i%2 == 1 && !ok {
			t.Fatalf("survivor %d missing", i)
		}
	}
}

func TestDeleteSuffixAndLayerKeys(t *testing.T) {
	idx := newIdx()
	k1 := []byte("prefix00-suffix-A")
	k2 := []byte("prefix00-suffix-B")
	mustInsert(t, idx, k1, 1)
	mustInsert(t, idx, k2, 2)
	if del, err := idx.Delete(k1); err != nil || !del {
		t.Fatalf("delete layered key = %v,%v", del, err)
	}
	if _, ok := idx.Lookup(k1); ok {
		t.Fatal("deleted key present")
	}
	if v, ok := idx.Lookup(k2); !ok || v != 2 {
		t.Fatal("sibling layer key lost")
	}
}

func TestScanOrdered(t *testing.T) {
	idx := newIdx()
	var want []uint64
	for i := 0; i < 5000; i++ {
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
			t.Fatalf("order broken at %d: %d vs %d", i, got[i], want[i])
		}
	}
}

func TestScanAcrossLayers(t *testing.T) {
	idx := newIdx()
	ks := []string{
		"prefix00-aaa", "prefix00-bbb", "prefix00-ccc",
		"prefix01-aaa", "prefix02", "aaa", "zzz",
	}
	for i, k := range ks {
		mustInsert(t, idx, []byte(k), uint64(i))
	}
	sorted := append([]string(nil), ks...)
	sort.Strings(sorted)
	var got []string
	idx.Scan(nil, 0, func(k []byte, v uint64) bool {
		got = append(got, string(k))
		return true
	})
	if len(got) != len(sorted) {
		t.Fatalf("scan count %d want %d (%q)", len(got), len(sorted), got)
	}
	for i := range sorted {
		if got[i] != sorted[i] {
			t.Fatalf("order[%d] = %q want %q", i, got[i], sorted[i])
		}
	}
	// Bounded range scan from the middle.
	var bounded []string
	n := idx.Scan([]byte("prefix00-b"), 3, func(k []byte, v uint64) bool {
		bounded = append(bounded, string(k))
		return true
	})
	if n != 3 || bounded[0] != "prefix00-bbb" || bounded[1] != "prefix00-ccc" || bounded[2] != "prefix01-aaa" {
		t.Fatalf("bounded scan = %q", bounded)
	}
}

func TestConcurrentInserts(t *testing.T) {
	idx := newIdx()
	gen := keys.NewGenerator(keys.YCSBString)
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
	for id := uint64(0); id < threads*per; id += 211 {
		if v, ok := idx.Lookup(gen.Key(id)); !ok || v != id {
			t.Fatalf("final lookup %d = %d,%v", id, v, ok)
		}
	}
}

func TestConcurrentReadersScanners(t *testing.T) {
	idx := newIdx()
	for i := uint64(0); i < 3000; i++ {
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
				k := i % 3000
				if v, ok := idx.Lookup(k64(k)); ok && v != k {
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
		for i := 0; i < 100; i++ {
			idx.Scan(k64(1000), 200, func([]byte, uint64) bool { return true })
		}
	}()
	for i := uint64(3000); i < 9000; i++ {
		mustInsert(t, idx, k64(i), i)
	}
	close(stop)
	wg.Wait()
}

// TestTornSplitKeepsLaterWrites: a crash at the 21st mt.split.linked
// of a 400-key YCSB load leaves a full leaf whose upper half the linked
// sibling also holds. Writes after the restart reach that leaf before
// anything completes the split — here one turns an entry the sibling
// copied into a layer — and the replay must not truncate them away in
// favour of the sibling's stale copies: every acknowledged key reads
// back and a full scan sees Len keys.
func TestTornSplitKeepsLaterWrites(t *testing.T) {
	heap := pmem.NewFast()
	idx := New(heap)
	gen := keys.NewGenerator(keys.YCSBString)
	heap.SetInjector(crash.NewAtSite("mt.split.linked", 21))
	var acked []uint64
	for id := uint64(0); id < 400 && !heap.Injector().Fired(); id++ {
		if err := idx.Insert(gen.Key(id), id); err == nil {
			acked = append(acked, id)
		} else if !crash.IsCrash(err) {
			t.Fatal(err)
		}
	}
	if !heap.Injector().Fired() {
		t.Fatal("the load never split a leaf 21 times")
	}
	heap.SetInjector(nil)
	idx.Recover()
	for id := uint64(1_000_000); id < 1_000_080; id++ {
		mustInsert(t, idx, gen.Key(id), id)
		acked = append(acked, id)
	}
	for _, id := range acked {
		if v, ok := idx.Lookup(gen.Key(id)); !ok || v != id {
			t.Errorf("acknowledged key %s: got %d,%v", gen.Key(id), v, ok)
		}
	}
	if n := idx.Scan(nil, 0, func([]byte, uint64) bool { return true }); n != idx.Len() || n != len(acked) {
		t.Fatalf("scan of %d keys, Len %d, %d acknowledged", n, idx.Len(), len(acked))
	}
}

// Crash between the two split steps (sibling linked, permutation not yet
// truncated): readers tolerate the duplicates; the next write to the node
// replays the completion (§6.5).
func TestCrashBetweenSplitSteps(t *testing.T) {
	heap := pmem.NewFast()
	idx := New(heap)
	heap.SetInjector(crash.NewAtSite("mt.split.linked", 1))
	committed := make(map[uint64]uint64)
	for i := uint64(0); i < 5000; i++ {
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
			t.Fatalf("committed key %d lost after torn split (%d,%v)", k, got, ok)
		}
	}
	// Post-crash writes fill the node again and replay the split.
	for i := uint64(60000); i < 63000; i++ {
		mustInsert(t, idx, k64(keys.Mix64(i)), i)
	}
	for k, v := range committed {
		if got, ok := idx.Lookup(k64(k)); !ok || got != v {
			t.Fatalf("key %d lost after replay (%d,%v)", k, got, ok)
		}
	}
}

func BenchmarkInsertString(b *testing.B) {
	idx := newIdx()
	gen := keys.NewGenerator(keys.YCSBString)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := idx.Insert(gen.Key(uint64(i)), uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLookupString(b *testing.B) {
	idx := newIdx()
	gen := keys.NewGenerator(keys.YCSBString)
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

// TestRevertedRootSwapGrowsRoot: inside a fence group the fence after
// layer 0's root growth's root store waits for the next one, so a crash at
// mt.rootgrow.commit and the revert image restore the old root, a leaf whose
// split already linked and filled its right sibling. The next split of
// that sibling posts a separator one level above the root. Writers used
// to wait there for ever for a root swap that would never come; now they
// grow the root themselves. The inserts run under a deadline so that a
// return of the wait fails instead of hanging.
func TestRevertedRootSwapGrowsRoot(t *testing.T) {
	heap := pmem.New(pmem.Options{Shadow: true})
	defer heap.Release()
	tr := New(heap)
	const full = Fanout // keys that fill the root leaf
	heap.BeginFenceGroup()
	for i := uint64(1); i <= full; i++ {
		mustInsert(t, tr, k64(i), i)
		heap.GroupOpBoundary()
	}
	heap.SetInjector(crash.NewAtSite("mt.rootgrow.commit", 1))
	if err := tr.Insert(k64(full+1), full+1); !crash.IsCrash(err) {
		t.Fatalf("the insert that splits the root leaf did not crash at mt.rootgrow.commit: %v", err)
	}
	heap.SetInjector(nil)
	heap.PowerCycle(pmem.PolicyRevert, 1)
	if err := tr.Recover(); err != nil {
		t.Fatal(err)
	}
	if r := tr.layer0.root.Load(); !r.leaf {
		t.Fatal("the revert image did not restore the root leaf")
	}
	const n = 200
	done := make(chan error, 1)
	go func() {
		for i := uint64(full + 2); i < n; i++ {
			if err := tr.Insert(k64(i), i); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("inserts after the reverted root swap did not return within 2s")
	}
	if r := tr.layer0.root.Load(); r.leaf {
		t.Fatal("the root never grew")
	}
	for i := uint64(1); i < n; i++ {
		if v, ok := tr.Lookup(k64(i)); i != full+1 && (!ok || v != i) {
			t.Fatalf("Lookup(%d) = %d, %v", i, v, ok)
		}
	}
}
