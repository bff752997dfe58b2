package fastfair

import (
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/crash"
	"repro/internal/keys"
	"repro/internal/pmem"
)

func newInt() *Tree { return New(pmem.NewFast(), keys.RandInt) }

func k64(v uint64) []byte { return keys.EncodeUint64(v) }

func mustInsert(t testing.TB, tr *Tree, key []byte, v uint64) {
	t.Helper()
	if err := tr.Insert(key, v); err != nil {
		t.Fatalf("Insert(%x): %v", key, err)
	}
}

func TestBadIntKeySize(t *testing.T) {
	tr := newInt()
	if err := tr.Insert([]byte("short"), 1); err != ErrKeySize {
		t.Fatalf("Insert short key err = %v", err)
	}
	if _, ok := tr.Lookup([]byte("short")); ok {
		t.Fatal("short key lookup hit")
	}
}

func TestSplitsManyKeys(t *testing.T) {
	tr := newInt()
	const n = 20000
	for i := uint64(0); i < n; i++ {
		mustInsert(t, tr, k64(keys.Mix64(i)), i)
	}
	for i := uint64(0); i < n; i++ {
		if v, ok := tr.Lookup(k64(keys.Mix64(i))); !ok || v != i {
			t.Fatalf("Lookup(%d) = %d,%v", i, v, ok)
		}
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestSequentialInsertAscendingDescending(t *testing.T) {
	up := newInt()
	down := newInt()
	const n = 5000
	for i := uint64(0); i < n; i++ {
		mustInsert(t, up, k64(i), i)
		mustInsert(t, down, k64(n-1-i), n-1-i)
	}
	for i := uint64(0); i < n; i++ {
		if v, ok := up.Lookup(k64(i)); !ok || v != i {
			t.Fatalf("asc Lookup(%d) = %d,%v", i, v, ok)
		}
		if v, ok := down.Lookup(k64(i)); !ok || v != i {
			t.Fatalf("desc Lookup(%d) = %d,%v", i, v, ok)
		}
	}
}

// TestScanShortIntegerStart: an integer-key start shorter than 8 bytes
// (a range migration trims trailing zeros off its window start) scans
// exactly what its zero padding to 8 bytes scans.
func TestScanShortIntegerStart(t *testing.T) {
	tr := newInt()
	for i := uint64(0); i < 3000; i++ {
		v := keys.Mix64(i)
		mustInsert(t, tr, k64(v), v)
	}
	scan := func(start []byte) []uint64 {
		var got []uint64
		tr.Scan(start, 50, func(k []byte, v uint64) bool {
			got = append(got, keys.DecodeUint64(k))
			return true
		})
		return got
	}
	for _, start := range [][]byte{{0x80}, {0x80, 0x01}, {0x80, 1, 2, 3, 4, 5, 6}} {
		padded := make([]byte, 8)
		copy(padded, start)
		got, want := scan(start), scan(padded)
		if len(want) != 50 || !slices.Equal(got, want) {
			t.Fatalf("start % x: scanned %v, padded start scans %v", start, got, want)
		}
	}
}

func TestConcurrentReadersWriters(t *testing.T) {
	tr := newInt()
	for i := uint64(0); i < 5000; i++ {
		mustInsert(t, tr, k64(i), i)
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
				k := i % 5000
				if v, ok := tr.Lookup(k64(k)); ok && v != k {
					t.Errorf("reader saw %d for key %d", v, k)
					return
				}
				i++
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			tr.Scan(k64(100), 50, func([]byte, uint64) bool { return true })
		}
	}()
	for i := uint64(5000); i < 15000; i++ {
		mustInsert(t, tr, k64(i), i)
	}
	close(stop)
	wg.Wait()
}

// §7.5 durability finding: FAST & FAIR does not persist the initial node
// allocation holding the root pointer. Faithful mode reproduces the bug,
// Fixed mode persists it.
func TestDurabilityInitialAllocationBug(t *testing.T) {
	heapF := pmem.New(pmem.Options{Track: true})
	NewWithMode(heapF, keys.RandInt, Faithful)
	if v := heapF.Tracker().Check(); len(v) == 0 {
		t.Fatal("Faithful mode should leave the initial allocation unpersisted (the published bug)")
	}
	heapX := pmem.New(pmem.Options{Track: true})
	NewWithMode(heapX, keys.RandInt, Fixed)
	if v := heapX.Tracker().Check(); len(v) != 0 {
		t.Fatalf("Fixed mode left unpersisted lines: %v", v)
	}
}

// The paper's §3 observation: repeated crashes during splits degrade the
// tree (parents never learn about siblings, so chains grow), but in a
// correct implementation no data may be lost. Verify data survives many
// mid-split crashes even though structure degrades.
func TestRepeatedSplitCrashesLoseNothing(t *testing.T) {
	heap := pmem.NewFast()
	tr := New(heap, keys.RandInt)
	committed := make(map[uint64]uint64)
	id := uint64(0)
	for round := 0; round < 30; round++ {
		inj := crash.NewAtSite("ff.split.linked", 1)
		heap.SetInjector(inj)
		for i := 0; i < 200; i++ {
			k := keys.Mix64(id)
			err := tr.Insert(k64(k), id)
			if crash.IsCrash(err) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			committed[k] = id
			id++
		}
		heap.SetInjector(nil)
		tr.Recover()
	}
	for k, v := range committed {
		if got, ok := tr.Lookup(k64(k)); !ok || got != v {
			t.Fatalf("key %d lost after repeated split crashes (%d,%v)", k, got, ok)
		}
	}
}

func BenchmarkInsertInt(b *testing.B) {
	tr := newInt()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Insert(k64(keys.Mix64(uint64(i))), uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLookupInt(b *testing.B) {
	tr := newInt()
	const n = 1 << 16
	for i := uint64(0); i < n; i++ {
		if err := tr.Insert(k64(keys.Mix64(i)), i); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := tr.Lookup(k64(keys.Mix64(uint64(i) % n))); !ok {
			b.Fatal("miss")
		}
	}
}

// TestRevertedRootSwapGrowsRoot: inside a fence group the fence after
// the root split's root store waits for the next one, so a crash at
// ff.rootsplit.commit and the revert image restore the old root, a leaf whose
// split already linked and filled its right sibling. The next split of
// that sibling posts a separator one level above the root. Writers used
// to wait there for ever for a root swap that would never come; now they
// grow the root themselves. The inserts run under a deadline so that a
// return of the wait fails instead of hanging.
func TestRevertedRootSwapGrowsRoot(t *testing.T) {
	heap := pmem.New(pmem.Options{Shadow: true})
	defer heap.Release()
	tr := New(heap, keys.RandInt)
	const full = Cardinality // keys that fill the root leaf
	heap.BeginFenceGroup()
	for i := uint64(1); i <= full; i++ {
		mustInsert(t, tr, k64(i), i)
		heap.GroupOpBoundary()
	}
	heap.SetInjector(crash.NewAtSite("ff.rootsplit.commit", 1))
	if err := tr.Insert(k64(full+1), full+1); !crash.IsCrash(err) {
		t.Fatalf("the insert that splits the root leaf did not crash at ff.rootsplit.commit: %v", err)
	}
	heap.SetInjector(nil)
	heap.PowerCycle(pmem.PolicyRevert, 1)
	if err := tr.Recover(); err != nil {
		t.Fatal(err)
	}
	if r := tr.root.Load(); !r.leaf {
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
	if r := tr.root.Load(); r.leaf {
		t.Fatal("the root never grew")
	}
	for i := uint64(1); i < n; i++ {
		if v, ok := tr.Lookup(k64(i)); i != full+1 && (!ok || v != i) {
			t.Fatalf("Lookup(%d) = %d, %v", i, v, ok)
		}
	}
}
