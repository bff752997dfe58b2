package clht

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/crash"
	"repro/internal/pmem"
)

func newSmall(t testing.TB) *Index {
	t.Helper()
	return NewWithBuckets(pmem.NewFast(), 4)
}

func TestInsertLookup(t *testing.T) {
	idx := New(pmem.NewFast())
	if err := idx.Insert(42, 100); err != nil {
		t.Fatal(err)
	}
	v, ok := idx.Lookup(42)
	if !ok || v != 100 {
		t.Fatalf("Lookup(42) = %d,%v want 100,true", v, ok)
	}
	if _, ok := idx.Lookup(43); ok {
		t.Fatal("Lookup(43) should miss")
	}
	if idx.Len() != 1 {
		t.Fatalf("Len = %d, want 1", idx.Len())
	}
}

func TestInsertOverwrites(t *testing.T) {
	idx := New(pmem.NewFast())
	mustInsert(t, idx, 7, 1)
	mustInsert(t, idx, 7, 2)
	if v, _ := idx.Lookup(7); v != 2 {
		t.Fatalf("value = %d, want 2 after overwrite", v)
	}
	if idx.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (update must not double-count)", idx.Len())
	}
}

func TestZeroKeyRejected(t *testing.T) {
	idx := New(pmem.NewFast())
	if err := idx.Insert(0, 1); err != ErrZeroKey {
		t.Fatalf("Insert(0) err = %v, want ErrZeroKey", err)
	}
	if _, err := idx.Delete(0); err != ErrZeroKey {
		t.Fatalf("Delete(0) err = %v, want ErrZeroKey", err)
	}
	if _, ok := idx.Lookup(0); ok {
		t.Fatal("Lookup(0) should miss")
	}
}

func TestDelete(t *testing.T) {
	idx := New(pmem.NewFast())
	mustInsert(t, idx, 5, 50)
	del, err := idx.Delete(5)
	if err != nil || !del {
		t.Fatalf("Delete(5) = %v,%v", del, err)
	}
	if _, ok := idx.Lookup(5); ok {
		t.Fatal("key survived delete")
	}
	del, err = idx.Delete(5)
	if err != nil || del {
		t.Fatal("second delete should report absent")
	}
	if idx.Len() != 0 {
		t.Fatalf("Len = %d, want 0", idx.Len())
	}
}

func TestSlotReuseAfterDelete(t *testing.T) {
	idx := newSmall(t)
	mustInsert(t, idx, 1, 10)
	if _, err := idx.Delete(1); err != nil {
		t.Fatal(err)
	}
	mustInsert(t, idx, 2, 20)
	if v, ok := idx.Lookup(2); !ok || v != 20 {
		t.Fatalf("Lookup(2) = %d,%v", v, ok)
	}
}

func TestOverflowChains(t *testing.T) {
	// 1-bucket table: everything chains.
	idx := NewWithBuckets(pmem.NewFast(), 1)
	for k := uint64(1); k <= 6; k++ {
		mustInsert(t, idx, k, k*10)
	}
	for k := uint64(1); k <= 6; k++ {
		if v, ok := idx.Lookup(k); !ok || v != k*10 {
			t.Fatalf("Lookup(%d) = %d,%v", k, v, ok)
		}
	}
}

func TestRehashGrowsAndPreserves(t *testing.T) {
	idx := NewWithBuckets(pmem.NewFast(), 2)
	const n = 2000
	for k := uint64(1); k <= n; k++ {
		mustInsert(t, idx, k, k)
	}
	if idx.Buckets() <= 2 {
		t.Fatalf("table never grew: %d buckets", idx.Buckets())
	}
	for k := uint64(1); k <= n; k++ {
		if v, ok := idx.Lookup(k); !ok || v != k {
			t.Fatalf("post-rehash Lookup(%d) = %d,%v", k, v, ok)
		}
	}
	if idx.Len() != n {
		t.Fatalf("Len = %d, want %d", idx.Len(), n)
	}
}

func TestConcurrent(t *testing.T) {
	idx := NewWithBuckets(pmem.NewFast(), 2)
	const threads = 8
	const per = 3000
	var wg sync.WaitGroup
	for g := 0; g < threads; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			base := uint64(g*per) + 1
			for i := uint64(0); i < per; i++ {
				if err := idx.Insert(base+i, base+i); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				if v, ok := idx.Lookup(base + i); !ok || v != base+i {
					t.Errorf("readback %d = %d,%v", base+i, v, ok)
					return
				}
			}
		}()
	}
	wg.Wait()
	if idx.Len() != threads*per {
		t.Fatalf("Len = %d, want %d", idx.Len(), threads*per)
	}
	for g := 0; g < threads; g++ {
		base := uint64(g*per) + 1
		for i := uint64(0); i < per; i += 97 {
			if v, ok := idx.Lookup(base + i); !ok || v != base+i {
				t.Fatalf("final Lookup(%d) = %d,%v", base+i, v, ok)
			}
		}
	}
}

func TestConcurrentReadersDuringWrites(t *testing.T) {
	idx := NewWithBuckets(pmem.NewFast(), 2)
	for k := uint64(1); k <= 1000; k++ {
		mustInsert(t, idx, k, k)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(1); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := i%1000 + 1
				if v, ok := idx.Lookup(k); ok && v != k {
					t.Errorf("reader saw wrong value %d for key %d", v, k)
					return
				}
			}
		}()
	}
	for k := uint64(1001); k <= 4000; k++ {
		mustInsert(t, idx, k, k)
	}
	close(stop)
	wg.Wait()
}

// enumerateCrashes crashes 300 inserts into a two-bucket table at every
// crash-site visit in turn, lets afterCrash do to the heap what the failure
// model under test does, recovers, and requires every acknowledged key back
// with its value and the index fully writable. The tiny table chains
// overflow buckets, doubles seven times and reclaims the stale slots the
// doublings leave, so the rehash, reclaim and overflow sites are visited —
// harness.SiteCampaign's 1024-bucket table never reaches them.
func enumerateCrashes(t *testing.T, model string, newHeap func() *pmem.Heap, afterCrash func(heap *pmem.Heap, n int64)) {
	for n := int64(1); ; n++ {
		heap := newHeap()
		idx := NewWithBuckets(heap, 2)
		inj := crash.NewNth(n)
		heap.SetInjector(inj)

		committed := make(map[uint64]uint64)
		var crashed bool
		for k := uint64(1); k <= 300; k++ {
			err := idx.Insert(k, k*3)
			if crash.IsCrash(err) {
				crashed = true
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			committed[k] = k * 3
		}
		heap.SetInjector(nil)
		if !crashed {
			if n == 1 {
				t.Fatal("no crash sites reached at all")
			}
			// Every visit of this complete run was some earlier n's crash,
			// so every site it passed has been crashed at.
			for _, site := range []string{"clht.rehash.built", "clht.rehash.swap", "clht.insert.reclaim",
				"clht.insert.overflow.init", "clht.insert.overflow.link"} {
				if inj.Sites()[site] == 0 {
					t.Errorf("%s: crash site %s never reached", model, site)
				}
			}
			return // enumerated every crash state
		}
		afterCrash(heap, n)
		idx.Recover()
		// No committed key may be lost.
		for k, v := range committed {
			got, ok := idx.Lookup(k)
			if !ok || got != v {
				t.Fatalf("%s, crash state %d: committed key %d lost (got %d,%v)", model, n, k, got, ok)
			}
		}
		checkRange(t, idx, committed, fmt.Sprintf("%s, crash state %d", model, n))
		// Writes must still succeed after recovery.
		for k := uint64(1000); k < 1050; k++ {
			if err := idx.Insert(k, k); err != nil {
				t.Fatalf("%s, crash state %d: post-crash insert failed: %v", model, n, err)
			}
			if v, ok := idx.Lookup(k); !ok || v != k {
				t.Fatalf("%s, crash state %d: post-crash readback failed", model, n)
			}
		}
	}
}

// TestCrashRecoveryEnumerated runs the enumeration on a heap without a
// shadow image: every store stays visible after the crash, so it checks
// recovery's own logic apart from any write-back loss.
func TestCrashRecoveryEnumerated(t *testing.T) {
	enumerateCrashes(t, "visible", pmem.NewFast, func(*pmem.Heap, int64) {})
}

// TestCrashRecoveryPowerCycled is the same enumeration on a shadowed heap
// power-cycled under each restart image: intact keeps every store, revert
// throws away whatever was not written back and fenced, keep keeps what was
// written back, torn flips a coin per object. A table or an overflow bucket
// published before its write-back reads as zeros afterwards and loses
// acknowledged keys.
func TestCrashRecoveryPowerCycled(t *testing.T) {
	for _, policy := range pmem.Policies {
		enumerateCrashes(t, policy.String(),
			func() *pmem.Heap { return pmem.New(pmem.Options{Shadow: true}) },
			func(heap *pmem.Heap, n int64) { heap.PowerCycle(policy, n) })
	}
}

// TestBucketIsOneCacheLine pins the layout rule: a bucket is bucketBytes in
// DRAM as in the layout it models, and the default table's segment and the
// segments its doublings append start on a line boundary, so a head bucket
// never straddles.
func TestBucketIsOneCacheLine(t *testing.T) {
	if got := unsafe.Sizeof(bucket{}); got != bucketBytes {
		t.Fatalf("unsafe.Sizeof(bucket{}) = %d, want %d", got, bucketBytes)
	}
	idx := New(pmem.NewFast())
	for round := 0; round < 3; round++ {
		idx.grow(idx.root.level.Load())
	}
	for _, s := range idx.root.segs[:idx.root.level.Load()+1] {
		if a := uintptr(unsafe.Pointer(&s.buckets[0])); a%bucketBytes != 0 {
			t.Fatalf("%d-bucket segment starts at %#x: not line-aligned", len(s.buckets), a)
		}
	}
}

func TestInsertFlushCount(t *testing.T) {
	// §6.2: common-case inserts require one cache-line flush — and one
	// fence: the value and the committing key share the bucket line.
	heap := pmem.NewFast()
	idx := NewWithBuckets(heap, 1024)
	before := heap.Stats()
	mustInsert(t, idx, 12345, 1)
	d := heap.Stats().Sub(before)
	if d.Clwb != 1 {
		t.Fatalf("common-case insert issued %d clwb, want 1", d.Clwb)
	}
	if d.Fence != 1 {
		t.Fatalf("common-case insert issued %d fences, want 1", d.Fence)
	}
}

func TestRecoverResetsLocks(t *testing.T) {
	idx := newSmall(t)
	// Abandon a bucket lock as a crashed writer would.
	head := &idx.root.segs[0].buckets[0]
	head.lock.Lock(&idx.gen)
	idx.resize.Lock(&idx.gen)
	idx.Recover()
	if !head.lock.TryLock(&idx.gen) || !idx.resize.TryLock(&idx.gen) {
		t.Fatal("Recover did not reset locks")
	}
}

// checkRange requires Range to yield each key at most once, every
// committed key with its value, and nothing else but the one insert a crash
// interrupted: a stale entry a doubling left behind would surface as a
// duplicate or an extra key.
func checkRange(t *testing.T, idx *Index, committed map[uint64]uint64, what string) {
	t.Helper()
	seen := make(map[uint64]bool)
	extra := 0
	idx.Range(func(k, v uint64) bool {
		if seen[k] {
			t.Fatalf("%s: Range yielded key %d twice", what, k)
		}
		seen[k] = true
		if want, ok := committed[k]; !ok {
			extra++
		} else if v != want {
			t.Fatalf("%s: Range yielded %d=%d, want %d", what, k, v, want)
		}
		return true
	})
	if extra > 1 || len(seen)-extra != len(committed) {
		t.Fatalf("%s: Range yielded %d keys (%d unacknowledged), want the %d acknowledged", what, len(seen), extra, len(committed))
	}
}

// TestRevertMidSplitHidesStale crashes a doubling of a table whose earlier
// doublings left stale copies of every moved key behind, holding values
// that updates have since replaced, and power-cycles under every policy.
// Whichever level survives, Lookup and Range must see only the updated
// values, each key once.
func TestRevertMidSplitHidesStale(t *testing.T) {
	for _, site := range []string{"clht.rehash.built", "clht.rehash.swap"} {
		for _, policy := range pmem.Policies {
			heap := pmem.New(pmem.Options{Shadow: true})
			idx := NewWithBuckets(heap, 2)
			committed := make(map[uint64]uint64)
			for k := uint64(1); k <= 200; k++ {
				mustInsert(t, idx, k, k)
				committed[k] = k
			}
			for k := uint64(1); k <= 200; k++ {
				mustInsert(t, idx, k, k+1000)
				committed[k] = k + 1000
			}
			level := idx.root.level.Load()
			heap.SetInjector(crash.NewAtSite(site, 1))
			for k := uint64(201); ; k++ {
				err := idx.Insert(k, k+1000)
				if crash.IsCrash(err) {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				committed[k] = k + 1000
			}
			heap.SetInjector(nil)
			heap.PowerCycle(policy, 1)
			idx.Recover()
			what := fmt.Sprintf("%s at %s (level %d → %d)", policy, site, level, idx.root.level.Load())
			for k, v := range committed {
				if got, ok := idx.Lookup(k); !ok || got != v {
					t.Fatalf("%s: Lookup(%d) = %d,%v, want %d", what, k, got, ok, v)
				}
			}
			checkRange(t, idx, committed, what)
		}
	}
}

// TestRangeSkipsStaleAfterDoublings: after six doublings, with updates and
// deletes between them, Range yields exactly Len() distinct keys, each with
// its latest value.
func TestRangeSkipsStaleAfterDoublings(t *testing.T) {
	idx := NewWithBuckets(pmem.NewFast(), 16)
	oracle := make(map[uint64]uint64)
	rng := rand.New(rand.NewSource(7))
	for k := uint64(1); idx.root.level.Load() < 6; k++ {
		mustInsert(t, idx, k, k)
		oracle[k] = k
		if r := uint64(rng.Intn(int(k))) + 1; k%3 == 0 {
			mustInsert(t, idx, r, r+k)
			oracle[r] = r + k
		} else if k%7 == 0 {
			if _, err := idx.Delete(r); err != nil {
				t.Fatal(err)
			}
			delete(oracle, r)
		}
	}
	if idx.Len() != len(oracle) {
		t.Fatalf("Len = %d, oracle %d", idx.Len(), len(oracle))
	}
	checkRange(t, idx, oracle, "after 6 doublings")
}

// unmix inverts mix: an xor-shift by 33 or more undoes itself, and an odd
// multiplier has an inverse mod 2^64 (five Newton steps reach 64 bits).
func unmix(x uint64) uint64 {
	inv := func(c uint64) uint64 {
		y := c
		for i := 0; i < 5; i++ {
			y *= 2 - c*y
		}
		return y
	}
	x ^= x >> 33
	x *= inv(0xC4CEB9FE1A85EC53)
	x ^= x >> 33
	x *= inv(0xFF51AFD7ED558CCD)
	return x ^ (x >> 33)
}

// TestCollidingKeysDoNotDouble inserts 64 keys whose hashes share their low
// 24 bits: no number of doublings would separate them, so the one long
// chain must grow instead of doubling the table again and again.
func TestCollidingKeysDoNotDouble(t *testing.T) {
	idx := New(pmem.NewFast())
	var ks []uint64
	for i := uint64(1); i <= 64; i++ {
		k := unmix(i<<24|0xC0FFEE) ^ seed
		if hash(k)&(1<<24-1) != 0xC0FFEE {
			t.Fatalf("unmix: hash(%#x) = %#x", k, hash(k))
		}
		ks = append(ks, k)
		mustInsert(t, idx, k, i)
	}
	if idx.Buckets() >= 2*DefaultBuckets {
		t.Fatalf("64 colliding keys grew the table to %d buckets", idx.Buckets())
	}
	for i, k := range ks {
		if v, ok := idx.Lookup(k); !ok || v != uint64(i+1) {
			t.Fatalf("Lookup(%#x) = %d,%v, want %d", k, v, ok, i+1)
		}
	}
}

// TestReclaimHidesValueFromOldLevel holds the pre-doubling level while a
// writer reclaims a stale slot and stops between its value and key stores:
// a lookup through the old level, for which the stale key is still live,
// must not pair it with the writer's value. Clearing the key first is what
// prevents that.
func TestReclaimHidesValueFromOldLevel(t *testing.T) {
	heap := pmem.NewFast()
	idx := NewWithBuckets(heap, 1)
	firstWith := func(bit uint64) uint64 {
		for k := uint64(1); ; k++ {
			if hash(k)&1 == bit {
				return k
			}
		}
	}
	moved, fresh := firstWith(1), firstWith(0)
	mustInsert(t, idx, moved, 111)
	idx.grow(0) // moved is copied to chain 1; its slot in chain 0 is stale
	heap.SetInjector(crash.NewAtSite("clht.insert.val", 1))
	if err := idx.Insert(fresh, 222); !crash.IsCrash(err) {
		t.Fatalf("reclaiming insert: err = %v, want a crash after its value store", err)
	}
	heap.SetInjector(nil)
	if v, ok := idx.lookupAt(hash(moved)&idx.mask(0), moved); ok && v != 111 {
		t.Fatalf("lookup through the old level paired the stale key with %d", v)
	}
	if v, ok := idx.Lookup(moved); !ok || v != 111 {
		t.Fatalf("Lookup(moved) = %d,%v, want 111", v, ok)
	}
}

// TestConcurrentReadersThroughDoublings reads a stable key set while a
// writer doubles the table eight times and more, at GOMAXPROCS 1 and 4.
// Every read must hit with its value: a reader that probed a chain before
// a doubling and found the key's stale slot reclaimed retries at the new
// level.
func TestConcurrentReadersThroughDoublings(t *testing.T) {
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		idx := NewWithBuckets(pmem.NewFast(), 2)
		const stable = 512
		for k := uint64(1); k <= stable; k++ {
			mustInsert(t, idx, k, k*5)
		}
		start := idx.Buckets()
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for r := 0; r < 3; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for i := uint64(r); ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					k := i%stable + 1
					if v, ok := idx.Lookup(k); !ok || v != k*5 {
						t.Errorf("GOMAXPROCS %d: Lookup(%d) = %d,%v, want %d", procs, k, v, ok, k*5)
						return
					}
				}
			}(r)
		}
		for k := uint64(stable + 1); idx.Buckets() < start<<8; k++ {
			mustInsert(t, idx, k, k)
		}
		close(stop)
		wg.Wait()
		runtime.GOMAXPROCS(prev)
	}
}

func mustInsert(t testing.TB, idx *Index, k, v uint64) {
	t.Helper()
	if err := idx.Insert(k, v); err != nil {
		t.Fatalf("Insert(%d,%d): %v", k, v, err)
	}
}

func BenchmarkInsert(b *testing.B) {
	heap := pmem.NewFast()
	idx := New(heap)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := idx.Insert(uint64(i)+1, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLookup probes a table of 1M keys — 64 MB of buckets, far outside
// the last-level cache — in an order that revisits a bucket only after
// every other, so ns/op is the cost of a lookup whose bucket is a miss.
func BenchmarkLookup(b *testing.B) {
	heap := pmem.NewFast()
	idx := New(heap)
	const n = 1 << 20
	for i := uint64(1); i <= n; i++ {
		if err := idx.Insert(i, i); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint64(i)*7919%n + 1
		if _, ok := idx.Lookup(k); !ok {
			b.Fatalf("miss %d", k)
		}
	}
}

func ExampleIndex() {
	idx := New(pmem.NewFast())
	_ = idx.Insert(1, 100)
	v, ok := idx.Lookup(1)
	fmt.Println(v, ok)
	// Output: 100 true
}
