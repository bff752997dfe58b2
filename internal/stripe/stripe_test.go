package stripe

import (
	"sort"
	"sync"
	"testing"
)

func TestNumShardsSane(t *testing.T) {
	n := NumShards()
	if n < 8 || n > 128 {
		t.Fatalf("NumShards() = %d, want within [8, 128]", n)
	}
	if n&(n-1) != 0 {
		t.Fatalf("NumShards() = %d, want a power of two", n)
	}
}

func TestKeyStableWithinFrame(t *testing.T) {
	// Two calls from the same frame see the same stack region, so the
	// key is deterministic for a goroutine at a given depth.
	if k1, k2 := Key(), Key(); k1 != k2 {
		t.Fatalf("Key() unstable within one frame: %d then %d", k1, k2)
	}
}

func TestKeySpreadsAcrossGoroutines(t *testing.T) {
	// Goroutine stacks are disjoint, so a batch of goroutines must not
	// all collapse onto a single key.
	const n = 64
	keys := make([]uint64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			keys[i] = Key()
		}()
	}
	wg.Wait()
	distinct := make(map[uint64]bool, n)
	for _, k := range keys {
		distinct[k] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("64 goroutines produced %d distinct keys", len(distinct))
	}
}

// The headline exactness property: the striped aggregate equals the
// serial total, no matter how adds interleave across goroutines.
func TestCounterConcurrentAddExact(t *testing.T) {
	c := NewCounter()
	const goroutines, per = 16, 20_000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != goroutines*per {
		t.Fatalf("Load() = %d, want %d", got, goroutines*per)
	}
}

func TestCounterVariableDeltasExact(t *testing.T) {
	c := NewCounter()
	const goroutines, per = 8, 5_000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(1); i <= per; i++ {
				c.Add(i)
			}
		}()
	}
	wg.Wait()
	want := uint64(goroutines) * (per * (per + 1) / 2)
	if got := c.Load(); got != want {
		t.Fatalf("Load() = %d, want %d", got, want)
	}
}

func TestCounterAddKeySpreadsByKey(t *testing.T) {
	c := NewCounter()
	// Distinct keys modulo the stripe width must land in distinct cells;
	// the aggregate is still exact.
	for k := uint64(0); k < uint64(NumShards()); k++ {
		c.AddKey(k, k+1)
	}
	var want uint64
	for k := uint64(0); k < uint64(NumShards()); k++ {
		want += k + 1
	}
	if got := c.Load(); got != want {
		t.Fatalf("Load() = %d, want %d", got, want)
	}
	occupied := 0
	for i := range c.cells {
		if c.cells[i].n.Load() != 0 {
			occupied++
		}
	}
	if occupied != NumShards() {
		t.Fatalf("distinct keys occupied %d cells, want %d", occupied, NumShards())
	}
}

func TestCounterReset(t *testing.T) {
	c := NewCounter()
	for k := uint64(0); k < 100; k++ {
		c.AddKey(k, 7)
	}
	c.Reset()
	if got := c.Load(); got != 0 {
		t.Fatalf("Load() after Reset = %d, want 0", got)
	}
	c.Add(3)
	if got := c.Load(); got != 3 {
		t.Fatalf("Load() after Reset+Add = %d, want 3", got)
	}
}

// interval is one allocation's [base, base+lines) range.
type interval struct{ base, end uint64 }

func checkDisjoint(t *testing.T, ivs []interval, floor uint64) {
	t.Helper()
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].base < ivs[j].base })
	for i, iv := range ivs {
		if iv.base < floor {
			t.Fatalf("allocation %d at base %d below floor %d", i, iv.base, floor)
		}
		if i > 0 && ivs[i-1].end > iv.base {
			t.Fatalf("allocations overlap: [%d,%d) and [%d,%d)",
				ivs[i-1].base, ivs[i-1].end, iv.base, iv.end)
		}
	}
}

// Allocations from concurrent goroutines must never overlap, including
// the chunk-refill and oversized-allocation paths. Run under -race in CI.
func TestAllocatorConcurrentNonOverlap(t *testing.T) {
	a := NewAllocator(1, 64) // small chunks force frequent refills
	const goroutines, per = 8, 4_000
	results := make([][]interval, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			ivs := make([]interval, 0, per)
			for i := 0; i < per; i++ {
				lines := uint64(1 + (g+i)%9)
				if i%97 == 0 {
					lines = 100 // oversized: exceeds the 64-line chunk
				}
				base := a.Alloc(lines)
				ivs = append(ivs, interval{base, base + lines})
			}
			results[g] = ivs
		}()
	}
	wg.Wait()
	var all []interval
	for _, ivs := range results {
		all = append(all, ivs...)
	}
	checkDisjoint(t, all, 1)
}

func TestAllocatorStartAndReserved(t *testing.T) {
	a := NewAllocator(10, 16)
	base := a.Alloc(4)
	if base < 10 {
		t.Fatalf("Alloc base %d below start 10", base)
	}
	if r := a.Reserved(); r != 16 {
		t.Fatalf("Reserved() = %d, want one 16-line chunk", r)
	}
	// An oversized allocation bypasses chunking and reserves exactly its
	// own size.
	a.Alloc(1000)
	if r := a.Reserved(); r != 16+1000 {
		t.Fatalf("Reserved() = %d, want %d", r, 16+1000)
	}
}

func TestAllocatorSerialBumpWithinChunk(t *testing.T) {
	a := NewAllocator(1, DefaultChunkLines)
	b1 := a.AllocKey(5, 2)
	b2 := a.AllocKey(5, 3)
	if b2 != b1+2 {
		t.Fatalf("same-shard allocations not contiguous: %d then %d", b1, b2)
	}
}

func TestAllocatorDefaultChunk(t *testing.T) {
	a := NewAllocator(0, 0)
	a.Alloc(1)
	if r := a.Reserved(); r != DefaultChunkLines {
		t.Fatalf("Reserved() = %d, want DefaultChunkLines %d", r, DefaultChunkLines)
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	c := NewCounter()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Add(1)
		}
	})
	if c.Load() != uint64(b.N) {
		b.Fatal("lost adds")
	}
}

func BenchmarkAllocatorAlloc(b *testing.B) {
	a := NewAllocator(1, DefaultChunkLines)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			a.Alloc(1)
		}
	})
}
