package pmem

import (
	"sort"
	"sync"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/crash"
)

func TestAllocHandles(t *testing.T) {
	h := NewFast()
	o1 := h.Alloc(64)
	o2 := h.Alloc(65)
	if !o1.Valid() || !o2.Valid() {
		t.Fatal("allocations should be valid")
	}
	if o1.Lines() != 1 {
		t.Fatalf("64B alloc spans %d lines, want 1", o1.Lines())
	}
	if o2.Lines() != 2 {
		t.Fatalf("65B alloc spans %d lines, want 2", o2.Lines())
	}
	if (Obj{}).Valid() {
		t.Fatal("zero Obj must be invalid")
	}
	s := h.Stats()
	if s.Allocs != 2 || s.AllocBytes != 64+65 {
		t.Fatalf("alloc stats = %+v", s)
	}
}

func TestZeroSizeAllocStillValid(t *testing.T) {
	h := NewFast()
	o := h.Alloc(0)
	if !o.Valid() {
		t.Fatal("zero-size alloc should round up to a valid handle")
	}
}

func TestPersistCountsLines(t *testing.T) {
	h := NewFast()
	o := h.Alloc(256)
	h.Persist(o, 0, 64) // 1 line
	h.Persist(o, 0, 65) // 2 lines
	h.Persist(o, 63, 2) // straddles a boundary: 2 lines
	h.Persist(o, 0, 0)  // no-op
	if got := h.Stats().Clwb; got != 5 {
		t.Fatalf("clwb = %d, want 5", got)
	}
}

func TestFenceCounts(t *testing.T) {
	h := NewFast()
	h.Fence()
	h.Fence()
	if got := h.Stats().Fence; got != 2 {
		t.Fatalf("fence = %d, want 2", got)
	}
}

func TestPersistFence(t *testing.T) {
	h := NewFast()
	o := h.Alloc(64)
	h.PersistFence(o, 0, 8)
	s := h.Stats()
	if s.Clwb != 1 || s.Fence != 1 {
		t.Fatalf("stats = %+v, want 1 clwb + 1 fence", s)
	}
}

func TestStatsSub(t *testing.T) {
	h := NewFast()
	o := h.Alloc(64)
	before := h.Stats()
	h.PersistFence(o, 0, 8)
	d := h.Stats().Sub(before)
	if d.Clwb != 1 || d.Fence != 1 || d.Allocs != 0 {
		t.Fatalf("delta = %+v", d)
	}
}

func TestTrackerFlushCoverage(t *testing.T) {
	h := New(Options{Track: true})
	o := h.Alloc(128) // allocation dirties both lines
	if v := h.Tracker().Check(); len(v) != 2 {
		t.Fatalf("fresh alloc should leave 2 dirty lines, got %v", v)
	}
	h.Persist(o, 0, 128)
	if v := h.Tracker().Check(); len(v) != 2 {
		t.Fatalf("clwb without fence should leave 2 pending lines, got %v", v)
	}
	h.Fence()
	if v := h.Tracker().Check(); len(v) != 0 {
		t.Fatalf("after clwb+fence tracker should be clean, got %v", v)
	}
}

func TestTrackerRedirtyAfterFlush(t *testing.T) {
	h := New(Options{Track: true})
	o := h.Alloc(64)
	h.PersistFence(o, 0, 64)
	h.Dirty(o, 0, 8)
	v := h.Tracker().Check()
	if len(v) != 1 || v[0].Kind != "dirty" {
		t.Fatalf("store after flush should re-dirty, got %v", v)
	}
	h.PersistFence(o, 0, 8)
	if v := h.Tracker().Check(); len(v) != 0 {
		t.Fatalf("want clean, got %v", v)
	}
}

func TestTrackerPartialFlushDetected(t *testing.T) {
	h := New(Options{Track: true})
	o := h.Alloc(128)
	h.PersistFence(o, 0, 64) // second line never flushed
	v := h.Tracker().Check()
	if len(v) != 1 || v[0].Kind != "dirty" {
		t.Fatalf("want one dirty violation for unflushed line, got %v", v)
	}
}

func TestTrackerReset(t *testing.T) {
	h := New(Options{Track: true})
	h.Alloc(64)
	h.Tracker().Reset()
	if v := h.Tracker().Check(); len(v) != 0 {
		t.Fatalf("after Reset want clean, got %v", v)
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Line: 7, Kind: "dirty"}
	if v.String() != "line 7 left dirty" {
		t.Fatalf("String() = %q", v.String())
	}
}

// TestRangePastAllocationPanics: a range that reaches past the object's
// lines would address the next object's, so every verb that maps one
// refuses it.
func TestRangePastAllocationPanics(t *testing.T) {
	h := New(Options{Track: true, LLC: cachesim.New(cachesim.Config{CapacityBytes: 1 << 16, Ways: 4})})
	o := h.Alloc(8)
	for name, f := range map[string]func(){
		"Persist": func() { h.Persist(o, 64, 8) },
		"Dirty":   func() { h.Dirty(o, 60, 8) },
		"Commit":  func() { h.Commit(o, 56, 16, "") },
		"Load":    func() { h.Load(o, 64, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s past a one-line allocation did not panic", name)
				}
			}()
			f()
		}()
	}
	h.PersistFence(o, 0, 64) // the whole line is in range
}

func TestLLCIntegration(t *testing.T) {
	llc := cachesim.New(cachesim.Config{CapacityBytes: 1 << 16, Ways: 4})
	h := New(Options{LLC: llc})
	o := h.Alloc(64)
	h.Dirty(o, 0, 8)
	h.Load(o, 0, 8)
	h.Persist(o, 0, 8)
	s := h.Stats()
	if s.LLC.Accesses != 3 {
		t.Fatalf("LLC accesses = %d, want 3", s.LLC.Accesses)
	}
	if s.LLC.Misses != 1 {
		t.Fatalf("LLC misses = %d, want 1 (first touch only)", s.LLC.Misses)
	}
}

func TestCrashPointRoutesToInjector(t *testing.T) {
	in := crash.NewNth(1)
	h := New(Options{Injector: in})
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = crash.Recover(r)
			}
		}()
		h.CrashPoint("pmem.test")
		return nil
	}()
	if !crash.IsCrash(err) {
		t.Fatalf("err = %v, want crash", err)
	}
}

func TestSetInjector(t *testing.T) {
	h := NewFast()
	if h.Injector() != nil {
		t.Fatal("fast heap should have no injector")
	}
	in := crash.NewNth(10)
	h.SetInjector(in)
	if h.Injector() != in {
		t.Fatal("SetInjector did not install")
	}
	h.CrashPoint("x") // should not fire (n=10)
	if in.Visits() != 1 {
		t.Fatalf("visits = %d, want 1", in.Visits())
	}
}

func TestDelaySpinRuns(t *testing.T) {
	h := New(Options{DelayClwb: 10, DelayFence: 10})
	o := h.Alloc(64)
	h.PersistFence(o, 0, 8) // just exercise the spin path
	if h.Stats().Clwb != 1 {
		t.Fatal("counting broken with delays enabled")
	}
}

// TestStatsConservationConcurrent is the striping correctness anchor:
// aggregated Stats() totals after a concurrent run must equal the serial
// expectation exactly, even though every increment went to a
// shard-private cell.
func TestStatsConservationConcurrent(t *testing.T) {
	t.Run("striped", func(t *testing.T) {
		h := New(Options{})
		const goroutines, per = 8, 5_000
		const size = 100 // spans 2 lines -> 2 clwb per Persist
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					o := h.Alloc(size)
					h.Persist(o, 0, size)
					h.Fence()
				}
			}()
		}
		wg.Wait()
		s := h.Stats()
		const n = goroutines * per
		if s.Allocs != n || s.AllocBytes != n*size || s.Clwb != 2*n || s.Fence != n {
			t.Fatalf("stats = %+v, want Allocs=%d AllocBytes=%d Clwb=%d Fence=%d",
				s, n, n*size, 2*n, n)
		}
	})
}

// TestStatsMatchSerialArithmetic runs a serial sequence of mixed sizes
// and checks every counter against what the programming model says it
// costs: one allocation and its bytes per Alloc, one clwb per cache line
// a Persist spans, one fence per Fence.
func TestStatsMatchSerialArithmetic(t *testing.T) {
	h := New(Options{})
	var want Stats
	for i := 0; i < 1_000; i++ {
		size := uintptr(1 + i%300)
		o := h.Alloc(size)
		want.Allocs++
		want.AllocBytes += uint64(size)
		h.Persist(o, 0, size)
		want.Clwb += uint64((size + LineSize - 1) / LineSize)
		if i%3 == 0 {
			h.Fence()
			want.Fence++
		}
		h.PersistFence(o, 0, 8)
		want.Clwb++
		want.Fence++
	}
	if got := h.Stats(); got != want {
		t.Fatalf("stats %+v, want %+v", got, want)
	}
}

// Concurrent allocations must hand out non-overlapping line ranges and
// never touch reserved line 0 (so Obj{} stays detectably invalid).
func TestAllocConcurrentNonOverlap(t *testing.T) {
	h := NewFast()
	const goroutines, per = 8, 3_000
	type iv struct{ base, end uint64 }
	results := make([][]iv, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			ivs := make([]iv, 0, per)
			for i := 0; i < per; i++ {
				size := uintptr(1 + (g*per+i)%500)
				o := h.Alloc(size)
				ivs = append(ivs, iv{o.base, o.base + uint64(o.lines)})
			}
			results[g] = ivs
		}()
	}
	wg.Wait()
	var all []iv
	for _, ivs := range results {
		all = append(all, ivs...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].base < all[j].base })
	for i, x := range all {
		if x.base == 0 {
			t.Fatal("allocation at reserved line 0")
		}
		if i > 0 && all[i-1].end > x.base {
			t.Fatalf("allocations overlap: [%d,%d) and [%d,%d)",
				all[i-1].base, all[i-1].end, x.base, x.end)
		}
	}
}

// Tracker striping must preserve per-line protocol under concurrency:
// after every goroutine persists and fences everything it dirtied, no
// violations remain.
func TestTrackerConcurrentFlushCoverage(t *testing.T) {
	h := New(Options{Track: true})
	const goroutines, per = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				o := h.Alloc(128)
				h.Dirty(o, 0, 128)
				h.Persist(o, 0, 128)
				h.Fence()
			}
		}()
	}
	wg.Wait()
	if v := h.Tracker().Check(); len(v) != 0 {
		t.Fatalf("tracker left %d violations after full persist+fence: %v", len(v), v[:min(len(v), 5)])
	}
}

func BenchmarkPersistFenceFastHeap(b *testing.B) {
	h := NewFast()
	o := h.Alloc(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.PersistFence(o, 0, 8)
	}
}
