package cachesim

import (
	"sync"
	"testing"
	"testing/quick"
)

func small() *Cache {
	// 8 sets x 4 ways.
	return New(Config{CapacityBytes: 8 * 4 * LineSize, Ways: 4})
}

func TestFirstAccessMisses(t *testing.T) {
	c := small()
	if c.Access(1) {
		t.Fatal("first access should miss")
	}
	if !c.Access(1) {
		t.Fatal("second access should hit")
	}
	s := c.Stats()
	if s.Accesses != 2 || s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	// Single-set cache with 2 ways: third distinct line evicts the LRU.
	c := New(Config{CapacityBytes: 2 * LineSize, Ways: 2})
	if c.Sets() != 1 {
		t.Fatalf("Sets() = %d, want 1", c.Sets())
	}
	c.Access(1) // miss: [1]
	c.Access(2) // miss: [2 1]
	c.Access(1) // hit:  [1 2]
	c.Access(3) // miss, evicts LRU line 2: [3 1]
	if !c.Access(1) {
		t.Fatal("line 1 should still be resident") // now [1 3]
	}
	if c.Access(2) {
		t.Fatal("line 2 should have been evicted (LRU)")
	}
}

func TestInvalidate(t *testing.T) {
	c := small()
	c.Access(7)
	c.invalidate(7)
	if c.Access(7) {
		t.Fatal("access after invalidate should miss")
	}
}

func TestResetStatsKeepsContents(t *testing.T) {
	c := small()
	c.Access(9)
	c.resetStats()
	if s := c.Stats(); s.Accesses != 0 || s.Misses != 0 {
		t.Fatalf("stats not reset: %+v", s)
	}
	if !c.Access(9) {
		t.Fatal("contents should survive resetStats")
	}
}

func TestMissRate(t *testing.T) {
	if (Stats{}).missRate() != 0 {
		t.Fatal("zero accesses should give 0 miss rate")
	}
	s := Stats{Accesses: 4, Misses: 1}
	if got := s.missRate(); got != 0.25 {
		t.Fatalf("missRate = %v, want 0.25", got)
	}
}

func TestConcurrentAccessCounts(t *testing.T) {
	c := New(defaultConfig())
	var wg sync.WaitGroup
	const per = 10000
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Access(uint64(g*per + i))
			}
		}()
	}
	wg.Wait()
	if s := c.Stats(); s.Accesses != 4*per {
		t.Fatalf("accesses = %d, want %d", s.Accesses, 4*per)
	}
}

// Property: hits + misses == accesses, and re-accessing a line with no
// interleaving evictions always hits.
func TestQuickAccountingInvariant(t *testing.T) {
	f := func(lines []uint64) bool {
		c := New(defaultConfig())
		for _, l := range lines {
			c.Access(l)
		}
		s := c.Stats()
		return s.Hits+s.Misses == s.Accesses && s.Accesses == uint64(len(lines))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: working sets no larger than the associativity of a single-set
// cache never miss after the first touch.
func TestQuickSmallWorkingSetAlwaysHits(t *testing.T) {
	f := func(seed uint64) bool {
		c := New(Config{CapacityBytes: 4 * LineSize, Ways: 4})
		ws := []uint64{seed, seed + 1, seed + 2, seed + 3}
		for _, l := range ws {
			c.Access(l)
		}
		for round := 0; round < 3; round++ {
			for _, l := range ws {
				if !c.Access(l) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with zero ways should panic")
		}
	}()
	New(Config{CapacityBytes: 1024, Ways: 0})
}
