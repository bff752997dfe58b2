// Package cachesim implements a set-associative last-level-cache (LLC)
// simulator with LRU replacement.
//
// RECIPE's evaluation (Fig 4c, Fig 4d, Table 4) reports LLC misses per
// operation collected with perf on a 32 MB LLC. Go programs cannot read
// hardware performance counters portably, so the benchmark harness routes
// the line-granularity memory accesses made by each index through this
// simulator and reports simulated misses instead. The default geometry
// matches the paper's machine: 32 MB capacity, 16-way associativity,
// 64-byte lines.
package cachesim

import (
	"fmt"
	"sync"

	"repro/internal/stripe"
)

// LineSize is the cache line size in bytes assumed throughout the
// repository (matching x86).
const LineSize = 64

// Config describes a cache geometry.
type Config struct {
	// CapacityBytes is the total cache capacity.
	CapacityBytes int
	// Ways is the associativity.
	Ways int
}

// defaultConfig mirrors the evaluation machine's 32 MB, 16-way LLC.
func defaultConfig() Config {
	return Config{CapacityBytes: 32 << 20, Ways: 16}
}

// Cache is a set-associative LRU cache over abstract line addresses. It is
// safe for concurrent use; each set is guarded by its own lock so that
// multi-threaded benchmark runs do not serialise on a single mutex, and
// the hit/miss statistics are striped (internal/stripe) so counting does
// not reintroduce the shared cache lines the set locks avoid. Accesses
// are derived: every Access is exactly one hit or one miss.
type Cache struct {
	sets    []set
	setMask uint64
	hits    *stripe.Counter
	misses  *stripe.Counter
}

type set struct {
	mu    sync.Mutex
	lines []uint64 // line addresses, most-recently-used first
	_     [40]byte // pad to keep adjacent set locks off one cache line
}

// New builds a cache from cfg. The number of sets is rounded down to a
// power of two so the set index is a mask.
func New(cfg Config) *Cache {
	if cfg.CapacityBytes <= 0 || cfg.Ways <= 0 {
		panic(fmt.Sprintf("cachesim: invalid config %+v", cfg))
	}
	nsets := cfg.CapacityBytes / LineSize / cfg.Ways
	if nsets < 1 {
		nsets = 1
	}
	// Round down to power of two.
	p := 1
	for p*2 <= nsets {
		p *= 2
	}
	c := &Cache{
		sets:    make([]set, p),
		setMask: uint64(p - 1),
		hits:    stripe.NewCounter(),
		misses:  stripe.NewCounter(),
	}
	for i := range c.sets {
		c.sets[i].lines = make([]uint64, 0, cfg.Ways)
	}
	return c
}

// Access touches one line address and reports whether it hit. The address
// space is abstract: callers supply any stable 64-bit identifier per
// 64-byte line (the pmem heap derives them from object IDs and offsets).
func (c *Cache) Access(line uint64) bool {
	// Scramble the line so abstract sequential IDs spread across sets the
	// way physical addresses do.
	h := line * 0x9E3779B97F4A7C15
	s := &c.sets[h&c.setMask]
	s.mu.Lock()
	for i, l := range s.lines {
		if l == line {
			// Move to MRU position.
			copy(s.lines[1:i+1], s.lines[:i])
			s.lines[0] = line
			s.mu.Unlock()
			c.hits.Add(1)
			return true
		}
	}
	if len(s.lines) < cap(s.lines) {
		s.lines = append(s.lines, 0)
	}
	copy(s.lines[1:], s.lines)
	s.lines[0] = line
	s.mu.Unlock()
	c.misses.Add(1)
	return false
}

// invalidate drops a line if present (used when simulating flushes with
// invalidation semantics such as clflush; clwb leaves the line cached and
// does not call this).
func (c *Cache) invalidate(line uint64) {
	h := line * 0x9E3779B97F4A7C15
	s := &c.sets[h&c.setMask]
	s.mu.Lock()
	for i, l := range s.lines {
		if l == line {
			s.lines = append(s.lines[:i], s.lines[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
}

// Stats is a snapshot of cache counters.
type Stats struct {
	Accesses uint64
	Hits     uint64
	Misses   uint64
}

// missRate returns misses/accesses, or 0 when no accesses were recorded.
func (s Stats) missRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Stats returns a snapshot of the counters. Accesses is hits + misses —
// exact once concurrent Access calls have completed.
func (c *Cache) Stats() Stats {
	h, m := c.hits.Load(), c.misses.Load()
	return Stats{Accesses: h + m, Hits: h, Misses: m}
}

// resetStats zeroes the counters without disturbing cache contents, so a
// harness can exclude the load phase from measured-phase statistics.
// Callers must quiesce Access traffic for an exact zero.
func (c *Cache) resetStats() {
	c.hits.Reset()
	c.misses.Reset()
}

// Sets returns the number of sets (for tests).
func (c *Cache) Sets() int { return len(c.sets) }
