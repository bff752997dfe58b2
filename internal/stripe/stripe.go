// Package stripe provides contention-free building blocks for the
// simulated-PM instrumentation layer: a cache-line-padded striped counter
// and a sharded bump allocator for abstract line addresses.
//
// Every operation of every converted index routes through pmem.Heap, so
// any shared cache line inside the heap is ping-ponged between all
// benchmark threads and caps the throughput of *every* index — the
// harness, not the index, becomes what the multi-thread figures measure
// (the measurement-overhead pitfall called out by "Evaluating Persistent
// Memory Range Indexes: Part Two"). The types here keep per-thread
// bookkeeping on private cache lines:
//
//   - Counter spreads atomic adds over padded cells selected by a cheap
//     per-goroutine shard key; Load sums the cells, so aggregate totals
//     are exact even though increments never contend.
//   - Allocator hands out line-address ranges from per-shard chunks
//     reserved in bulk from a single global cursor, so the common
//     allocation touches only the shard's own cache line.
//
// Shard keys come from Key, which derives a per-goroutine value from the
// goroutine's own stack address in a few nanoseconds — cheap enough to
// fetch on every counter add without eating the savings striping buys.
package stripe

import (
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"
)

// padBytes is the stripe padding granularity. 128 bytes covers the
// adjacent-line spatial prefetcher pairing on x86, which otherwise drags
// a neighbour's line into the ping-pong.
const padBytes = 128

// numShards is the stripe width: a power of two sized to the machine at
// init. The floor of 8 keeps striping structurally meaningful (and
// testable) even on single-CPU containers; the cap bounds Load/Reset
// iteration cost.
var numShards = func() int {
	p := 8
	for p < runtime.GOMAXPROCS(0) {
		p <<= 1
	}
	if p > 128 {
		p = 128
	}
	return p
}()

// NumShards reports the stripe width used by Counter and Allocator.
func NumShards() int { return numShards }

// Key returns a per-goroutine shard key derived from the address of a
// stack variable: goroutine stacks are disjoint memory regions, so after
// discarding intra-stack frame offsets (Go's minimum stack is 2 KB) and
// mixing, distinct goroutines land on distinct keys with high
// probability. The key is not perfectly stable — stack growth moves it —
// and two goroutines may collide on a shard; neither affects
// correctness, only which padded cell absorbs the add. This costs a few
// nanoseconds, versus ~15 ns for a sync.Pool token and an unavailable
// (runtime-private) P id.
func Key() uint64 {
	var b byte
	a := uint64(uintptr(unsafe.Pointer(&b)))
	a >>= 11                // drop intra-stack offsets (2 KB minimum stack)
	a *= 0x9E3779B97F4A7C15 // spread neighbouring stacks across shards
	return a >> 32
}

// cell is one padded counter stripe. The padding keeps adjacent cells on
// distinct (prefetch-paired) cache lines.
type cell struct {
	n atomic.Uint64
	_ [padBytes - 8]byte
}

// Counter is a striped uint64 counter. Adds from different shards touch
// different cache lines; Load sums all cells, so the aggregate equals
// the serial total exactly. The zero value is not usable; call
// NewCounter.
type Counter struct {
	cells []cell
	mask  uint64
}

// NewCounter returns a counter with NumShards stripes.
func NewCounter() *Counter {
	return &Counter{cells: make([]cell, numShards), mask: uint64(numShards - 1)}
}

// Add adds d to the calling goroutine's stripe.
func (c *Counter) Add(d uint64) { c.cells[Key()&c.mask].n.Add(d) }

// AddKey is Add with a shard key the caller already fetched via Key —
// hot paths that bump several counters fetch the key once.
func (c *Counter) AddKey(k, d uint64) { c.cells[k&c.mask].n.Add(d) }

// Load returns the exact aggregate of all stripes. Concurrent Adds that
// race with Load may or may not be included, as with a plain atomic.
func (c *Counter) Load() uint64 {
	var t uint64
	for i := range c.cells {
		t += c.cells[i].n.Load()
	}
	return t
}

// Reset zeroes every stripe. For an exact zero the caller must quiesce
// writers first (the harness resets only between measured phases).
func (c *Counter) Reset() {
	for i := range c.cells {
		c.cells[i].n.Store(0)
	}
}

// DefaultChunkLines is the number of line addresses a shard reserves
// from the global cursor per refill. 4096 lines (256 KB of simulated
// PM) makes global-cursor traffic ~4096× rarer than allocations.
const DefaultChunkLines = 4096

// allocShard is one shard's private allocation window [cur, end). The
// mutex is effectively uncontended (shards track Ps); it exists so that
// two goroutines that happen to share a shard key stay correct.
type allocShard struct {
	mu       sync.Mutex
	cur, end uint64
	_        [padBytes]byte
}

// Allocator is a striped bump allocator over abstract line addresses.
// Each shard bump-allocates from a privately reserved chunk and only
// touches the shared global cursor on refill, so concurrent allocations
// from different shards never contend. Allocations never overlap, and
// an address is never handed out twice: a line address is a number, and
// the allocator dies with the heap that owns it.
type Allocator struct {
	global atomic.Uint64
	start  uint64
	chunk  uint64
	shards []allocShard
	mask   uint64
}

// NewAllocator returns an allocator whose addresses start at start.
// chunkLines is the per-shard reservation size; values < 1 select
// DefaultChunkLines.
func NewAllocator(start uint64, chunkLines int) *Allocator {
	if chunkLines < 1 {
		chunkLines = DefaultChunkLines
	}
	a := &Allocator{
		start:  start,
		chunk:  uint64(chunkLines),
		shards: make([]allocShard, numShards),
		mask:   uint64(numShards - 1),
	}
	a.global.Store(start)
	return a
}

// Alloc reserves lines consecutive line addresses and returns the first.
func (a *Allocator) Alloc(lines uint64) uint64 { return a.AllocKey(Key(), lines) }

// AllocKey is Alloc with a shard key the caller already fetched via Key.
func (a *Allocator) AllocKey(k, lines uint64) uint64 {
	if lines >= a.chunk {
		// Oversized request: take it straight from the global cursor
		// rather than burning a whole chunk's locality on it.
		return a.global.Add(lines) - lines
	}
	s := &a.shards[k&a.mask]
	s.mu.Lock()
	if s.cur+lines > s.end {
		// Refill with a fresh chunk; the old window's tail is abandoned
		// (unused numbers, not a resource).
		s.cur = a.global.Add(a.chunk) - a.chunk
		s.end = s.cur + a.chunk
	}
	base := s.cur
	s.cur += lines
	s.mu.Unlock()
	return base
}

// Reserved returns the number of line addresses reserved from the global
// cursor so far: an upper bound on (and, modulo unconsumed chunk tails,
// a proxy for) the allocated footprint.
func (a *Allocator) Reserved() uint64 { return a.global.Load() - a.start }
