// Package clht implements P-CLHT, the RECIPE conversion of the Cache-Line
// Hash Table (David et al., ASPLOS '15) to persistent memory (§6.2).
//
// CLHT restricts each bucket to one 64-byte cache line holding three
// key/value pairs, a lock word, and an overflow pointer, so the common
// case costs one cache-line access. Readers are non-blocking and use
// atomic snapshots of key/value pairs; writers lock the bucket and commit
// each insert or delete with a single 8-byte atomic store (the key write),
// ordering the value store before it.
//
// The bucket array is a directory of power-of-two segments under one
// hash seed fixed for the index's lifetime, so a doubling splits every
// chain j in place into j and j+N: it appends a segment holding the upper
// half and commits it with one atomic store of the persistent level word.
// The C original and the paper's conversion instead copy the whole table
// and swap a table pointer; both commit with a single atomic store.
//
// CLHT therefore satisfies RECIPE Condition #1 — every update becomes
// visible through one hardware-atomic store — and the conversion consists
// only of cache-line write-backs and fences after the appropriate stores
// (30 LOC in the paper). The persistence points in this file are marked
// with "RECIPE:" comments; cmd/loccount counts them to regenerate Table 1.
package clht

import (
	"errors"
	"math/bits"
	"sync/atomic"
	"unsafe"

	"repro/internal/crash"
	"repro/internal/pmem"
	"repro/internal/pmlock"
)

// EntriesPerBucket is the number of key/value pairs per 64-byte bucket.
const EntriesPerBucket = 3

// Simulated persistent layout of a bucket: exactly one cache line.
//
//	off  0..23  keys[3]
//	off 24..47  vals[3]
//	off 48..55  lock (not meaningfully persistent; a restart frees it)
//	off 56..63  next
const (
	bucketBytes = 64
	offKeys     = 0
	offVals     = 24
	offNext     = 56
)

// Simulated persistent layout of the root:
//
//	off 0..7   level: the table holds B·2^level buckets
//	off 8+8k   segment k's address, k < maxSegments
const (
	maxSegments = 32
	rootBytes   = 8 + 8*maxSegments
)

// seed is the hash seed. It never changes, so a doubling moves a key only
// from chain j to chain j+N.
const seed = 0x5bd1e995

// ErrZeroKey is returned for key 0, which CLHT reserves as the empty-slot
// marker.
var ErrZeroKey = errors.New("clht: key 0 is reserved")

// bucket is bucketBytes in DRAM too, so an operation on an unchained bucket
// touches one cache line, as the layout it models promises. Where its
// persistent image lives is therefore not stored in it: a head bucket's
// follows from its index (Index.chain), an overflow bucket's sits behind it.
type bucket struct {
	lock pmlock.Mutex
	_    uint32
	keys [EntriesPerBucket]atomic.Uint64
	vals [EntriesPerBucket]atomic.Uint64
	next atomic.Pointer[bucket]
}

// ovfBucket is a chained bucket. Only the head of a chain lives in a
// segment, so every bucket reached through next is one of these.
type ovfBucket struct {
	bucket
	pm pmem.Obj
}

// segment is one power-of-two piece of the bucket array: segment 0 holds
// buckets [0, B), segment k > 0 holds [B·2^(k-1), B·2^k). From 512
// buckets up — every size New's default takes — its array is a
// page-aligned large span, so each head bucket is exactly one cache line.
type segment struct {
	buckets []bucket
	first   uint64 // index of buckets[0]
	pm      pmem.Obj
}

// root is the persistent root line group: the level word and the segment
// directory. A reader loads level and then only the segments it exposes,
// which the doubling that stored level wrote before it.
type root struct {
	level atomic.Uint64
	segs  [maxSegments]segment
}

// chain is a bucket chain: its head bucket, which lives in a segment, and
// that bucket's persistent location.
type chain struct {
	head *bucket
	pm   pmem.Obj
	off  uintptr
}

// loc returns the persistent location of b, a bucket of c.
func (c chain) loc(b *bucket) (pmem.Obj, uintptr) {
	if b == c.head {
		return c.pm, c.off
	}
	return (*ovfBucket)(unsafe.Pointer(b)).pm, 0
}

func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	x *= 0xC4CEB9FE1A85EC53
	return x ^ (x >> 33)
}

func hash(key uint64) uint64 { return mix(key ^ seed) }

// live reports whether slot key k belongs to chain j under mask. A doubling
// leaves the keys it moves to j+N behind in j, where they are stale: dead
// to every reader, and free to a writer.
func live(k, j, mask uint64) bool { return k != 0 && hash(k)&mask == j }

// Index is a persistent cache-line hash table. Keys are non-zero uint64s
// and values are uint64s, matching the paper's evaluation of unordered
// indexes with 8-byte integer keys. Index is safe for concurrent use.
type Index struct {
	heap  *pmem.Heap
	pm    pmem.Obj // root's persistent image
	shift uint     // log2 of the base bucket count B
	root  root

	resize pmlock.Mutex
	gen    pmlock.Gen // stamps every lock of the table; volatile

	// maxChain is the overflow-chain length that triggers a doubling.
	maxChain int

	count atomic.Int64
}

// DefaultBuckets is the initial bucket count: 1024 buckets, a 64 KB
// table. The paper starts from 48 KB (§7: "a starting hash table size of
// 48KB"); a split doubling needs a power-of-two base.
const DefaultBuckets = 1024

// New returns an empty P-CLHT backed by heap with the default initial
// size.
func New(heap *pmem.Heap) *Index { return NewWithBuckets(heap, DefaultBuckets) }

// NewWithBuckets returns an empty P-CLHT with n initial buckets (rounded
// up to a power of two).
func NewWithBuckets(heap *pmem.Heap, n int) *Index {
	idx := &Index{heap: heap, maxChain: 2}
	for 1<<idx.shift < n {
		idx.shift++
	}
	idx.pm = heap.Alloc(rootBytes)
	heap.Shadow(idx.pm, &idx.root)
	seg := idx.newSegment(1<<idx.shift, 0)
	idx.root.segs[0] = seg
	// RECIPE: persist the freshly initialised table and the root before
	// the index is usable (the durability bug the paper found in FAST &
	// FAIR and CCEH was an unpersisted initial allocation).
	heap.Persist(seg.pm, 0, uintptr(len(seg.buckets))*bucketBytes)
	heap.PersistFence(idx.pm, 0, rootBytes)
	return idx
}

func (idx *Index) newSegment(n, first uint64) segment {
	s := segment{buckets: make([]bucket, n), first: first}
	s.pm = idx.heap.Alloc(uintptr(n) * bucketBytes)
	idx.heap.ShadowSlice(s.pm, s.buckets, bucketBytes)
	return s
}

func (idx *Index) mask(level uint64) uint64 { return 1<<(idx.shift+uint(level)) - 1 }

// chain returns chain j: one bits.Len64 picks its segment.
func (idx *Index) chain(j uint64) chain {
	s := &idx.root.segs[bits.Len64(j>>idx.shift)]
	i := j - s.first
	return chain{&s.buckets[i], s.pm, uintptr(i) * bucketBytes}
}

// Lookup returns the value stored for key. Reads are non-blocking: they
// walk the bucket chain using atomic loads and take an atomic snapshot of
// each candidate pair by re-checking the key after reading the value. No
// liveness filter is needed: a stale key in chain j never equals a key
// that hashes to j. A miss re-reads the level and retries if it moved, as
// a doubling may have moved key on and a writer reclaimed its stale slot.
func (idx *Index) Lookup(key uint64) (uint64, bool) {
	if key == 0 {
		return 0, false
	}
	h := hash(key)
	level := idx.root.level.Load()
	for {
		if v, ok := idx.lookupAt(h&idx.mask(level), key); ok {
			return v, true
		}
		now := idx.root.level.Load()
		if now == level {
			return 0, false
		}
		level = now
	}
}

// lookupAt probes chain j for key.
func (idx *Index) lookupAt(j, key uint64) (uint64, bool) {
	c := idx.chain(j)
	for b := c.head; b != nil; b = b.next.Load() {
		pm, off := c.loc(b)
		idx.heap.Load(pm, off, bucketBytes)
		for i := 0; i < EntriesPerBucket; i++ {
			if b.keys[i].Load() == key {
				v := b.vals[i].Load()
				if b.keys[i].Load() == key {
					return v, true
				}
			}
		}
	}
	return 0, false
}

// Insert stores value under key, overwriting any existing value. It
// returns ErrZeroKey for key 0 and crash.ErrCrashed when interrupted by a
// simulated crash.
func (idx *Index) Insert(key, value uint64) (err error) {
	if key == 0 {
		return ErrZeroKey
	}
	defer crash.Catch(&err)
	h := hash(key)
	for {
		level := idx.root.level.Load()
		mask := idx.mask(level)
		c := idx.chain(h & mask)
		c.head.lock.Lock(&idx.gen)
		// A doubling may have exposed a new level while we waited for the
		// chain lock; retry under it.
		if idx.root.level.Load() != level {
			c.head.lock.Unlock()
			continue
		}
		ok := idx.insertLocked(c, h&mask, mask, key, value)
		c.head.lock.Unlock()
		if ok {
			return nil
		}
		// Chain too long: double and retry.
		idx.grow(level)
	}
}

// Update overwrites the value under key: Insert's upsert
// (core.PointIndex.Update).
func (idx *Index) Update(key, value uint64) error { return idx.Insert(key, value) }

// insertLocked performs the insert into chain c, index j under mask, with
// the lock of the chain's head bucket held. It returns false when the
// chain is over the overflow threshold and a doubling is required.
func (idx *Index) insertLocked(c chain, j, mask, key, value uint64) bool {
	n := 0
	last := c.head
	for b := last; b != nil; b = b.next.Load() {
		pm, off := c.loc(b)
		idx.heap.Load(pm, off, bucketBytes)
		for i := 0; i < EntriesPerBucket; i++ {
			if b.keys[i].Load() == key {
				// Update: a single atomic 8-byte store is the commit.
				b.vals[i].Store(value)
				idx.heap.Dirty(pm, off+offVals+uintptr(i)*8, 8)
				// RECIPE: flush + fence after the committing store.
				idx.heap.PersistFence(pm, off+offVals+uintptr(i)*8, 8)
				idx.heap.CrashPoint("clht.update.commit")
				return true
			}
		}
		n++
		last = b
	}
	// key is absent: take the chain's first empty or stale slot. A second
	// walk keeps the hashing off the update path.
	var free *bucket
	freeIdx := -1
	for b := c.head; b != nil && freeIdx < 0; b = b.next.Load() {
		for i := 0; i < EntriesPerBucket; i++ {
			if !live(b.keys[i].Load(), j, mask) {
				free, freeIdx = b, i
				break
			}
		}
	}
	if freeIdx >= 0 {
		// Write the value first, then commit with the atomic key store.
		// Both live in the same cache line, which persists its stores in
		// program order (x86-TSO), so no fence sits between them and one
		// write-back after the commit persists the pair; an eviction
		// between the stores persists only the value, which is invisible
		// and therefore harmless. A stale slot's key is cleared first, so
		// a reader still on the pre-doubling level, for which the stale
		// key is live, cannot pair it with the new value.
		pm, off := c.loc(free)
		if free.keys[freeIdx].Load() != 0 {
			free.keys[freeIdx].Store(0)
			idx.heap.Dirty(pm, off+offKeys+uintptr(freeIdx)*8, 8)
			idx.heap.CrashPoint("clht.insert.reclaim")
		}
		free.vals[freeIdx].Store(value)
		idx.heap.Dirty(pm, off+offVals+uintptr(freeIdx)*8, 8)
		idx.heap.CrashPoint("clht.insert.val")
		free.keys[freeIdx].Store(key)
		idx.heap.Dirty(pm, off+offKeys+uintptr(freeIdx)*8, 8)
		// RECIPE: flush + fence after the committing key store.
		idx.heap.PersistFence(pm, off, bucketBytes)
		idx.heap.CrashPoint("clht.insert.commit")
		idx.count.Add(1)
		return true
	}
	// Keys that share their low hash bits never separate, so a long chain
	// doubles the table only while it is at least half full; below that it
	// just grows.
	if n > idx.maxChain && 2*uint64(idx.Len()) >= mask+1 {
		return false
	}
	// Append an overflow bucket: initialise it off-path, persist it, then
	// commit by atomically linking it.
	nb := idx.newOverflow()
	nb.keys[0].Store(key)
	nb.vals[0].Store(value)
	// RECIPE: persist the new bucket before it becomes reachable.
	idx.heap.Persist(nb.pm, 0, bucketBytes)
	idx.heap.Fence()
	idx.heap.CrashPoint("clht.insert.overflow.init")
	last.next.Store(&nb.bucket)
	pm, off := c.loc(last)
	idx.heap.Dirty(pm, off+offNext, 8)
	// RECIPE: flush + fence after the committing link store.
	idx.heap.PersistFence(pm, off+offNext, 8)
	idx.heap.CrashPoint("clht.insert.overflow.link")
	idx.count.Add(1)
	return true
}

func (idx *Index) newOverflow() *ovfBucket {
	b := &ovfBucket{pm: idx.heap.Alloc(bucketBytes)}
	idx.heap.Shadow(b.pm, b)
	return b
}

// Delete removes key, returning true if it was present.
func (idx *Index) Delete(key uint64) (deleted bool, err error) {
	if key == 0 {
		return false, ErrZeroKey
	}
	defer crash.Catch(&err)
	h := hash(key)
	for {
		level := idx.root.level.Load()
		c := idx.chain(h & idx.mask(level))
		c.head.lock.Lock(&idx.gen)
		if idx.root.level.Load() != level {
			c.head.lock.Unlock()
			continue
		}
		for b := c.head; b != nil; b = b.next.Load() {
			for i := 0; i < EntriesPerBucket; i++ {
				if b.keys[i].Load() == key {
					// Deletion commits with a single atomic store of 0 to
					// the key (§6.2).
					b.keys[i].Store(0)
					pm, off := c.loc(b)
					idx.heap.Dirty(pm, off+offKeys+uintptr(i)*8, 8)
					// RECIPE: flush + fence after the committing store.
					idx.heap.PersistFence(pm, off+offKeys+uintptr(i)*8, 8)
					idx.heap.CrashPoint("clht.delete.commit")
					idx.count.Add(-1)
					c.head.lock.Unlock()
					return true, nil
				}
			}
		}
		c.head.lock.Unlock()
		return false, nil
	}
}

// grow doubles the table from N buckets by splitting every chain j into j
// and j+N. It locks every head bucket, so no writer can race the copy;
// appends a segment of N buckets; copies the live entries of chain j whose
// hash bit N is set into chain j+N; writes the segment back; and commits
// with a single atomic store of the level word — Condition #1 for the
// structural change. The old segments are never written: the entries
// left behind in j are dead under the new level (see live), and under the
// old level nothing has moved, so a crash at any point leaves whichever
// level is durable consistent. The paper attributes P-CLHT's Load-A
// deficit vs CCEH to its globally locked, whole-table rehash (§7.2); the
// split keeps the lock but copies, allocates and writes back only the new
// half.
func (idx *Index) grow(level uint64) {
	idx.resize.Lock(&idx.gen)
	defer idx.resize.Unlock()
	if idx.root.level.Load() != level {
		return // someone else already doubled
	}
	k := level + 1
	if k == maxSegments {
		panic("clht: segment directory full")
	}
	n := uint64(1) << (idx.shift + uint(level))
	for j := uint64(0); j < n; j++ {
		idx.chain(j).head.lock.Lock(&idx.gen)
	}
	seg := idx.newSegment(n, n)
	var ovf []*ovfBucket
	for j := uint64(0); j < n; j++ {
		dst, e := &seg.buckets[j], 0
		for b := idx.chain(j).head; b != nil; b = b.next.Load() {
			for f := 0; f < EntriesPerBucket; f++ {
				key := b.keys[f].Load()
				if key == 0 {
					continue
				}
				// live(key, j, n-1), moving to the new half: one hash.
				if h := hash(key); h&(n-1) != j || h&n == 0 {
					continue
				}
				if e == EntriesPerBucket {
					nb := idx.newOverflow()
					ovf = append(ovf, nb)
					dst.next.Store(&nb.bucket)
					dst, e = &nb.bucket, 0
				}
				dst.keys[e].Store(key)
				dst.vals[e].Store(b.vals[f].Load())
				e++
			}
		}
	}
	// RECIPE: persist the new half, then the overflow buckets chained in
	// it once they are full, then its directory slot; fence; then commit
	// with the atomic level store and persist it.
	idx.heap.Persist(seg.pm, 0, uintptr(n)*bucketBytes)
	for _, b := range ovf {
		// RECIPE: each overflow bucket of the new half.
		idx.heap.Persist(b.pm, 0, bucketBytes)
	}
	idx.root.segs[k] = seg
	idx.heap.Dirty(idx.pm, uintptr(8+8*k), 8)
	// RECIPE: the directory slot, then one fence for all of it.
	idx.heap.Persist(idx.pm, uintptr(8+8*k), 8)
	idx.heap.Fence()
	idx.heap.CrashPoint("clht.rehash.built")
	idx.root.level.Store(k)
	idx.heap.Dirty(idx.pm, 0, 8)
	// RECIPE: flush + fence after the committing level store.
	idx.heap.PersistFence(idx.pm, 0, 8)
	idx.heap.CrashPoint("clht.rehash.swap")
	for j := uint64(0); j < n; j++ {
		idx.chain(j).head.lock.Unlock()
	}
}

// Len returns the number of live keys.
func (idx *Index) Len() int { return int(idx.count.Load()) }

// Range calls fn for every live key/value pair until fn returns false.
// Enumeration order is unspecified. Each pair is read with the same
// atomic (value, key-recheck) snapshot lookups use, so Range is safe
// against concurrent writers, but it only observes a consistent cut of
// the table when writers are quiesced (the migration copy path holds
// the handoff window exclusively while it enumerates).
func (idx *Index) Range(fn func(key, value uint64) bool) {
	mask := idx.mask(idx.root.level.Load())
	for j := uint64(0); j <= mask; j++ {
		c := idx.chain(j)
		for b := c.head; b != nil; b = b.next.Load() {
			pm, off := c.loc(b)
			idx.heap.Load(pm, off, bucketBytes)
			for e := 0; e < EntriesPerBucket; e++ {
				k := b.keys[e].Load()
				if !live(k, j, mask) {
					continue
				}
				v := b.vals[e].Load()
				if b.keys[e].Load() != k {
					continue
				}
				if !fn(k, v) {
					return
				}
			}
		}
	}
}

// Buckets returns the current bucket count (for tests and capacity
// reporting).
func (idx *Index) Buckets() int { return int(idx.mask(idx.root.level.Load()) + 1) }

// Recover restarts the table after a crash with a new lock generation,
// which frees every lock the crash left held (§6, "Lock
// initialization"). CLHT needs no other recovery: a crashed insert left
// an invisible value store or a committed pair, and a crashed doubling
// left entries dead under whichever level is durable.
func (idx *Index) Recover() error {
	idx.gen.Restart()
	return nil
}
