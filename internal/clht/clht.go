// Package clht implements P-CLHT, the RECIPE conversion of the Cache-Line
// Hash Table (David et al., ASPLOS '15) to persistent memory (§6.2).
//
// CLHT restricts each bucket to one 64-byte cache line holding three
// key/value pairs, a lock word, and an overflow pointer, so the common
// case costs one cache-line access. Readers are non-blocking and use
// atomic snapshots of key/value pairs; writers lock the bucket and commit
// each insert or delete with a single 8-byte atomic store (the key write),
// ordering the value store before it. Rehashing copies buckets into a new
// table and commits it by atomically swapping the table pointer.
//
// CLHT therefore satisfies RECIPE Condition #1 — every update becomes
// visible through one hardware-atomic store — and the conversion consists
// only of cache-line write-backs and fences after the appropriate stores
// (30 LOC in the paper). The persistence points in this file are marked
// with "RECIPE:" comments; cmd/loccount counts them to regenerate Table 1.
package clht

import (
	"errors"
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
//	off 48..55  lock (not meaningfully persistent; re-initialised on recovery)
//	off 56..63  next
const (
	bucketBytes = 64
	offKeys     = 0
	offVals     = 24
	offNext     = 56
)

// ErrZeroKey is returned for key 0, which CLHT reserves as the empty-slot
// marker.
var ErrZeroKey = errors.New("clht: key 0 is reserved")

// bucket is bucketBytes in DRAM too, so an operation on an unchained bucket
// touches one cache line, as the layout it models promises. Where its
// persistent image lives is therefore not stored in it: a table bucket's
// follows from its index (table.loc), an overflow bucket's sits behind it.
type bucket struct {
	lock pmlock.Mutex
	_    uint32
	keys [EntriesPerBucket]atomic.Uint64
	vals [EntriesPerBucket]atomic.Uint64
	next atomic.Pointer[bucket]
}

// ovfBucket is a chained bucket. Only the head of a chain is a table
// bucket, so every bucket reached through next is one of these.
type ovfBucket struct {
	bucket
	pm pmem.Obj
}

// table's bucket array is a power-of-two count of 64-byte elements: from
// 512 buckets up — every size New's default takes — it is a page-aligned
// large span, so each head bucket is exactly one cache line.
type table struct {
	pm      pmem.Obj
	buckets []bucket
	mask    uint64
	seed    uint64
}

// bucketFor returns the head bucket of key's chain and its index.
func (t *table) bucketFor(key uint64) (*bucket, uint64) {
	i := mix(key^t.seed) & t.mask
	return &t.buckets[i], i
}

// loc returns the persistent location of b, a bucket of chain i.
func (t *table) loc(i uint64, b *bucket) (pmem.Obj, uintptr) {
	if b == &t.buckets[i] {
		return t.pm, uintptr(i) * bucketBytes
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

// Index is a persistent cache-line hash table. Keys are non-zero uint64s
// and values are uint64s, matching the paper's evaluation of unordered
// indexes with 8-byte integer keys. Index is safe for concurrent use.
type Index struct {
	heap  *pmem.Heap
	root  pmem.Obj // persistent root line holding the current table pointer
	tab   atomic.Pointer[table]
	count atomic.Int64

	resize pmlock.Mutex

	// maxChain is the overflow-chain length that triggers rehashing.
	maxChain int
}

// DefaultBuckets is the initial bucket count; 768 buckets ≈ the paper's
// 48 KB starting table (§7: "a starting hash table size of 48KB").
const DefaultBuckets = 768

// New returns an empty P-CLHT backed by heap with the default initial
// size.
func New(heap *pmem.Heap) *Index { return NewWithBuckets(heap, DefaultBuckets) }

// NewWithBuckets returns an empty P-CLHT with n initial buckets (rounded
// up to a power of two).
func NewWithBuckets(heap *pmem.Heap, n int) *Index {
	if n < 1 {
		n = 1
	}
	p := 1
	for p < n {
		p *= 2
	}
	idx := &Index{heap: heap, maxChain: 2}
	idx.root = heap.Alloc(64)
	heap.Shadow(idx.root, &idx.tab)
	t := idx.newTable(p, 0x5bd1e995)
	idx.tab.Store(t)
	// RECIPE: persist the freshly initialised table and the root pointer
	// before the index is usable (the durability bug the paper found in
	// FAST & FAIR and CCEH was an unpersisted initial allocation).
	heap.Persist(t.pm, 0, uintptr(p)*bucketBytes)
	heap.PersistFence(idx.root, 0, 64)
	return idx
}

func (idx *Index) newTable(nbuckets int, seed uint64) *table {
	t := &table{
		buckets: make([]bucket, nbuckets),
		mask:    uint64(nbuckets - 1),
		seed:    seed,
	}
	t.pm = idx.heap.Alloc(uintptr(nbuckets) * bucketBytes)
	idx.heap.ShadowSlice(t.pm, t.buckets, bucketBytes)
	return t
}

// Lookup returns the value stored for key. Reads are non-blocking: they
// walk the bucket chain using atomic loads and take an atomic snapshot of
// each candidate pair by re-checking the key after reading the value.
func (idx *Index) Lookup(key uint64) (uint64, bool) {
	if key == 0 {
		return 0, false
	}
	t := idx.tab.Load()
	head, i := t.bucketFor(key)
	for b := head; b != nil; b = b.next.Load() {
		pm, off := t.loc(i, b)
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
	defer recoverCrash(&err)
	for {
		t := idx.tab.Load()
		b, i := t.bucketFor(key)
		b.lock.Lock()
		// A resize may have swapped the table while we waited for the
		// bucket lock; retry against the new table.
		if idx.tab.Load() != t {
			b.lock.Unlock()
			continue
		}
		ok := idx.insertLocked(t, i, key, value)
		b.lock.Unlock()
		if ok {
			return nil
		}
		// Chain too long: rehash and retry.
		idx.rehash(t)
	}
}

// Update overwrites the value under key: Insert's upsert
// (core.PointIndex.Update).
func (idx *Index) Update(key, value uint64) error { return idx.Insert(key, value) }

// insertLocked performs the insert into chain c of t under the lock of the
// chain's head bucket. It returns false when the chain is over the overflow
// threshold and a resize is required.
func (idx *Index) insertLocked(t *table, c uint64, key, value uint64) bool {
	var free *bucket
	freeIdx := -1
	chain := 0
	last := &t.buckets[c]
	for b := last; b != nil; b = b.next.Load() {
		pm, off := t.loc(c, b)
		idx.heap.Load(pm, off, bucketBytes)
		for i := 0; i < EntriesPerBucket; i++ {
			k := b.keys[i].Load()
			if k == key {
				// Update: a single atomic 8-byte store is the commit.
				b.vals[i].Store(value)
				idx.heap.Dirty(pm, off+offVals+uintptr(i)*8, 8)
				// RECIPE: flush + fence after the committing store.
				idx.heap.PersistFence(pm, off+offVals+uintptr(i)*8, 8)
				idx.heap.CrashPoint("clht.update.commit")
				return true
			}
			if k == 0 && freeIdx < 0 {
				free, freeIdx = b, i
			}
		}
		chain++
		last = b
	}
	if freeIdx >= 0 {
		// Write the value first, then commit with the atomic key store.
		// Both live in the same cache line, which persists its stores in
		// program order (x86-TSO), so no fence sits between them and one
		// write-back after the commit persists the pair; an eviction
		// between the stores persists only the value, which is invisible
		// (key still 0) and therefore harmless.
		pm, off := t.loc(c, free)
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
	if chain > idx.maxChain {
		return false
	}
	// Append an overflow bucket: initialise it off-path, persist it, then
	// commit by atomically linking it.
	nb := &ovfBucket{pm: idx.heap.Alloc(bucketBytes)}
	idx.heap.Shadow(nb.pm, nb)
	nb.keys[0].Store(key)
	nb.vals[0].Store(value)
	// RECIPE: persist the new bucket before it becomes reachable.
	idx.heap.Persist(nb.pm, 0, bucketBytes)
	idx.heap.Fence()
	idx.heap.CrashPoint("clht.insert.overflow.init")
	last.next.Store(&nb.bucket)
	pm, off := t.loc(c, last)
	idx.heap.Dirty(pm, off+offNext, 8)
	// RECIPE: flush + fence after the committing link store.
	idx.heap.PersistFence(pm, off+offNext, 8)
	idx.heap.CrashPoint("clht.insert.overflow.link")
	idx.count.Add(1)
	return true
}

// Delete removes key, returning true if it was present.
func (idx *Index) Delete(key uint64) (deleted bool, err error) {
	if key == 0 {
		return false, ErrZeroKey
	}
	defer recoverCrash(&err)
	for {
		t := idx.tab.Load()
		head, c := t.bucketFor(key)
		head.lock.Lock()
		if idx.tab.Load() != t {
			head.lock.Unlock()
			continue
		}
		for b := head; b != nil; b = b.next.Load() {
			for i := 0; i < EntriesPerBucket; i++ {
				if b.keys[i].Load() == key {
					// Deletion commits with a single atomic store of 0 to
					// the key (§6.2).
					b.keys[i].Store(0)
					pm, off := t.loc(c, b)
					idx.heap.Dirty(pm, off+offKeys+uintptr(i)*8, 8)
					// RECIPE: flush + fence after the committing store.
					idx.heap.PersistFence(pm, off+offKeys+uintptr(i)*8, 8)
					idx.heap.CrashPoint("clht.delete.commit")
					idx.count.Add(-1)
					head.lock.Unlock()
					return true, nil
				}
			}
		}
		head.lock.Unlock()
		return false, nil
	}
}

// rehash doubles the table. It locks every bucket of the old table (so no
// writer can race the copy), builds the new table off-path, persists it,
// and commits with a single atomic swap of the table pointer — the SMO
// variant of Condition #1 (§6.2: re-hashing uses copy-on-write and an
// atomic swap). The paper attributes P-CLHT's Load-A deficit vs CCEH to
// exactly this globally locked scheme (§7.2).
func (idx *Index) rehash(old *table) {
	idx.resize.Lock()
	defer idx.resize.Unlock()
	if idx.tab.Load() != old {
		return // someone else already resized
	}
	for i := range old.buckets {
		old.buckets[i].lock.Lock()
	}
	nt := idx.newTable(len(old.buckets)*2, old.seed+0x9E3779B9)
	for i := range old.buckets {
		for b := &old.buckets[i]; b != nil; b = b.next.Load() {
			for e := 0; e < EntriesPerBucket; e++ {
				if k := b.keys[e].Load(); k != 0 {
					idx.copyInto(nt, k, b.vals[e].Load())
				}
			}
		}
	}
	for i := range nt.buckets {
		for b := nt.buckets[i].next.Load(); b != nil; b = b.next.Load() {
			pm, off := nt.loc(uint64(i), b)
			idx.heap.Persist(pm, off, bucketBytes)
		}
	}
	// RECIPE: persist the fully built table, fence, then commit with the
	// atomic table-pointer swap, then persist the root line.
	idx.heap.Persist(nt.pm, 0, uintptr(len(nt.buckets))*bucketBytes)
	idx.heap.Fence()
	idx.heap.CrashPoint("clht.rehash.built")
	idx.tab.Store(nt)
	idx.heap.Dirty(idx.root, 0, 8)
	idx.heap.PersistFence(idx.root, 0, 8)
	idx.heap.CrashPoint("clht.rehash.swap")
	for i := range old.buckets {
		old.buckets[i].lock.Unlock()
	}
}

// copyInto inserts into a private (not yet published) table without
// locking or persistence: rehash writes the table and the overflow buckets
// chained here back once they are full.
func (idx *Index) copyInto(t *table, key, value uint64) {
	b, _ := t.bucketFor(key)
	for {
		for i := 0; i < EntriesPerBucket; i++ {
			if b.keys[i].Load() == 0 {
				b.keys[i].Store(key)
				b.vals[i].Store(value)
				return
			}
		}
		nb := b.next.Load()
		if nb == nil {
			ob := &ovfBucket{pm: idx.heap.Alloc(bucketBytes)}
			idx.heap.Shadow(ob.pm, ob)
			nb = &ob.bucket
			b.next.Store(nb)
		}
		b = nb
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
	t := idx.tab.Load()
	for i := range t.buckets {
		for b := &t.buckets[i]; b != nil; b = b.next.Load() {
			pm, off := t.loc(uint64(i), b)
			idx.heap.Load(pm, off, bucketBytes)
			for e := 0; e < EntriesPerBucket; e++ {
				k := b.keys[e].Load()
				if k == 0 {
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
func (idx *Index) Buckets() int { return len(idx.tab.Load().buckets) }

// Recover re-initialises all locks, modelling the lock-table
// re-initialisation a RECIPE index performs when restarting after a crash
// (§6, "Lock initialization"). CLHT needs no other recovery work: a
// crashed insert left either an invisible value store (key still 0) or a
// fully committed pair.
func (idx *Index) Recover() error {
	idx.resize.Reset()
	t := idx.tab.Load()
	for i := range t.buckets {
		for b := &t.buckets[i]; b != nil; b = b.next.Load() {
			b.lock.Reset()
		}
	}
	return nil
}

func recoverCrash(err *error) {
	if r := recover(); r != nil {
		*err = crash.Recover(r)
	}
}
