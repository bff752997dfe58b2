// Package levelhash implements Level Hashing (Zuo et al., OSDI '18), the
// second hand-crafted PM hash table in RECIPE's unordered-index
// evaluation (§7.2, Fig 5, Table 4).
//
// Level hashing keeps two bucket arrays: a top level of N buckets and a
// bottom level of N/2. Every key has two candidate top-level buckets (two
// hash functions); each bottom-level bucket is shared by the two top
// buckets above it, giving each key four candidate cache lines in the
// worst case — the "two-level architecture that results in
// non-contiguous cache line accesses" the paper blames for Level
// hashing's higher LLC miss rate (Table 4). Resizing is one-level
// rotation: a new top level of 2N buckets is allocated, the old top
// becomes the new bottom, and the old bottom's keys are rehashed into the
// new top.
//
// Writers lock buckets; slot commits write the value, then publish with
// the atomic key store in the same bucket line.
package levelhash

import (
	"errors"
	"sync/atomic"

	"repro/internal/crash"
	"repro/internal/pmem"
	"repro/internal/pmlock"
)

// SlotsPerBucket packs four 16-byte pairs per bucket (two cache lines of
// key/value halves in the original layout; modelled as one 64-byte line
// of keys plus one of values).
const SlotsPerBucket = 4

const bucketBytes = 64

// ErrZeroKey is returned for key 0, reserved as the empty-slot marker.
var ErrZeroKey = errors.New("levelhash: key 0 is reserved")

type bucket struct {
	pm   pmem.Obj
	off  uintptr
	lock pmlock.Mutex
	keys [SlotsPerBucket]atomic.Uint64
	vals [SlotsPerBucket]atomic.Uint64
}

type level struct {
	pm      pmem.Obj
	buckets []bucket
	bits    uint // log2(len(buckets))
}

// idx maps a hash to a bucket index using the high bits, so that when the
// top level doubles, the new index of a key is 2*old (+0/1). That keeps
// keys in the old top findable at index/2 once it becomes the bottom —
// the property the one-level rotation depends on.
func (l *level) idx(h uint64) uint64 { return h >> (64 - l.bits) }

type table struct {
	top    *level
	bottom *level
}

// topIndexes returns the two candidate top-level bucket indexes for key.
func (t *table) topIndexes(key uint64) (uint64, uint64) {
	return t.top.idx(hash1(key)), t.top.idx(hash2(key))
}

// Index is a Level-hashing table over non-zero uint64 keys.
type Index struct {
	heap   *pmem.Heap
	rootPM pmem.Obj
	tab    atomic.Pointer[table]
	resize pmlock.Mutex
	gen    pmlock.Gen // stamps every lock of the table; volatile
	count  atomic.Int64
}

// DefaultTopBuckets sizes the initial top level; with the bottom level at
// half size this is ~48 KB of buckets, matching the paper's starting
// size.
const DefaultTopBuckets = 512

// New returns an empty level-hashing table of the default initial size.
func New(heap *pmem.Heap) *Index { return NewWithBuckets(heap, DefaultTopBuckets) }

// NewWithBuckets returns an empty table with n top-level buckets (rounded
// up to an even power of two).
func NewWithBuckets(heap *pmem.Heap, n int) *Index {
	if n < 2 {
		n = 2
	}
	p := 2
	for p < n {
		p *= 2
	}
	idx := &Index{heap: heap}
	idx.rootPM = heap.Alloc(64)
	heap.Shadow(idx.rootPM, &idx.tab)
	t := &table{top: idx.newLevel(p), bottom: idx.newLevel(p / 2)}
	idx.persistLevel(t.top)
	idx.persistLevel(t.bottom)
	idx.tab.Store(t)
	heap.PersistFence(idx.rootPM, 0, 64)
	return idx
}

// newLevel allocates a level of n buckets; the caller writes it back
// (persistLevel) once it is filled, before it becomes reachable.
func (idx *Index) newLevel(n int) *level {
	bits := uint(0)
	for 1<<bits < n {
		bits++
	}
	if 1<<bits != n {
		panic("levelhash: level size must be a power of two")
	}
	l := &level{buckets: make([]bucket, n), bits: bits}
	l.pm = idx.heap.Alloc(uintptr(n) * bucketBytes)
	for i := range l.buckets {
		l.buckets[i].pm = l.pm
		l.buckets[i].off = uintptr(i) * bucketBytes
	}
	idx.heap.ShadowSlice(l.pm, l.buckets, bucketBytes)
	return l
}

// persistLevel writes every bucket of l back.
func (idx *Index) persistLevel(l *level) {
	idx.heap.Persist(l.pm, 0, uintptr(len(l.buckets))*bucketBytes)
}

func hash1(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xFF51AFD7ED558CCD
	k ^= k >> 33
	return k
}

func hash2(k uint64) uint64 {
	k ^= k >> 31
	k *= 0x9E3779B97F4A7C15
	k ^= k >> 29
	return k
}

// candidates returns the four candidate buckets for a key in probe order:
// two top-level, then the two shared bottom-level buckets (top index / 2).
func (t *table) candidates(key uint64) [4]*bucket {
	i1, i2 := t.topIndexes(key)
	return [4]*bucket{
		&t.top.buckets[i1],
		&t.top.buckets[i2],
		&t.bottom.buckets[i1/2],
		&t.bottom.buckets[i2/2],
	}
}

// Lookup returns the value for key, probing all four candidate buckets
// with lock-free atomic snapshots.
func (idx *Index) Lookup(key uint64) (uint64, bool) {
	if key == 0 {
		return 0, false
	}
	t := idx.tab.Load()
	for _, b := range t.candidates(key) {
		idx.heap.Load(b.pm, b.off, bucketBytes)
		for i := 0; i < SlotsPerBucket; i++ {
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

// Insert stores value under key, overwriting an existing value.
func (idx *Index) Insert(key, value uint64) (err error) {
	if key == 0 {
		return ErrZeroKey
	}
	defer crash.Catch(&err)
	for {
		t := idx.tab.Load()
		if idx.tryInsert(t, key, value) {
			return nil
		}
		idx.rehash(t)
	}
}

// Update overwrites the value under key: Insert's upsert
// (core.PointIndex.Update).
func (idx *Index) Update(key, value uint64) error { return idx.Insert(key, value) }

func (idx *Index) tryInsert(t *table, key, value uint64) bool {
	cands := t.candidates(key)
	// First pass: update in place if present (any candidate).
	for _, b := range cands {
		b.lock.Lock(&idx.gen)
		if idx.tab.Load() != t {
			b.lock.Unlock()
			return false
		}
		for i := 0; i < SlotsPerBucket; i++ {
			if b.keys[i].Load() == key {
				b.vals[i].Store(value)
				idx.heap.Dirty(b.pm, b.off+24+uintptr(i)*8, 8)
				idx.heap.PersistFence(b.pm, b.off+24+uintptr(i)*8, 8)
				idx.heap.CrashPoint("level.update.commit")
				b.lock.Unlock()
				return true
			}
		}
		b.lock.Unlock()
	}
	// Second pass: claim the first free slot in candidate order.
	for _, b := range cands {
		b.lock.Lock(&idx.gen)
		if idx.tab.Load() != t {
			b.lock.Unlock()
			return false
		}
		for i := 0; i < SlotsPerBucket; i++ {
			if b.keys[i].Load() == 0 {
				// Value, then the committing key store: one bucket line,
				// persisted in program order, so no fence between them.
				b.vals[i].Store(value)
				idx.heap.Dirty(b.pm, b.off+24+uintptr(i)*8, 8)
				idx.heap.CrashPoint("level.insert.val")
				b.keys[i].Store(key)
				idx.heap.Dirty(b.pm, b.off+uintptr(i)*8, 8)
				idx.heap.PersistFence(b.pm, b.off, bucketBytes)
				idx.heap.CrashPoint("level.insert.commit")
				idx.count.Add(1)
				b.lock.Unlock()
				return true
			}
		}
		b.lock.Unlock()
	}
	return false
}

// Delete removes key with a single atomic key-zeroing store.
func (idx *Index) Delete(key uint64) (deleted bool, err error) {
	if key == 0 {
		return false, ErrZeroKey
	}
	defer crash.Catch(&err)
	for {
		t := idx.tab.Load()
		for _, b := range t.candidates(key) {
			b.lock.Lock(&idx.gen)
			if idx.tab.Load() != t {
				b.lock.Unlock()
				goto retry
			}
			for i := 0; i < SlotsPerBucket; i++ {
				if b.keys[i].Load() == key {
					b.keys[i].Store(0)
					idx.heap.Dirty(b.pm, b.off+uintptr(i)*8, 8)
					idx.heap.PersistFence(b.pm, b.off+uintptr(i)*8, 8)
					idx.heap.CrashPoint("level.delete.commit")
					idx.count.Add(-1)
					b.lock.Unlock()
					return true, nil
				}
			}
			b.lock.Unlock()
		}
		return false, nil
	retry:
	}
}

// rehash performs the one-level rotation: new top of 2N, old top becomes
// the bottom, old bottom's keys rehash into the new top. The new table is
// committed with a single atomic pointer swap.
func (idx *Index) rehash(old *table) {
	idx.resize.Lock(&idx.gen)
	defer idx.resize.Unlock()
	if idx.tab.Load() != old {
		return
	}
	// Lock every bucket of the old table so no writer races the copy.
	for i := range old.top.buckets {
		old.top.buckets[i].lock.Lock(&idx.gen)
	}
	for i := range old.bottom.buckets {
		old.bottom.buckets[i].lock.Lock(&idx.gen)
	}
	nt := &table{top: idx.newLevel(len(old.top.buckets) * 2), bottom: old.top}
	spilled := make(map[*bucket]bool)
	for i := range old.bottom.buckets {
		b := &old.bottom.buckets[i]
		for s := 0; s < SlotsPerBucket; s++ {
			k := b.keys[s].Load()
			if k == 0 {
				continue
			}
			if sb := idx.copyInto(nt, k, b.vals[s].Load()); sb != nil {
				spilled[sb] = true
			}
		}
	}
	idx.persistLevel(nt.top)
	// The retiring top (new bottom) is durable but for the buckets that
	// absorbed spill placements: write back those, once each.
	for i := range nt.bottom.buckets {
		if b := &nt.bottom.buckets[i]; spilled[b] {
			idx.heap.Dirty(b.pm, b.off, bucketBytes)
			idx.heap.Persist(b.pm, b.off, bucketBytes)
		}
	}
	idx.heap.Fence()
	idx.heap.CrashPoint("level.rehash.built")
	idx.tab.Store(nt)
	idx.heap.Dirty(idx.rootPM, 0, 8)
	idx.heap.PersistFence(idx.rootPM, 0, 8)
	idx.heap.CrashPoint("level.rehash.swap")
	for i := range old.top.buckets {
		old.top.buckets[i].lock.Unlock()
	}
	for i := range old.bottom.buckets {
		old.bottom.buckets[i].lock.Unlock()
	}
}

// copyInto places a rehashed key into the unpublished new table (private,
// so plain stores suffice). Order: new-top candidates, one-step
// displacement within the new top (the original's bucket-movement
// scheme), then the bottom candidates. The new top receives at most a
// quarter of its slot capacity during a rotation, so with two choices
// plus displacement a placement failure is practically unreachable. It
// returns the bottom bucket a spill placement went to, nil for the top.
func (idx *Index) copyInto(t *table, key, value uint64) *bucket {
	l := t.top
	i1, i2 := l.idx(hash1(key)), l.idx(hash2(key))
	for _, bi := range [2]uint64{i1, i2} {
		if place(&l.buckets[bi], key, value) {
			return nil
		}
	}
	// Displacement: evict one occupant of a candidate bucket to the
	// occupant's alternate top bucket.
	for _, bi := range [2]uint64{i1, i2} {
		b := &l.buckets[bi]
		for s := 0; s < SlotsPerBucket; s++ {
			ok := b.keys[s].Load()
			for _, abi := range [2]uint64{l.idx(hash1(ok)), l.idx(hash2(ok))} {
				if abi == bi {
					continue
				}
				if place(&l.buckets[abi], ok, b.vals[s].Load()) {
					b.vals[s].Store(value)
					b.keys[s].Store(key)
					return nil
				}
			}
		}
	}
	for _, bi := range [2]uint64{i1 / 2, i2 / 2} {
		if b := &t.bottom.buckets[bi]; place(b, key, value) {
			return b
		}
	}
	panic("levelhash: could not place key during rotation (table pathologically skewed)")
}

// place stores (key, value) in the first free slot of an unpublished
// bucket, reporting success.
func place(b *bucket, key, value uint64) bool {
	for i := 0; i < SlotsPerBucket; i++ {
		if b.keys[i].Load() == 0 {
			b.vals[i].Store(value)
			b.keys[i].Store(key)
			return true
		}
	}
	return false
}

// Len returns the number of live keys.
func (idx *Index) Len() int { return int(idx.count.Load()) }

// Range calls fn for every live key/value pair until fn returns false.
// Enumeration order is unspecified. Both levels of one atomically
// loaded table are swept with the lookup snapshot (value, key-recheck);
// a consistent cut requires quiesced writers.
func (idx *Index) Range(fn func(key, value uint64) bool) {
	t := idx.tab.Load()
	for _, l := range [2]*level{t.top, t.bottom} {
		for i := range l.buckets {
			b := &l.buckets[i]
			idx.heap.Load(b.pm, b.off, bucketBytes)
			for e := 0; e < SlotsPerBucket; e++ {
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

// topBuckets returns the current top-level bucket count.
func (idx *Index) topBuckets() int { return len(idx.tab.Load().top.buckets) }

// Recover restarts the table after a crash with a new lock generation,
// which frees every lock the crash left held.
func (idx *Index) Recover() error {
	idx.gen.Restart()
	return nil
}
