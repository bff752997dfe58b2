// Package cceh implements CCEH — Cacheline-Conscious Extendible Hashing
// (Nam et al., FAST '19) — the state-of-the-art PM hash table RECIPE
// compares P-CLHT against (§3, §7.2).
//
// CCEH hashes keys into fixed-size segments addressed through a directory
// indexed by the hash's most significant bits. Buckets are single cache
// lines of four slots; an insert probes a short window of consecutive
// buckets. When a segment fills it splits: a new segment takes the keys
// whose next hash bit is 1, the old segment keeps its entries lazily, and
// the directory entries for the moved half are repointed one by one. When
// a full segment's local depth equals the global depth the directory
// doubles.
//
// §3 of the RECIPE paper reports two CCEH crash bugs in exactly this
// doubling path: the directory pointer, its width, and the global depth
// are updated non-atomically, so a crash between the stores leaves
// insertions (or recovery) looping forever. Faithful mode reproduces that
// ordering (observable as ErrStalled rather than a literal infinite
// loop); Fixed mode publishes all three fields with a single atomic
// pointer swap, which removes the window.
package cceh

import (
	"errors"
	"sync/atomic"

	"repro/internal/crash"
	"repro/internal/pmem"
	"repro/internal/pmlock"
)

// Mode selects bug fidelity for the directory-doubling path.
type Mode int

const (
	// Fixed publishes directory pointer, width and depth with one atomic
	// store.
	Fixed Mode = iota
	// Faithful reproduces the published non-atomic update order (§3).
	Faithful
)

const (
	// SlotsPerBucket packs four 16-byte pairs into one cache line.
	SlotsPerBucket = 4
	// BucketsPerSegment gives 16 KB segments, as in the paper.
	BucketsPerSegment = 256
	// ProbeBuckets is the linear-probing window in buckets (cache lines).
	ProbeBuckets = 4

	bucketBytes  = 64
	segmentBytes = BucketsPerSegment * bucketBytes
)

// ErrZeroKey is returned for key 0, reserved as the empty-slot marker.
var ErrZeroKey = errors.New("cceh: key 0 is reserved")

// ErrStalled is returned when an operation cannot make progress because
// the directory metadata is permanently inconsistent — the observable
// form of the paper's "insertion operations loop infinitely" bug. A real
// execution would spin forever; the port bounds the retries so tests can
// assert the bug.
var ErrStalled = errors.New("cceh: operation stalled on inconsistent directory (reproduced §3 bug)")

// maxRetries bounds insert retries before declaring a stall.
const maxRetries = 64

type segment struct {
	pm         pmem.Obj
	lock       pmlock.Mutex
	localDepth atomic.Uint32
	pattern    atomic.Uint64 // hash prefix (localDepth bits) this segment covers
	keys       [BucketsPerSegment * SlotsPerBucket]atomic.Uint64
	vals       [BucketsPerSegment * SlotsPerBucket]atomic.Uint64
}

// directory bundles the entry array with its depth so Fixed mode can swap
// both in one atomic store.
type directory struct {
	pm      pmem.Obj
	entries []atomic.Pointer[segment]
	depth   uint32
}

// Index is a CCEH hash table over non-zero uint64 keys.
type Index struct {
	heap *pmem.Heap
	mode Mode

	rootPM pmem.Obj
	dir    atomic.Pointer[directory]
	// fDepth is the separately stored global depth used by Faithful mode
	// for directory indexing — the field whose non-atomic update relative
	// to the directory pointer is the published bug.
	fDepth atomic.Uint32

	doubling pmlock.Mutex
	gen      pmlock.Gen // stamps every lock of the table; volatile
	count    atomic.Int64
}

// DefaultDepth gives 4 initial segments.
const DefaultDepth = 2

// New returns an empty CCEH table in Fixed mode.
func New(heap *pmem.Heap) *Index { return NewWithMode(heap, Fixed) }

// NewWithMode returns an empty CCEH table with explicit bug fidelity.
func NewWithMode(heap *pmem.Heap, mode Mode) *Index {
	idx := &Index{heap: heap, mode: mode}
	idx.rootPM = heap.Alloc(64)
	heap.Shadow(idx.rootPM, &idx.dir)
	d := &directory{depth: DefaultDepth}
	d.entries = make([]atomic.Pointer[segment], 1<<DefaultDepth)
	d.pm = heap.Alloc(uintptr(len(d.entries)) * 8)
	heap.ShadowSlice(d.pm, d.entries, 8)
	for i := range d.entries {
		s := idx.newSegment(DefaultDepth, uint64(i))
		heap.Persist(s.pm, 0, segmentBytes)
		d.entries[i].Store(s)
	}
	idx.dir.Store(d)
	idx.fDepth.Store(DefaultDepth)
	heap.Persist(d.pm, 0, uintptr(len(d.entries))*8)
	// Faithful mode reproduces the durability finding of §7.5: the
	// initial allocation holding the root pointer is not persisted.
	if mode == Fixed {
		heap.PersistFence(idx.rootPM, 0, 64)
	}
	return idx
}

// newSegment allocates a segment; the caller writes it back once it is
// filled, before it becomes reachable.
func (idx *Index) newSegment(depth uint32, pattern uint64) *segment {
	s := &segment{}
	s.pm = idx.heap.Alloc(segmentBytes)
	idx.heap.Shadow(s.pm, s)
	s.localDepth.Store(depth)
	s.pattern.Store(pattern)
	return s
}

func hash(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xFF51AFD7ED558CCD
	k ^= k >> 33
	k *= 0xC4CEB9FE1A85EC53
	return k ^ (k >> 33)
}

// dirIndexState captures one consistent view of the directory for an
// operation attempt.
type dirIndexState struct {
	d     *directory
	depth uint32
}

// view returns the directory and the depth used to index it. In Fixed
// mode the two travel together; Faithful mode reads them from separate
// fields, reproducing the window the paper's bug lives in.
func (idx *Index) view() dirIndexState {
	d := idx.dir.Load()
	if idx.mode == Fixed {
		return dirIndexState{d: d, depth: d.depth}
	}
	return dirIndexState{d: d, depth: idx.fDepth.Load()}
}

func (v dirIndexState) segmentFor(h uint64) *segment {
	i := int(h >> (64 - v.depth))
	if i >= len(v.d.entries) {
		i = len(v.d.entries) - 1
	}
	return v.d.entries[i].Load()
}

// slotIndex returns the first slot of the home bucket for hash h.
func slotIndex(h uint64) int {
	return int(h&(BucketsPerSegment-1)) * SlotsPerBucket
}

// Lookup returns the value for key. Reads are lock-free and take atomic
// (value, key-recheck) snapshots. A miss in a segment that stopped
// covering the key's hash while it was being probed is retried (see
// probe), bounded by maxRetries so Faithful mode's permanently
// inconsistent directory still terminates.
func (idx *Index) Lookup(key uint64) (uint64, bool) {
	if key == 0 {
		return 0, false
	}
	h := hash(key)
	for attempt := 0; attempt < maxRetries; attempt++ {
		v := idx.view()
		s := v.segmentFor(h)
		if s == nil {
			return 0, false
		}
		val, found, stale := idx.probe(v, s, h, key)
		if found || !stale {
			return val, found
		}
	}
	return 0, false
}

// probe searches segment s — loaded from view v — for key (hash h). A
// hit is final. A miss means "absent" only if s still covers h and v's
// directory is still current; otherwise the miss is stale: between the
// segment load and the probe a split may have repointed the directory
// and narrowed s, after which an insert is free to reclaim the moved
// key's slot (insertLocked's lazy deletion), so the key can be missing
// from s while alive in its sibling. The caller retries from a fresh
// view.
func (idx *Index) probe(v dirIndexState, s *segment, h, key uint64) (val uint64, found, stale bool) {
	base := slotIndex(h)
	for b := 0; b < ProbeBuckets; b++ {
		off := (base + b*SlotsPerBucket) % len(s.keys)
		idx.heap.Load(s.pm, uintptr(off/SlotsPerBucket)*bucketBytes, bucketBytes)
		for i := 0; i < SlotsPerBucket; i++ {
			if s.keys[off+i].Load() == key {
				val := s.vals[off+i].Load()
				if s.keys[off+i].Load() == key {
					return val, true, false
				}
			}
		}
	}
	covers := h>>(64-s.localDepth.Load()) == s.pattern.Load()
	return 0, false, !covers || idx.dir.Load() != v.d
}

// Insert stores value under key, overwriting an existing value. It
// returns ErrStalled when the directory is permanently inconsistent
// (Faithful mode after the §3 crash) and crash.ErrCrashed when a
// simulated crash interrupts it.
func (idx *Index) Insert(key, value uint64) (err error) {
	if key == 0 {
		return ErrZeroKey
	}
	defer crash.Catch(&err)
	h := hash(key)
	for attempt := 0; attempt < maxRetries; attempt++ {
		v := idx.view()
		s := v.segmentFor(h)
		s.lock.Lock(&idx.gen)
		// Verify the segment actually covers this hash prefix. A
		// mismatch is transient during splits/doubling — or permanent
		// after the Faithful-mode crash, in which case the retries
		// exhaust and the insert stalls, as §3 describes.
		ld := s.localDepth.Load()
		if h>>(64-ld) != s.pattern.Load() || idx.view().d != v.d {
			s.lock.Unlock()
			continue
		}
		done, full := idx.insertLocked(s, h, key, value)
		s.lock.Unlock()
		if done {
			return nil
		}
		if full {
			idx.split(v, s, h)
		}
	}
	return ErrStalled
}

// Update overwrites the value under key: Insert's upsert
// (core.PointIndex.Update).
func (idx *Index) Update(key, value uint64) error { return idx.Insert(key, value) }

func (idx *Index) insertLocked(s *segment, h uint64, key, value uint64) (done, full bool) {
	base := slotIndex(h)
	ld := s.localDepth.Load()
	pattern := s.pattern.Load()
	freeOff := -1
	for b := 0; b < ProbeBuckets; b++ {
		off := (base + b*SlotsPerBucket) % len(s.keys)
		for i := 0; i < SlotsPerBucket; i++ {
			k := s.keys[off+i].Load()
			if k == key {
				s.vals[off+i].Store(value)
				idx.heap.Dirty(s.pm, uintptr((off+i)/SlotsPerBucket)*bucketBytes, 8)
				idx.heap.PersistFence(s.pm, uintptr((off+i)/SlotsPerBucket)*bucketBytes, bucketBytes)
				idx.heap.CrashPoint("cceh.update.commit")
				return true, false
			}
			if freeOff < 0 && (k == 0 || hash(k)>>(64-ld) != pattern) {
				// Empty, or a key a past split moved to a sibling: CCEH's
				// lazy deletion leaves such slots in place and lets
				// inserts reclaim them (the directory no longer routes
				// their keys here, so overwriting is safe).
				freeOff = off + i
			}
		}
	}
	if freeOff < 0 {
		return false, true
	}
	// Value first, then the atomic key store commits the pair. Both sit
	// in one bucket line, which persists its stores in program order, so
	// no fence is needed between them.
	s.vals[freeOff].Store(value)
	idx.heap.Dirty(s.pm, uintptr(freeOff/SlotsPerBucket)*bucketBytes, 8)
	idx.heap.CrashPoint("cceh.insert.val")
	s.keys[freeOff].Store(key)
	idx.heap.Dirty(s.pm, uintptr(freeOff/SlotsPerBucket)*bucketBytes, 8)
	idx.heap.PersistFence(s.pm, uintptr(freeOff/SlotsPerBucket)*bucketBytes, bucketBytes)
	idx.heap.CrashPoint("cceh.insert.commit")
	idx.count.Add(1)
	return true, false
}

// Delete removes key (lazy: the slot key is zeroed with one atomic store).
func (idx *Index) Delete(key uint64) (deleted bool, err error) {
	if key == 0 {
		return false, ErrZeroKey
	}
	defer crash.Catch(&err)
	h := hash(key)
	for attempt := 0; attempt < maxRetries; attempt++ {
		v := idx.view()
		s := v.segmentFor(h)
		s.lock.Lock(&idx.gen)
		if h>>(64-s.localDepth.Load()) != s.pattern.Load() || idx.view().d != v.d {
			s.lock.Unlock()
			continue
		}
		base := slotIndex(h)
		for b := 0; b < ProbeBuckets; b++ {
			off := (base + b*SlotsPerBucket) % len(s.keys)
			for i := 0; i < SlotsPerBucket; i++ {
				if s.keys[off+i].Load() == key {
					s.keys[off+i].Store(0)
					idx.heap.Dirty(s.pm, uintptr((off+i)/SlotsPerBucket)*bucketBytes, 8)
					idx.heap.PersistFence(s.pm, uintptr((off+i)/SlotsPerBucket)*bucketBytes, bucketBytes)
					idx.heap.CrashPoint("cceh.delete.commit")
					idx.count.Add(-1)
					s.lock.Unlock()
					return true, nil
				}
			}
		}
		s.lock.Unlock()
		return false, nil
	}
	return false, ErrStalled
}

// split divides segment s (which covers too many keys for its probe
// window). The old segment keeps its entries lazily; a new segment takes
// the keys whose next hash bit is one, and the directory entries for that
// half are repointed.
func (idx *Index) split(v dirIndexState, s *segment, h uint64) {
	idx.doubling.Lock(&idx.gen)
	defer idx.doubling.Unlock()
	cur := idx.view()
	if cur.d != v.d {
		return // directory changed; retry the insert instead
	}
	s.lock.Lock(&idx.gen)
	ld := s.localDepth.Load()
	if h>>(64-ld) != s.pattern.Load() {
		s.lock.Unlock()
		return
	}
	if ld == cur.depth {
		// Segment is as wide as the directory: double it first.
		s.lock.Unlock()
		idx.doubleDirectory(cur)
		return // caller retries; the next split sees room
	}
	// The upper half of this segment's directory range moves to a new
	// sibling. If it already names another segment, a crash after
	// cceh.split.repointed left this split half done, and the sibling
	// holds every write acknowledged there since the restart: only the
	// narrowing below is left to do. Building a second sibling from this
	// segment's stale copies would orphan the first one.
	d := cur.d
	span := 1 << (cur.depth - ld) // directory entries covering s
	first := int(s.pattern.Load()) << (cur.depth - ld)
	if d.entries[first+span/2].Load() == s {
		// The sibling covers pattern*2+1 at depth ld+1.
		ns := idx.newSegment(ld+1, s.pattern.Load()*2+1)
	moved:
		for i := range s.keys {
			k := s.keys[i].Load()
			if k == 0 || hash(k)>>(64-(ld+1)) != ns.pattern.Load() {
				continue
			}
			nb := slotIndex(hash(k))
			for b := 0; b < ProbeBuckets; b++ {
				off := (nb + b*SlotsPerBucket) % len(ns.keys)
				for j := 0; j < SlotsPerBucket; j++ {
					if ns.keys[off+j].Load() == 0 {
						ns.vals[off+j].Store(s.vals[i].Load())
						ns.keys[off+j].Store(k)
						continue moved
					}
				}
			}
			// An unplaceable key stays readable in the old segment until
			// the next split; CCEH tolerates this via lazy deletion.
		}
		idx.heap.Persist(ns.pm, 0, segmentBytes)
		idx.heap.Fence()
		idx.heap.CrashPoint("cceh.split.built")

		// Repoint the upper half. Each store is atomic; a crash mid-way
		// leaves stale entries that still reach the old segment, which
		// lazily retains the moved keys.
		for i := first + span/2; i < first+span; i++ {
			d.entries[i].Store(ns)
			idx.heap.Dirty(d.pm, uintptr(i)*8, 8)
			idx.heap.Persist(d.pm, uintptr(i)*8, 8)
		}
		idx.heap.Fence()
		idx.heap.CrashPoint("cceh.split.repointed")
	}

	// Narrow the old segment to its new (deeper) pattern. Keys that moved
	// remain as lazy garbage; lookups for them now route to the sibling.
	s.pattern.Store(s.pattern.Load() * 2)
	s.localDepth.Store(ld + 1)
	idx.heap.Dirty(s.pm, 0, 16)
	idx.heap.PersistFence(s.pm, 0, 16)
	idx.heap.CrashPoint("cceh.split.depth")
	s.lock.Unlock()
}

// doubleDirectory doubles the directory. Fixed mode publishes the new
// entry array and depth with one atomic pointer store. Faithful mode
// reproduces the paper's bug: the directory pointer, then (separately)
// the global depth, with a crash window between the two stores in which
// indexing uses the new array with the old depth.
func (idx *Index) doubleDirectory(cur dirIndexState) {
	old := cur.d
	nd := &directory{depth: old.depth + 1}
	nd.entries = make([]atomic.Pointer[segment], len(old.entries)*2)
	nd.pm = idx.heap.Alloc(uintptr(len(nd.entries)) * 8)
	idx.heap.ShadowSlice(nd.pm, nd.entries, 8)
	for i := range old.entries {
		s := old.entries[i].Load()
		nd.entries[2*i].Store(s)
		nd.entries[2*i+1].Store(s)
	}
	idx.heap.Persist(nd.pm, 0, uintptr(len(nd.entries))*8)
	idx.heap.Fence()
	idx.heap.CrashPoint("cceh.double.built")

	if idx.mode == Fixed {
		// One store publishes entries and depth together — the fix.
		idx.dir.Store(nd)
		idx.fDepth.Store(nd.depth) // kept in sync for introspection
		idx.heap.Dirty(idx.rootPM, 0, 8)
		idx.heap.PersistFence(idx.rootPM, 0, 8)
		idx.heap.CrashPoint("cceh.double.commit")
		return
	}
	// Faithful: pointer first...
	idx.dir.Store(nd)
	idx.heap.Dirty(idx.rootPM, 0, 8)
	idx.heap.PersistFence(idx.rootPM, 0, 8)
	idx.heap.CrashPoint("cceh.double.swapped")
	// ...then the global depth, a separate store. A crash between the two
	// leaves every subsequent insert indexing the doubled directory with
	// the stale depth: the §3 infinite loop.
	idx.fDepth.Store(nd.depth)
	idx.heap.Dirty(idx.rootPM, 8, 8)
	idx.heap.PersistFence(idx.rootPM, 8, 8)
	idx.heap.CrashPoint("cceh.double.depth")
}

// Len returns the number of live keys.
func (idx *Index) Len() int { return int(idx.count.Load()) }

// Range calls fn for every live key/value pair until fn returns false.
// Enumeration order is unspecified. Splits leave moved keys behind in
// the old segment as lazy garbage, so Range reports a key only from the
// segment the directory currently routes it to — each live key is
// visited exactly once. Pairs are read with the lookup snapshot
// (value, key-recheck); a consistent cut requires quiesced writers.
func (idx *Index) Range(fn func(key, value uint64) bool) {
	v := idx.view()
	var prev *segment
	for i := range v.d.entries {
		s := v.d.entries[i].Load()
		if s == nil || s == prev {
			// Entries sharing a segment are contiguous in the directory.
			continue
		}
		prev = s
		for j := range s.keys {
			k := s.keys[j].Load()
			if k == 0 {
				continue
			}
			val := s.vals[j].Load()
			if s.keys[j].Load() != k {
				continue
			}
			if v.segmentFor(hash(k)) != s {
				continue // lazy leftover; the owning segment reports it
			}
			if !fn(k, val) {
				return
			}
		}
	}
}

// Depth returns the directory's global depth as used for indexing.
func (idx *Index) Depth() uint32 { return idx.view().depth }

// segments returns the number of distinct segments.
func (idx *Index) segments() int {
	d := idx.dir.Load()
	seen := make(map[*segment]bool)
	for i := range d.entries {
		seen[d.entries[i].Load()] = true
	}
	return len(seen)
}

// Recover restarts the table after a crash with a new lock generation,
// which frees every lock the crash left held. In Faithful mode the
// published recovery then scans the directory expecting each segment to
// span 2^(global-local) entries; with a torn depth they never line up, so
// it cannot terminate — reported as ErrStalled (§3: "the crash recovery
// algorithm goes into an infinite loop").
func (idx *Index) Recover() error {
	idx.gen.Restart()
	if idx.mode == Faithful && idx.fDepth.Load() != idx.dir.Load().depth {
		return ErrStalled
	}
	return nil
}
