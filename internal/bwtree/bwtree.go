// Package bwtree implements P-BwTree, the RECIPE conversion of the
// Bw-Tree (Levandoski et al., ICDE '13; Wang et al., SIGMOD '18) to
// persistent memory (§6.3).
//
// The Bw-Tree never updates a node in place. Every logical node is a
// chain of immutable delta records ending in a base node, reached through
// a mapping table of logical node IDs (PIDs); a writer prepends a delta
// and publishes it with a single compare-and-swap on the PID's mapping
// entry. Reads and writes are both non-blocking: a failed CAS aborts and
// restarts from the root.
//
// Non-SMO operations (insert/delete deltas) become visible via one CAS,
// so they satisfy Condition #1; following §6.3, the conversion flushes
// the mapping entry only when the CAS succeeds and does not flush loads
// on this path. Structure modifications use the B-link two-step
// protocol: a split delta installs the new right sibling, and a separate
// index-entry delta tells the parent. Writers that encounter an
// unfinished split complete it first — the helping mechanism that makes
// SMOs satisfy Condition #2 — so after a crash the first writer to walk
// past the torn split repairs it, and every store and load on the SMO
// path is followed by a flush and fence.
package bwtree

import (
	"bytes"
	"errors"
	"sync/atomic"

	"repro/internal/pmem"
)

// ErrEmptyKey is returned for zero-length keys.
var ErrEmptyKey = errors.New("bwtree: empty key")

// Tunables mirroring common Bw-Tree configurations.
const (
	// DeltaChainThreshold triggers consolidation.
	DeltaChainThreshold = 8
	// MaxLeafEntries / MaxInnerEntries trigger splits at consolidation.
	MaxLeafEntries  = 64
	MaxInnerEntries = 64
)

type recKind uint8

const (
	kBaseLeaf recKind = iota
	kBaseInner
	kDeltaInsert
	kDeltaDelete
	kDeltaSplit
	kDeltaIndex
)

// record is one delta or base node. Immutable after publication; `next`
// points toward the base.
type record struct {
	kind recKind
	pm   pmem.Obj
	next *record

	// delta payload (insert/delete/split/index)
	key   []byte
	val   uint64
	right uint64 // split/index: PID of the right sibling / new child

	// base payload
	keys  [][]byte
	vals  []uint64 // leaf values
	pids  []uint64 // inner children (pids[i] covers keys < keys[i+...]); len(pids) == len(keys)+1
	high  []byte   // high key; nil = +inf
	next2 uint64   // right-sibling PID (B-link)

	depth int // chain position for consolidation decisions
}

// Index is a persistent Bw-Tree over byte-string keys. All operations are
// non-blocking.
type Index struct {
	heap *pmem.Heap

	mapPM   pmem.Obj
	mapping []atomic.Pointer[record]
	nextPID atomic.Uint64
	rootPID uint64

	count atomic.Int64
}

// MaxPIDs bounds the mapping table (1M logical nodes ≈ 64M+ keys).
const MaxPIDs = 1 << 20

// New returns an empty P-BwTree backed by heap.
func New(heap *pmem.Heap) *Index {
	idx := &Index{heap: heap}
	idx.mapping = make([]atomic.Pointer[record], MaxPIDs)
	idx.mapPM = heap.Alloc(MaxPIDs * 8)
	heap.ShadowSlice(idx.mapPM, idx.mapping, 8)
	// RECIPE: the zero-initialised mapping table is persisted once at
	// pool creation (the unpersisted-initial-allocation class of bug §7.5
	// reports in FAST & FAIR and CCEH).
	heap.Persist(idx.mapPM, 0, MaxPIDs*8)
	heap.Fence()
	idx.nextPID.Store(1) // PID 0 is invalid
	idx.rootPID = idx.allocPID()
	base := &record{kind: kBaseLeaf}
	idx.persistBase(base)
	idx.mapping[idx.rootPID].Store(base)
	// RECIPE: persist the root mapping entry at creation.
	heap.PersistFence(idx.mapPM, uintptr(idx.rootPID)*8, 8)
	return idx
}

func (idx *Index) allocPID() uint64 {
	pid := idx.nextPID.Add(1) - 1
	if pid >= MaxPIDs {
		panic("bwtree: mapping table exhausted")
	}
	return pid
}

func (idx *Index) head(pid uint64) *record { return idx.mapping[pid].Load() }

// casHead publishes rec as the new head of pid's chain. On success the
// mapping entry is flushed and fenced (the only persistence a non-SMO
// commit needs, §6.3).
func (idx *Index) casHead(pid uint64, old, rec *record) bool {
	if !idx.mapping[pid].CompareAndSwap(old, rec) {
		return false
	}
	idx.heap.Dirty(idx.mapPM, uintptr(pid)*8, 8)
	// RECIPE: flush + fence after the committing CAS (only on success).
	idx.heap.PersistFence(idx.mapPM, uintptr(pid)*8, 8)
	return true
}

// newDelta allocates and persists a delta before it is published.
func (idx *Index) newDelta(kind recKind, key []byte, val uint64, right uint64, next *record) *record {
	r := &record{kind: kind, key: append([]byte(nil), key...), val: val, right: right, next: next}
	if next != nil {
		r.depth = next.depth + 1
	}
	r.pm = idx.heap.Alloc(uintptr(32 + len(key)))
	idx.heap.Shadow(r.pm, r)
	// RECIPE: persist the delta record before the CAS that publishes it.
	idx.heap.Persist(r.pm, 0, uintptr(32+len(key)))
	idx.heap.Fence()
	return r
}

// persistBase persists a freshly built base node.
func (idx *Index) persistBase(r *record) {
	size := uintptr(64)
	for _, k := range r.keys {
		size += uintptr(len(k)) + 16
	}
	r.pm = idx.heap.Alloc(size)
	idx.heap.Shadow(r.pm, r)
	// RECIPE: persist the base node before a mapping entry names it.
	idx.heap.Persist(r.pm, 0, size)
	idx.heap.Fence()
}

// install persists the new base node r under a fresh PID and returns
// the PID.
func (idx *Index) install(r *record) uint64 {
	idx.persistBase(r)
	pid := idx.allocPID()
	idx.mapping[pid].Store(r)
	idx.heap.Dirty(idx.mapPM, uintptr(pid)*8, 8)
	// RECIPE: persist the PID's mapping entry before a split delta or a
	// new root can make it reachable.
	idx.heap.PersistFence(idx.mapPM, uintptr(pid)*8, 8)
	return pid
}

// loadTouch charges the LLC model for reading a record and, on SMO paths,
// issues the Condition #2 load flush.
func (idx *Index) loadTouch(r *record, smo bool) {
	if r == nil {
		return
	}
	size := uintptr(32)
	if r.kind == kBaseLeaf || r.kind == kBaseInner {
		size = 64
		for _, k := range r.keys {
			size += uintptr(len(k)) + 16
		}
	}
	idx.heap.Load(r.pm, 0, size)
	if smo {
		// RECIPE: loads on the SMO help path are flushed so that helping
		// threads persist the state they acted on (§4.4, §6.3).
		idx.heap.Persist(r.pm, 0, 8)
		idx.heap.Fence()
	}
}

// Len returns the number of keys.
func (idx *Index) Len() int { return int(idx.count.Load()) }

// Recover is a no-op beyond the interface contract: the Bw-Tree has no
// locks to re-initialise, and torn SMOs are completed lazily by the
// helping mechanism on the next write that encounters them.
func (idx *Index) Recover() error { return nil }

func keyLess(a, b []byte) bool  { return bytes.Compare(a, b) < 0 }
func keyLeq(a, b []byte) bool   { return bytes.Compare(a, b) <= 0 }
func keyEqual(a, b []byte) bool { return bytes.Equal(a, b) }

// geqHigh reports whether key lies at or beyond a node's high key
// (nil = +inf).
func geqHigh(key, high []byte) bool {
	return high != nil && bytes.Compare(key, high) >= 0
}
