// Package recipe is a Go reproduction of "RECIPE: Converting Concurrent
// DRAM Indexes to Persistent-Memory Indexes" (Lee et al., SOSP 2019).
//
// RECIPE's insight is that the isolation machinery of a class of
// concurrent DRAM indexes — non-blocking reads that tolerate
// inconsistencies, writes that can detect and fix them — is exactly the
// machinery crash recovery needs on persistent memory, so such indexes
// become crash-consistent PM indexes by ordering and flushing their
// stores (plus, for Condition #3 indexes, a small helper on the write
// path). This package exports only what the examples call: the five
// converted indexes of the paper (P-ART, P-HOT, P-BwTree, P-CLHT,
// P-Masstree), the four hand-crafted PM baselines they are evaluated
// against (FAST & FAIR, CCEH, Level Hashing, WOART), the simulated
// persistent-memory heap they run on, and ErrCrashed. The sharded
// front-end, which partitions the key space across many independent
// heaps for multi-socket-style scaling and per-shard crash recovery, is
// the shard package; the workload runner, the §5 crash campaigns, the
// group-commit and async write paths and the serving tier live in
// internal/.
//
// Quick start:
//
//	heap := recipe.NewHeap()
//	idx, _ := recipe.NewOrdered("P-ART", heap, recipe.RandInt)
//	_ = idx.Insert([]byte("hello"), 42)
//	v, ok := idx.Lookup([]byte("hello"))
//
// Go has no cache-line flush or fence control, so persistence is
// simulated: every index routes its clwb/mfence placements through a
// Heap, which counts them (reproducing the paper's Fig 4c/4d and Table 4
// counters), optionally models their latency, feeds an LLC simulator, and
// drives the §5 crash and durability testing. See DESIGN.md for the full
// substitution map.
package recipe

import (
	"repro/internal/core"
	"repro/internal/crash"
	"repro/internal/keys"
	"repro/internal/pmem"
)

// OrderedIndex is a persistent index supporting point and range queries
// over byte-string keys. All implementations are safe for concurrent use.
type OrderedIndex = core.OrderedIndex

// HashIndex is a persistent point-query index over non-zero uint64 keys.
type HashIndex = core.HashIndex

// Heap is the simulated persistent-memory pool indexes allocate from.
type Heap = pmem.Heap

// Key kinds used throughout the evaluation (§7).
const (
	// RandInt is the paper's 8-byte random integer key type.
	RandInt = keys.RandInt
	// YCSBString is the paper's 24-byte YCSB string key type.
	YCSBString = keys.YCSBString
)

// KeyKind selects a key encoding.
type KeyKind = keys.Kind

// NewHeap returns a fast simulated-PM heap (counters only).
func NewHeap() *Heap { return pmem.NewFast() }

// NewOrdered constructs one of the ordered indexes by evaluation name:
// "P-ART", "P-HOT", "P-BwTree", "P-Masstree", "FAST & FAIR", or "WOART".
func NewOrdered(name string, heap *Heap, kind KeyKind) (OrderedIndex, error) {
	return core.NewOrdered(name, heap, kind)
}

// NewHash constructs one of the unordered indexes by evaluation name:
// "P-CLHT", "CCEH", or "Level Hashing".
func NewHash(name string, heap *Heap) (HashIndex, error) {
	return core.NewHash(name, heap)
}

// ErrCrashed is returned by operations interrupted by a simulated crash.
var ErrCrashed = crash.ErrCrashed
