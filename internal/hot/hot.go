// Package hot implements P-HOT, the RECIPE conversion of the Height
// Optimized Trie (Binna et al., SIGMOD '18) to persistent memory (§6.1).
//
// HOT keeps trie height low by packing many discriminative decisions into
// compound nodes with high, adaptive fanout. Every update is performed by
// copy-on-write: the affected compound node (or, during a structure
// modification, the affected subtree) is rebuilt off-path and committed
// by atomically swapping the single pointer that references it. SMOs lock
// the affected nodes bottom-up and unlock top-down. Because every change
// becomes visible through one hardware-atomic pointer store, HOT
// satisfies RECIPE Condition #1 and its conversion only adds cache-line
// write-backs and fences around the commit (38 LOC in the paper).
//
// This port keeps the commit protocol, the compound high-fanout nodes,
// and the bottom-up-lock SMOs, but replaces the original's SIMD-packed
// sparse-partial-key layout with portable sorted entry arrays: the
// discriminative-bit search inside a node becomes a binary search, which
// preserves the cache-efficiency argument (one compact node per ~log_16
// levels of the key space) without processor-specific code.
package hot

import (
	"bytes"
	"errors"
	"sort"
	"sync/atomic"

	"repro/internal/pmem"
	"repro/internal/pmlock"
)

// MaxFanout is the compound-node capacity.
const MaxFanout = 16

// ErrEmptyKey is returned for zero-length keys.
var ErrEmptyKey = errors.New("hot: empty key")

// ErrStalled is returned by Insert and Delete after maxRestarts
// consecutive failed commits. The index is unchanged. No known state
// reaches it: the one that did, a node left reachable with its obsolete
// mark after a restart reverted the swap that retired it, reads as live
// once Recover has begun a new lock generation. It stays as a guard
// because each attempt allocates, so a write that can never commit must
// not retry for ever.
var ErrStalled = errors.New("hot: write restarted too often")

// maxRestarts bounds one write's consecutive restarts. A restart builds
// a copy-on-write node, so the bound caps what a write that can never
// commit allocates (P-ART's spin-only restart allows 1<<20). A commit
// fails only when another writer committed on the same path between
// this writer's descent and its lock, so contention reaches the bound
// only if others win that race 4096 times running;
// TestConcurrentSameRangeNoStall's eight writers on one key range stay
// far below it.
const maxRestarts = 4096

// entry is one slot of a compound node: a full-key leaf or a child
// subtree. key is immutable; it is the leaf's key or the subtree's
// separator (a lower bound of every key below it). Only the child pointer
// mutates, and only under the owning node's lock.
type entry struct {
	key    []byte
	isLeaf bool
	value  uint64
	child  atomic.Pointer[hnode]
}

func leafEntry(key []byte, v uint64) *entry {
	return &entry{key: append([]byte(nil), key...), isLeaf: true, value: v}
}

func childEntry(sep []byte, n *hnode) *entry {
	e := &entry{key: sep}
	e.child.Store(n)
	return e
}

// hnode is a compound node. The entry set (keys, kinds, values) is
// immutable after publication; replacing it means building a new node and
// swapping the single pointer that references the old one.
type hnode struct {
	pm      pmem.Obj
	lock    pmlock.Mutex // carries the obsolete mark of a swapped-out node
	entries []*entry
}

// entryBytes is the nominal persistent footprint of one slot (separator
// reference + tagged pointer), used for flush accounting.
const entryBytes = 24

func (n *hnode) bytesSize() uintptr {
	s := uintptr(16)
	for i := range n.entries {
		s += uintptr(len(n.entries[i].key)) + entryBytes
	}
	return s
}

// candidate returns the index of the entry routing key (the last entry
// with entry.key <= key), or -1 when key sorts before every entry.
func (n *hnode) candidate(key []byte) int {
	i := sort.Search(len(n.entries), func(i int) bool {
		return bytes.Compare(n.entries[i].key, key) > 0
	})
	return i - 1
}

// Index is a persistent height-optimized trie mapping byte-string keys to
// uint64 values. Lookups and scans are non-blocking; writers lock
// bottom-up around the copy-on-write commit.
type Index struct {
	heap   *pmem.Heap
	rootPM pmem.Obj
	root   atomic.Pointer[hnode]
	rootMu pmlock.Mutex
	gen    pmlock.Gen // stamps every lock of the index; volatile
	count  atomic.Int64
}

// New returns an empty P-HOT backed by heap.
func New(heap *pmem.Heap) *Index {
	idx := &Index{heap: heap}
	idx.rootPM = heap.Alloc(64)
	heap.Shadow(idx.rootPM, &idx.root)
	// RECIPE: persist the root line at creation.
	heap.PersistFence(idx.rootPM, 0, 64)
	return idx
}

// Len returns the number of keys.
func (idx *Index) Len() int { return int(idx.count.Load()) }

// newNode builds and persists a compound node from sorted entries.
func (idx *Index) newNode(entries []*entry) *hnode {
	n := &hnode{entries: entries}
	n.pm = idx.heap.Alloc(n.bytesSize())
	idx.heap.Shadow(n.pm, n)
	// RECIPE: persist the copy-on-write node before it is published.
	idx.heap.Persist(n.pm, 0, n.bytesSize())
	return n
}

// Lookup returns the value stored under key. Non-blocking: compound nodes
// are immutable snapshots and commits are single pointer swaps, so a
// reader sees either the old or the new version of a subtree.
func (idx *Index) Lookup(key []byte) (uint64, bool) {
	n := idx.root.Load()
	for n != nil {
		idx.heap.Load(n.pm, 0, n.bytesSize())
		i := n.candidate(key)
		if i < 0 {
			return 0, false
		}
		e := n.entries[i]
		if e.isLeaf {
			if bytes.Equal(e.key, key) {
				return e.value, true
			}
			return 0, false
		}
		n = e.child.Load()
	}
	return 0, false
}

// Recover restarts the index after a crash with a new lock generation,
// which frees every lock and obsolete mark the crash left behind: a node
// reachable after recovery is live. Commits are single atomic stores, so
// every crash state is before or after a complete update (§6.1).
func (idx *Index) Recover() error {
	idx.gen.Restart()
	return nil
}
