// Package masstree implements P-Masstree, the RECIPE conversion of
// Masstree (Mao et al., EuroSys '12) to persistent memory (§6.5).
//
// Masstree is a trie of B+ trees: each layer indexes 8 bytes of key; keys
// that share a full 8-byte slice continue into a deeper layer. Leaf
// entries are committed by atomically publishing a new 8-byte permutation
// word (count + sorted slot order), so non-SMO inserts and deletes
// satisfy Condition #1.
//
// The original Masstree lets readers retry on version numbers during
// structure modifications — exactly the pattern RECIPE cannot convert.
// The paper therefore reworks the internal nodes to resemble the leaf
// nodes and follow the B-link protocol: a split copies the upper half
// into a new sibling, atomically installs the sibling pointer (step 1),
// then atomically truncates the split node's permutation (step 2).
// Readers tolerate the intermediate states by following sibling links and
// never retry; Lookup and the iterator see a leaf only through one image
// (read), so the rule for a reused slot is stated once. Writes, however,
// cannot repair a crash-torn split — Condition #3 — so the conversion
// adds try-lock crash detection plus a helper that simply replays the
// split completion (§6.5). Conversion points carry "RECIPE:" comments.
package masstree

import (
	"encoding/binary"
	"errors"
	"sync/atomic"

	"repro/internal/pmem"
	"repro/internal/pmlock"
)

// Fanout is the number of entries per node (15 slot indexes + a count fit
// one 8-byte permutation word).
const Fanout = 15

// ErrEmptyKey is returned for zero-length keys.
var ErrEmptyKey = errors.New("masstree: empty key")

// lenclass encodes how a leaf entry uses its key slice: 1..8 = the key
// ends within this slice with that many bytes; 9 = the key continues
// (suffix stored out of line or in a deeper layer).
const suffixClass = 9

// perm is Masstree's 8-byte permutation: bits 0..3 hold the live count,
// nibble i (bits 4+4i..) holds the slot index at sorted position i. All
// 15 slot indexes are always present, so nibbles at positions >= count
// form the free list.
type perm uint64

// emptyPerm has count 0 and the identity free list.
func emptyPerm() perm {
	var p uint64
	for i := 0; i < Fanout; i++ {
		p |= uint64(i) << (4 + 4*uint(i))
	}
	return perm(p)
}

func (p perm) count() int { return int(p & 0xF) }

func (p perm) slot(i int) int { return int(p>>(4+4*uint(i))) & 0xF }

// insertAt returns a new permutation with the free-head slot placed at
// sorted position pos. It also returns the slot used.
func (p perm) insertAt(pos int) (perm, int) {
	n := p.count()
	slot := p.slot(n) // free head
	nibbles := make([]int, Fanout)
	for i := 0; i < Fanout; i++ {
		nibbles[i] = p.slot(i)
	}
	copy(nibbles[pos+1:n+1], nibbles[pos:n])
	nibbles[pos] = slot
	var np uint64 = uint64(n + 1)
	for i := 0; i < Fanout; i++ {
		np |= uint64(nibbles[i]) << (4 + 4*uint(i))
	}
	return perm(np), slot
}

// removeAt returns a new permutation with sorted position pos removed
// (its slot returns to the free list).
func (p perm) removeAt(pos int) perm {
	n := p.count()
	nibbles := make([]int, Fanout)
	for i := 0; i < Fanout; i++ {
		nibbles[i] = p.slot(i)
	}
	s := nibbles[pos]
	copy(nibbles[pos:n-1], nibbles[pos+1:n])
	nibbles[n-1] = s
	var np uint64 = uint64(n - 1)
	for i := 0; i < Fanout; i++ {
		np |= uint64(nibbles[i]) << (4 + 4*uint(i))
	}
	return perm(np)
}

// truncate returns a new permutation keeping only the first keep sorted
// positions (the slots beyond return to the free list in place).
func (p perm) truncate(keep int) perm {
	return perm(uint64(p)&^0xF | uint64(keep))
}

// leafVal is the immutable payload of one leaf entry. Swapping the entry's
// payload pointer is a single atomic store, so converting a suffix entry
// into a layer link (or updating a value) commits atomically. The payload
// carries its own (slice, lenclass) so a reader that races a slot reuse
// can verify the pair and never return a mismatched value.
type leafVal struct {
	pm       pmem.Obj
	slice    uint64
	lenclass int
	value    uint64
	suffix   []byte     // lenclass == suffixClass and layer == nil
	layer    *layerRoot // lenclass == suffixClass and layer != nil
}

// layerRoot anchors one B+ tree layer.
type layerRoot struct {
	pm   pmem.Obj
	root atomic.Pointer[node]
	mu   pmlock.Mutex // guards root replacement
}

// Simulated persistent node layout: 8B permutation + 15*8B key slices +
// 16*8B pointers + 64B header/high/sibling ≈ 4 cache lines.
const nodeBytes = 8 + Fanout*8 + 16*8 + 64

const (
	offPerm    = 0
	offSlices  = 8
	offPtrs    = 8 + Fanout*8
	offHigh    = 8 + Fanout*8 + 16*8
	offSibling = offHigh + 8
)

type node struct {
	pm   pmem.Obj
	lock pmlock.Mutex
	leaf bool
	// level is the node's height within its layer (0 = leaf).
	level int

	perm   atomic.Uint64
	slices [Fanout]atomic.Uint64

	// Leaf payloads.
	vals [Fanout]atomic.Pointer[leafVal]
	// Leaf lenclasses, packed like the ART key arrays (readable without
	// locks; each entry only written before its perm publication).
	lens [Fanout]atomic.Uint32

	// Internal children: kids[0] is the leftmost child; the child for
	// slot s lives at kids[s+1].
	kids [Fanout + 1]atomic.Pointer[node]

	next    atomic.Pointer[node]
	high    atomic.Uint64
	highSet atomic.Bool
}

// Index is a persistent Masstree over byte-string keys.
type Index struct {
	heap   *pmem.Heap
	layer0 *layerRoot
	gen    pmlock.Gen // stamps every lock of every layer; volatile
	count  atomic.Int64
}

// New returns an empty P-Masstree backed by heap.
func New(heap *pmem.Heap) *Index {
	idx := &Index{heap: heap}
	idx.layer0 = idx.newLayerRoot()
	r := idx.newNode(true, 0)
	idx.layer0.root.Store(r)
	// RECIPE: persist the initial root node and layer anchor.
	heap.PersistFence(r.pm, 0, nodeBytes)
	heap.PersistFence(idx.layer0.pm, 0, 64)
	return idx
}

func (idx *Index) newLayerRoot() *layerRoot {
	lr := &layerRoot{}
	lr.pm = idx.heap.Alloc(64)
	idx.heap.Shadow(lr.pm, lr)
	return lr
}

func (idx *Index) newNode(leaf bool, level int) *node {
	n := &node{leaf: leaf, level: level}
	n.perm.Store(uint64(emptyPerm()))
	n.pm = idx.heap.Alloc(nodeBytes)
	idx.heap.Shadow(n.pm, n)
	return n
}

// sliceOf extracts the 8-byte big-endian key slice and lenclass of the
// remaining key bytes.
func sliceOf(rem []byte) (uint64, int) {
	var b [8]byte
	n := copy(b[:], rem)
	s := binary.BigEndian.Uint64(b[:])
	if len(rem) > 8 {
		return s, suffixClass
	}
	return s, n
}

// entryLess orders leaf entries by (slice, lenclass): shorter keys sort
// before longer keys sharing the same padded slice.
func entryLess(s1 uint64, c1 int, s2 uint64, c2 int) bool {
	if s1 != s2 {
		return s1 < s2
	}
	return c1 < c2
}

// Len returns the number of keys in the index.
func (idx *Index) Len() int { return int(idx.count.Load()) }

// Recover restarts the index after a crash with a new lock generation,
// which frees every lock the crash left held in any layer (§6). A torn
// leaf split is repaired lazily, by the first writer to lock the leaf.
func (idx *Index) Recover() error {
	idx.gen.Restart()
	return nil
}
