// Package art implements P-ART, the RECIPE conversion of the Adaptive
// Radix Tree (Leis et al., ICDE '13; concurrency per "The ART of
// Practical Synchronization") to persistent memory (§6.4).
//
// ART adapts node sizes (4/16/48/256 children) to their occupancy and
// compresses common key prefixes into node headers. Synchronisation
// follows the paper's converted index: reads are non-blocking and never
// retry; writes take per-node locks. Non-SMO inserts append an entry and
// commit it with one atomic store (Condition #1). The path-compression
// split — ART's SMO — consists of exactly two ordered atomic steps:
//
//	step 1: install a new parent node (atomic child-pointer swap);
//	step 2: shorten the old node's compressed prefix.
//
// A crash between the steps leaves a permanently stale prefix. Readers
// tolerate it: each node records its immutable level (depth of its branch
// byte), so a reader that observes depth+prefixLen != level skips the
// prefix and verifies the full key at the leaf. Writes in stock ART detect
// the same mismatch but cannot repair it — Condition #3 — so the RECIPE
// conversion adds (a) permanent-inconsistency detection via try-lock and
// (b) a helper that recomputes and persists the correct prefix from any
// leaf below the node. Conversion points carry "RECIPE:" comments.
package art

import (
	"errors"
	"sync/atomic"
	"unsafe"

	"repro/internal/pmem"
	"repro/internal/pmlock"
)

// ErrPrefixKey is returned when inserting a key that is a proper prefix of
// an existing key (or vice versa). Fixed-width key encodings (the paper's
// randint and YCSB string keys) never trigger it.
var ErrPrefixKey = errors.New("art: key is a proper prefix of an existing key")

// ErrEmptyKey is returned for zero-length keys.
var ErrEmptyKey = errors.New("art: empty key")

// maxKeyLen is the longest key Insert accepts. A compressed prefix is
// shorter than the keys below it and its length is stored in one byte
// (packPrefix), so 256-byte keys are the longest whose every possible
// prefix packs.
const maxKeyLen = 256

// ErrKeyTooLong is returned by Insert for keys over 256 bytes. Lookup,
// Delete and Scan of such a key simply miss.
var ErrKeyTooLong = errors.New("art: key longer than 256 bytes")

// ErrStalled is returned by Insert and Delete after maxRestarts
// consecutive restarts. No known state causes that many; it is a guard
// that turns any restart loop a bug could cause into an error instead of
// a hang.
var ErrStalled = errors.New("art: write restarted too often")

// maxRestarts bounds one write's consecutive restarts. A restart that
// waits out a concurrent split is a spin of well under a microsecond, so
// the bound is generous: a lock holder would have to stay descheduled
// for a million of them.
const maxRestarts = 1 << 20

type kind uint8

const (
	kLeaf kind = iota
	kNode4
	kNode16
	kNode48
	kNode256
)

// maxStoredPrefix is the number of compressed-prefix bytes stored inline
// in the header word. Longer shared prefixes are handled optimistically:
// the stored length is exact, the bytes beyond seven are verified at the
// leaf (reads) or reconstructed from a leaf (writes), as in ART's hybrid
// path compression.
const maxStoredPrefix = 7

// header is the common node prefix. Every inner node type embeds it as
// its first field, so a *header can be cast back to the concrete type. A
// leaf shares only kind and pm with it, at the same offsets.
type header struct {
	kind   kind
	level  uint32 // depth of this node's branch byte; immutable
	pm     pmem.Obj
	prefix atomic.Uint64
	count  atomic.Uint32
	lock   pmlock.Mutex // carries the obsolete mark, as ART's lock word does
}

// Simulated persistent layout shared by all nodes: the first 16 bytes of
// every node hold kind/level/count/prefix.
const (
	hdrBytes  = 16
	offPrefix = 8
)

// packPrefix encodes a compressed prefix: the true length in the top byte
// (capped at 255) and the first seven bytes in the low bytes.
func packPrefix(b []byte) uint64 {
	n := len(b)
	if n > 255 {
		panic("art: prefix longer than 255 bytes")
	}
	v := uint64(n) << 56
	m := n
	if m > maxStoredPrefix {
		m = maxStoredPrefix
	}
	for i := 0; i < m; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

func unpackPrefix(v uint64) (n int, b [maxStoredPrefix]byte) {
	n = int(v >> 56)
	for i := 0; i < maxStoredPrefix; i++ {
		b[i] = byte(v >> (8 * i))
	}
	return n, b
}

// node4 and node16 share a DRAM layout up to their children, so one view
// (small) reads both: a Node4 leaves its second key word unused. Their
// simulated persistent layouts stay packed (small.childOff).
type node4 struct {
	header
	keys     [2]atomic.Uint64
	children [4]atomic.Pointer[header]
}

type node16 struct {
	header
	keys     [2]atomic.Uint64
	children [16]atomic.Pointer[header]
}

type node48 struct {
	header
	index    atomicBytes256 // key byte -> child slot + 1 (0 = empty)
	children [48]atomic.Pointer[header]
}

type node256 struct {
	header
	children [256]atomic.Pointer[header]
}

// inlineKey is the longest key a leaf holds inline: both keys.Kinds fit, and
// the leaf is 56 bytes — one object of the 64-byte size class, one line.
const inlineKey = 24

// leaf is one pointer-free allocation holding the whole record, key bytes
// included: reaching it costs one cache miss and the collector never scans
// it. No code path locks a leaf, marks it obsolete or reads its level,
// prefix or count, so it shares only kind and pm with header, at header's
// offsets: children point at it as a *header through which nothing else
// may be read. kind is written before the leaf is published and never
// again, which is what lets the iterator read it early.
type leaf struct {
	kind  kind
	klen  uint32
	pm    pmem.Obj
	value atomic.Uint64
	inl   [inlineKey]byte
}

// bigLeaf is the leaf of a key longer than inlineKey, told apart by klen.
type bigLeaf struct {
	leaf
	ext []byte
}

func (l *leaf) hdr() *header { return (*header)(unsafe.Pointer(l)) }

// key returns the leaf's immutable key bytes.
func (l *leaf) key() []byte {
	if l.klen > inlineKey {
		return (*bigLeaf)(unsafe.Pointer(l)).ext
	}
	return l.inl[:l.klen]
}

// nodeBytes is each inner node kind's simulated persistent size (header
// + payload), used for clwb accounting and the LLC model.
var nodeBytes = [...]uintptr{
	kNode4:   hdrBytes + 8 + 4*8,    // 56
	kNode16:  hdrBytes + 16 + 16*8,  // 160
	kNode48:  hdrBytes + 256 + 48*8, // 656
	kNode256: hdrBytes + 256*8,      // 2064
}

const leafHdrBytes = hdrBytes + 8 /* value */ + 8 /* key len */

// persistent offsets within a Node48, a Node256 and a leaf; a Node4/16's
// come from its view (small.childOff).
const (
	n48IdxOff   = hdrBytes
	n48ChildOff = hdrBytes + 256
	n256ChOff   = hdrBytes
	leafValOff  = hdrBytes
)

func (h *header) n48() *node48   { return (*node48)(unsafe.Pointer(h)) }
func (h *header) n256() *node256 { return (*node256)(unsafe.Pointer(h)) }
func (h *header) leaf() *leaf    { return (*leaf)(unsafe.Pointer(h)) }

// prefixSnapshot returns the node's compressed-prefix length and stored
// bytes from a single atomic load, so readers always see a consistent
// (length, bytes) pair.
func (h *header) prefixSnapshot() (int, [maxStoredPrefix]byte) {
	return unpackPrefix(h.prefix.Load())
}

// small is the one view through which every Node4/16 branch reads and
// writes the node: slot i's key byte is key(i) and its child is
// children[i]. Slots fill in append order; count publishes them.
type small struct {
	keys     *[2]atomic.Uint64
	children []atomic.Pointer[header]
}

// small returns the view of a Node4 or Node16.
func (h *header) small() small {
	if h.kind == kNode4 {
		n := (*node4)(unsafe.Pointer(h))
		return small{&n.keys, n.children[:]}
	}
	n := (*node16)(unsafe.Pointer(h))
	return small{&n.keys, n.children[:]}
}

// key returns slot i's key byte.
func (s small) key(i int) byte { return atomicBytes(s.keys[:]).Get(i) }

// setKey sets slot i's key byte; the caller holds the node's lock.
func (s small) setKey(i int, b byte) { atomicBytes(s.keys[:]).Set(i, b) }

// childOff is the persistent offset of slot i's child: the key bytes
// come first, at hdrBytes, one per slot in whole words.
func (s small) childOff(i int) uintptr {
	return hdrBytes + uintptr((len(s.children)+7)&^7+8*i)
}

// slotFor returns h's child slot for key byte b and its persistent
// offset, or nil when h has none: the Node4/16 slot whose key byte is b
// (its child is nil if deleted), the Node48 slot its index names, the
// Node256 slot of b.
func (h *header) slotFor(b byte) (*atomic.Pointer[header], uintptr) {
	switch h.kind {
	case kNode4, kNode16:
		s := h.small()
		for i, cnt := 0, int(h.count.Load()); i < cnt; i++ {
			if s.key(i) == b {
				return &s.children[i], s.childOff(i)
			}
		}
	case kNode48:
		if i := int(h.n48().index.Get(int(b))) - 1; i >= 0 {
			return &h.n48().children[i], n48ChildOff + uintptr(i)*8
		}
	case kNode256:
		return &h.n256().children[b], n256ChOff + uintptr(b)*8
	}
	return nil, 0
}

// child returns the child pointer for key byte b, or nil.
func (h *header) child(b byte) *header {
	if s, _ := h.slotFor(b); s != nil {
		return s.Load()
	}
	return nil
}

// entry is a (key byte, child) pair gathered from a node.
type entry struct {
	b byte
	c *header
}

// entries collects the node's live (non-nil) children in slot order. The
// caller must hold the node lock if a consistent snapshot is required
// (growNode). Ordered reads step a frame instead (iter.go).
func (h *header) entries(buf []entry) []entry {
	buf = buf[:0]
	switch h.kind {
	case kNode4, kNode16:
		s := h.small()
		for i, cnt := 0, int(h.count.Load()); i < cnt; i++ {
			if c := s.children[i].Load(); c != nil {
				buf = append(buf, entry{s.key(i), c})
			}
		}
	case kNode48:
		n := h.n48()
		for b := 0; b < 256; b++ {
			if s := n.index.Get(b); s != 0 {
				if c := n.children[s-1].Load(); c != nil {
					buf = append(buf, entry{byte(b), c})
				}
			}
		}
	case kNode256:
		n := h.n256()
		for b := 0; b < 256; b++ {
			if c := n.children[b].Load(); c != nil {
				buf = append(buf, entry{byte(b), c})
			}
		}
	}
	return buf
}

// Index is a persistent adaptive radix tree mapping byte-string keys to
// uint64 values. It is safe for concurrent use: lookups and scans are
// non-blocking, writers use per-node locks.
type Index struct {
	heap   *pmem.Heap
	rootPM pmem.Obj
	root   atomic.Pointer[header]
	rootMu pmlock.Mutex
	gen    pmlock.Gen // stamps every lock of the index; volatile
	count  atomic.Int64
}

// New returns an empty P-ART backed by heap.
func New(heap *pmem.Heap) *Index {
	idx := &Index{heap: heap}
	idx.rootPM = heap.Alloc(64)
	heap.Shadow(idx.rootPM, &idx.root)
	// RECIPE: persist the root line at creation.
	heap.PersistFence(idx.rootPM, 0, 64)
	return idx
}

// Len returns the number of keys in the tree.
func (idx *Index) Len() int { return int(idx.count.Load()) }

// newLeaf copies key: the caller's slice is never retained.
func (idx *Index) newLeaf(key []byte, value uint64) *leaf {
	pm := idx.heap.Alloc(uintptr(leafHdrBytes + len(key)))
	var l *leaf
	if len(key) <= inlineKey {
		l = &leaf{}
		copy(l.inl[:], key)
		idx.heap.Shadow(pm, l)
	} else {
		b := &bigLeaf{ext: append([]byte(nil), key...)}
		l = &b.leaf
		idx.heap.Shadow(pm, b)
	}
	l.kind, l.klen, l.pm = kLeaf, uint32(len(key)), pm
	l.value.Store(value)
	return l
}

func (idx *Index) allocNode(k kind, level uint32, prefix []byte) *header {
	var h *header
	var concrete any // the full node, for shadow registration
	switch k {
	case kNode4:
		n := &node4{}
		h, concrete = &n.header, n
	case kNode16:
		n := &node16{}
		h, concrete = &n.header, n
	case kNode48:
		n := &node48{}
		h, concrete = &n.header, n
	case kNode256:
		n := &node256{}
		h, concrete = &n.header, n
	default:
		panic("art: bad node kind")
	}
	h.kind = k
	h.level = level
	h.prefix.Store(packPrefix(prefix))
	h.pm = idx.heap.Alloc(nodeBytes[k])
	idx.heap.Shadow(h.pm, concrete)
	return h
}

// persistAll flushes a node's entire persistent image (used when a
// freshly built node is about to be published).
func (idx *Index) persistAll(h *header) {
	size := nodeBytes[h.kind]
	if h.kind == kLeaf {
		size = leafHdrBytes + uintptr(h.leaf().klen)
	}
	// RECIPE: persist the whole node before a store publishes it.
	idx.heap.Persist(h.pm, 0, size)
}

// Recover restarts the index after a crash with a new lock generation
// (§6), which frees every lock and obsolete mark the crash left behind: a
// restart can revert the swap that retired a node, and a node reachable
// after recovery is live. RECIPE indexes repair lazily on the write path.
func (idx *Index) Recover() error {
	idx.gen.Restart()
	return nil
}
