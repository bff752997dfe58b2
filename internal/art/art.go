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

type node4 struct {
	header
	keys     atomicBytes8
	children [4]atomic.Pointer[header]
}

type node16 struct {
	header
	keys     atomicBytes16
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

// Simulated persistent node sizes (header + payload), used for clwb
// accounting and the LLC model.
const (
	node4Bytes   = hdrBytes + 8 + 4*8           // 56
	node16Bytes  = hdrBytes + 16 + 16*8         // 160
	node48Bytes  = hdrBytes + 256 + 48*8        // 656
	node256Bytes = hdrBytes + 256*8             // 2064
	leafHdrBytes = hdrBytes + 8 /* value */ + 8 /* key len */
)

// child-slot persistent offsets within each node kind.
const (
	n4KeysOff   = hdrBytes
	n4ChildOff  = hdrBytes + 8
	n16KeysOff  = hdrBytes
	n16ChildOff = hdrBytes + 16
	n48IdxOff   = hdrBytes
	n48ChildOff = hdrBytes + 256
	n256ChOff   = hdrBytes
	leafValOff  = hdrBytes
)

func (h *header) n4() *node4     { return (*node4)(unsafe.Pointer(h)) }
func (h *header) n16() *node16   { return (*node16)(unsafe.Pointer(h)) }
func (h *header) n48() *node48   { return (*node48)(unsafe.Pointer(h)) }
func (h *header) n256() *node256 { return (*node256)(unsafe.Pointer(h)) }
func (h *header) leaf() *leaf    { return (*leaf)(unsafe.Pointer(h)) }

// prefixSnapshot returns the node's compressed-prefix length and stored
// bytes from a single atomic load, so readers always see a consistent
// (length, bytes) pair.
func (h *header) prefixSnapshot() (int, [maxStoredPrefix]byte) {
	return unpackPrefix(h.prefix.Load())
}

// child returns the child pointer for key byte b, or nil.
func (h *header) child(b byte) *header {
	switch h.kind {
	case kNode4:
		n := h.n4()
		cnt := int(h.count.Load())
		for i := 0; i < cnt; i++ {
			if n.keys.Get(i) == b {
				return n.children[i].Load()
			}
		}
	case kNode16:
		n := h.n16()
		cnt := int(h.count.Load())
		for i := 0; i < cnt; i++ {
			if n.keys.Get(i) == b {
				return n.children[i].Load()
			}
		}
	case kNode48:
		n := h.n48()
		if s := n.index.Get(int(b)); s != 0 {
			return n.children[s-1].Load()
		}
	case kNode256:
		return h.n256().children[b].Load()
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
	case kNode4:
		n := h.n4()
		cnt := int(h.count.Load())
		for i := 0; i < cnt; i++ {
			if c := n.children[i].Load(); c != nil {
				buf = append(buf, entry{n.keys.Get(i), c})
			}
		}
	case kNode16:
		n := h.n16()
		cnt := int(h.count.Load())
		for i := 0; i < cnt; i++ {
			if c := n.children[i].Load(); c != nil {
				buf = append(buf, entry{n.keys.Get(i), c})
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
	var size uintptr
	var concrete any // the full node, for shadow registration
	switch k {
	case kNode4:
		n := &node4{}
		h, size, concrete = &n.header, node4Bytes, n
	case kNode16:
		n := &node16{}
		h, size, concrete = &n.header, node16Bytes, n
	case kNode48:
		n := &node48{}
		h, size, concrete = &n.header, node48Bytes, n
	case kNode256:
		n := &node256{}
		h, size, concrete = &n.header, node256Bytes, n
	default:
		panic("art: bad node kind")
	}
	h.kind = k
	h.level = level
	h.prefix.Store(packPrefix(prefix))
	h.pm = idx.heap.Alloc(size)
	idx.heap.Shadow(h.pm, concrete)
	return h
}

// persistAll flushes a node's entire persistent image (used when a
// freshly built node is about to be published).
func (idx *Index) persistAll(h *header) {
	var size uintptr
	switch h.kind {
	case kNode4:
		size = node4Bytes
	case kNode16:
		size = node16Bytes
	case kNode48:
		size = node48Bytes
	case kNode256:
		size = node256Bytes
	case kLeaf:
		size = uintptr(leafHdrBytes) + uintptr(h.leaf().klen)
	}
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
