// Package woart implements WOART — Write Optimal Adaptive Radix Tree
// (Lee et al., FAST '17) — the hand-crafted, single-threaded PM radix
// tree RECIPE compares P-ART against in §7.3.
//
// WOART redesigns ART's node types for failure atomicity on PM: node4
// gains an 8-byte slot-ordering word updated atomically after the entry
// is written, node16/48 use their index arrays as commit points, and path
// compression headers are updated with 8-byte atomic stores. The design
// is single-writer; its authors suggest a global lock for
// multi-threading, which is what this port provides (and what limits it
// to 2–20x below P-ART on multi-threaded YCSB, the §7.3 result).
//
// Because a global lock serialises writers AND readers cannot proceed
// during writes in the suggested scheme, the port uses a sync.RWMutex:
// concurrent readers, exclusive writers.
package woart

import (
	"bytes"
	"errors"
	"sort"
	"sync"

	"repro/internal/crash"
	"repro/internal/pmem"
)

// ErrEmptyKey is returned for zero-length keys.
var ErrEmptyKey = errors.New("woart: empty key")

// node is a simplified adaptive radix node: a sorted array of byte-keyed
// slots, plus a compressed prefix. Its allocation holds slots slots, a
// capacity class 4, 16, 48 or 256; an insert past it grows the node
// copy-on-write into the next class. Single-writer discipline (the global
// lock) removes the need for per-node synchronisation.
type node struct {
	pm       pmem.Obj
	slots    int
	prefix   []byte
	depth    int // key depth of this node's branch byte
	keys     []byte
	children []any // *node or *leaf, parallel to keys
}

type leaf struct {
	pm    pmem.Obj
	key   []byte
	value uint64
}

func capFor(n int) int {
	switch {
	case n <= 4:
		return 4
	case n <= 16:
		return 16
	case n <= 48:
		return 48
	default:
		return 256
	}
}

// nodeBytes is a node's persistent size: a 16-byte header (the ordering
// word, the prefix) and 9-byte slots, slot i's child pointer at 16+9i
// and its key byte after it.
func nodeBytes(capacity int) uintptr { return uintptr(16 + capacity*9) }

// ref is a persistent child reference: the Go slot and the 8-byte word
// that models it, the root word or a parent node's child pointer.
type ref struct {
	p   *any
	obj pmem.Obj
	off uintptr
}

// rootSlot is the tree's only top-level persistent object: the 8-byte
// root pointer the commit stores write. It exists as its own struct so
// shadow registration covers a pure-persistent value — the volatile
// Index (its sync.RWMutex, its cached count) is never a shadow target
// and can never be captured into, or restored out of, a power-failure
// image.
type rootSlot struct {
	root any
}

// Index is a WOART tree guarded by a global reader/writer lock. The
// lock and the key count are volatile state, rebuilt on recovery; the
// persistent root pointer lives in slot.
type Index struct {
	heap   *pmem.Heap
	rootPM pmem.Obj
	mu     sync.RWMutex
	slot   rootSlot
	count  int
}

// New returns an empty WOART backed by heap.
func New(heap *pmem.Heap) *Index {
	idx := &Index{heap: heap}
	idx.rootPM = heap.Alloc(64)
	heap.Shadow(idx.rootPM, &idx.slot)
	heap.PersistFence(idx.rootPM, 0, 64)
	return idx
}

// Len returns the number of keys.
func (idx *Index) Len() int {
	idx.mu.RLock()
	defer idx.mu.RUnlock()
	return idx.count
}

func (idx *Index) newLeaf(key []byte, value uint64) *leaf {
	l := &leaf{key: append([]byte(nil), key...), value: value}
	l.pm = idx.heap.Alloc(uintptr(16 + len(key)))
	idx.heap.Shadow(l.pm, l)
	// WOART persists the leaf before linking it.
	idx.heap.Persist(l.pm, 0, uintptr(16+len(key)))
	idx.heap.Fence()
	return l
}

// newNode allocates a node of slots slots; the caller writes it back
// once its children are in, before linking it.
func (idx *Index) newNode(prefix []byte, depth, slots int) *node {
	n := &node{slots: slots, prefix: append([]byte(nil), prefix...), depth: depth}
	n.pm = idx.heap.Alloc(nodeBytes(slots))
	idx.heap.Shadow(n.pm, n)
	return n
}

func (n *node) find(b byte) int {
	i := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] >= b })
	if i < len(n.keys) && n.keys[i] == b {
		return i
	}
	return -1
}

// Lookup returns the value stored under key.
func (idx *Index) Lookup(key []byte) (uint64, bool) {
	idx.mu.RLock()
	defer idx.mu.RUnlock()
	cur := idx.slot.root
	depth := 0
	for cur != nil {
		switch c := cur.(type) {
		case *leaf:
			idx.heap.Load(c.pm, 0, uintptr(16+len(c.key)))
			if bytes.Equal(c.key, key) {
				return c.value, true
			}
			return 0, false
		case *node:
			idx.heap.Load(c.pm, 0, nodeBytes(capFor(len(c.keys))))
			if len(c.prefix) > 0 {
				if len(key) < depth+len(c.prefix) || !bytes.Equal(key[depth:depth+len(c.prefix)], c.prefix) {
					return 0, false
				}
			}
			depth = c.depth
			if depth >= len(key) {
				return 0, false
			}
			i := c.find(key[depth])
			if i < 0 {
				return 0, false
			}
			cur = c.children[i]
			depth++
		}
	}
	return 0, false
}

// Insert stores value under key, overwriting an existing binding. Writers
// hold the global lock — the serialisation §7.3 measures.
func (idx *Index) Insert(key []byte, value uint64) (err error) {
	if len(key) == 0 {
		return ErrEmptyKey
	}
	idx.mu.Lock()
	defer idx.mu.Unlock()
	defer crash.Catch(&err)
	if idx.slot.root == nil {
		l := idx.newLeaf(key, value)
		idx.slot.root = l
		idx.heap.Commit(idx.rootPM, 0, 8, "woart.insert.root")
		idx.count++
		return nil
	}
	added, err := idx.insert(ref{&idx.slot.root, idx.rootPM, 0}, 0, key, value)
	if err != nil {
		return err
	}
	if added {
		idx.count++
	}
	return nil
}

// Update overwrites the value under key: Insert's upsert
// (core.PointIndex.Update).
func (idx *Index) Update(key []byte, value uint64) error { return idx.Insert(key, value) }

// insert descends recursively from the node or leaf r holds.
func (idx *Index) insert(r ref, depth int, key []byte, value uint64) (bool, error) {
	switch c := (*r.p).(type) {
	case *leaf:
		if bytes.Equal(c.key, key) {
			// In-place 8-byte value update, persisted.
			c.value = value
			idx.heap.Commit(c.pm, 8, 8, "woart.update")
			return false, nil
		}
		cp := 0
		for depth+cp < len(key) && depth+cp < len(c.key) && key[depth+cp] == c.key[depth+cp] {
			cp++
		}
		if depth+cp == len(key) || depth+cp == len(c.key) {
			return false, errors.New("woart: key is a prefix of an existing key")
		}
		nn := idx.newNode(key[depth:depth+cp], depth+cp, 4)
		nl := idx.newLeaf(key, value)
		nn.addChild(c.key[depth+cp], c)
		nn.addChild(key[depth+cp], nl)
		idx.heap.Persist(nn.pm, 0, nodeBytes(capFor(2)))
		idx.heap.FenceAt("woart.leafsplit.built")
		*r.p = nn
		idx.heap.Commit(r.obj, r.off, 8, "woart.leafsplit.commit")
		return true, nil
	case *node:
		// Prefix mismatch: split the compressed path (two ordered steps
		// in WOART, both under the global lock).
		pl := len(c.prefix)
		cp := 0
		for cp < pl && depth+cp < len(key) && c.prefix[cp] == key[depth+cp] {
			cp++
		}
		if cp < pl {
			if depth+cp >= len(key) {
				return false, errors.New("woart: key is a prefix of an existing key")
			}
			nn := idx.newNode(c.prefix[:cp], depth+cp, 4)
			nl := idx.newLeaf(key, value)
			nn.addChild(c.prefix[cp], c)
			nn.addChild(key[depth+cp], nl)
			idx.heap.Persist(nn.pm, 0, nodeBytes(capFor(2)))
			idx.heap.FenceAt("woart.split.built")
			*r.p = nn
			idx.heap.Commit(r.obj, r.off, 8, "")
			c.prefix = append([]byte(nil), c.prefix[cp+1:]...)
			idx.heap.Commit(c.pm, 0, 16, "woart.split.prefix")
			return true, nil
		}
		depth = c.depth
		if depth >= len(key) {
			return false, errors.New("woart: key is a prefix of an existing key")
		}
		b := key[depth]
		if i := c.find(b); i >= 0 {
			return idx.insert(ref{&c.children[i], c.pm, uintptr(16 + 9*i)}, depth+1, key, value)
		}
		nl := idx.newLeaf(key, value)
		if len(c.keys) == c.slots {
			// Full: build the next capacity class beside it, write it back
			// whole, and store it through the slot that holds c.
			g := idx.newNode(c.prefix, c.depth, capFor(c.slots+1))
			g.keys = append(g.keys, c.keys...)
			g.children = append(g.children, c.children...)
			g.addChild(b, nl)
			idx.heap.Persist(g.pm, 0, nodeBytes(g.slots))
			idx.heap.FenceAt("woart.grow.built")
			*r.p = g
			idx.heap.Commit(r.obj, r.off, 8, "woart.grow.commit")
			return true, nil
		}
		c.addChild(b, nl)
		// WOART: persist the slot array, fence, then store and persist the
		// ordering word.
		idx.heap.Commit(c.pm, 16, uintptr(len(c.keys))*9, "")
		idx.heap.Commit(c.pm, 0, 8, "woart.insert.commit")
		return true, nil
	}
	return false, nil
}

func (n *node) addChild(b byte, child any) {
	i := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] >= b })
	n.keys = append(n.keys, 0)
	n.children = append(n.children, nil)
	copy(n.keys[i+1:], n.keys[i:])
	copy(n.children[i+1:], n.children[i:])
	n.keys[i] = b
	n.children[i] = child
}

// Delete removes key.
func (idx *Index) Delete(key []byte) (deleted bool, err error) {
	if len(key) == 0 {
		return false, ErrEmptyKey
	}
	idx.mu.Lock()
	defer idx.mu.Unlock()
	defer crash.Catch(&err)
	if l, ok := idx.slot.root.(*leaf); ok {
		if bytes.Equal(l.key, key) {
			idx.slot.root = nil
			idx.heap.Commit(idx.rootPM, 0, 8, "")
			idx.count--
			return true, nil
		}
		return false, nil
	}
	n, _ := idx.slot.root.(*node)
	depth := 0
	for n != nil {
		if len(n.prefix) > 0 {
			if len(key) < depth+len(n.prefix) || !bytes.Equal(key[depth:depth+len(n.prefix)], n.prefix) {
				return false, nil
			}
		}
		depth = n.depth
		if depth >= len(key) {
			return false, nil
		}
		i := n.find(key[depth])
		if i < 0 {
			return false, nil
		}
		if l, ok := n.children[i].(*leaf); ok {
			if !bytes.Equal(l.key, key) {
				return false, nil
			}
			n.keys = append(n.keys[:i], n.keys[i+1:]...)
			n.children = append(n.children[:i], n.children[i+1:]...)
			idx.heap.Commit(n.pm, 0, 8, "woart.delete.commit")
			idx.count--
			return true, nil
		}
		n = n.children[i].(*node)
		depth++
	}
	return false, nil
}

// Recover re-initialises the global lock after a simulated crash.
func (idx *Index) Recover() error {
	idx.mu = sync.RWMutex{}
	return nil
}
