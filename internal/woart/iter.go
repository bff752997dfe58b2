package woart

import (
	"bytes"
	"sort"
)

// Iterator is the tree's one ordered walk; Scan is a loop over it. It
// holds the global read lock for one Seek or Next at a time, and since
// writers shift a node's sorted slots in place, its stack frames record
// the next branch byte to visit, not a slot (DESIGN §Streaming scans).
// Returned keys alias immutable leaf keys.
type Iterator struct {
	idx     *Index
	stack   []frame
	key     []byte // the leaf returned last
	val     uint64
	pending bool // Seek found key for the first Next
}

// frame is a node on the path to the position.
type frame struct {
	n       *node
	next    int  // the smallest branch byte not yet visited
	bounded bool // reached along start's bytes; cleared by the first step
}

// NewIterator returns an unpositioned *Iterator as a core.Iterator.
func (idx *Index) NewIterator() interface {
	Seek(start []byte)
	Next() (key []byte, value uint64, ok bool)
} {
	return &Iterator{idx: idx}
}

// Seek positions the iterator at the smallest key >= start.
func (it *Iterator) Seek(start []byte) {
	it.idx.mu.RLock()
	defer it.idx.mu.RUnlock()
	it.stack = it.stack[:0]
	it.pending = it.visit(it.idx.slot.root, len(start) > 0, start) || it.advance(start)
}

// Next returns the key at the position and moves past it.
func (it *Iterator) Next() (key []byte, value uint64, ok bool) {
	if it.pending {
		it.pending = false
		return it.key, it.val, true
	}
	it.idx.mu.RLock()
	defer it.idx.mu.RUnlock()
	if !it.advance(nil) {
		return nil, 0, false
	}
	return it.key, it.val, true
}

// visit makes c the position if it is a leaf in the iteration (only a
// bounded one is checked against start), or stacks it if it is a node.
func (it *Iterator) visit(c any, bounded bool, start []byte) bool {
	switch c := c.(type) {
	case *leaf:
		if !bounded || bytes.Compare(c.key, start) >= 0 {
			it.key, it.val = c.key, c.value
			return true
		}
	case *node:
		it.stack = append(it.stack, frame{n: c, bounded: bounded})
	}
	return false
}

// advance steps to the next leaf; start is read via bounded frames only.
func (it *Iterator) advance(start []byte) bool {
	for len(it.stack) > 0 {
		f := &it.stack[len(it.stack)-1]
		lo, bounded := f.next, false
		if f.bounded {
			f.bounded = false
			// Compare n's compressed prefix with start's bytes there
			// (zero past its end): below, the subtree is < start; above,
			// it is > start and taken whole; equal, start's byte bounds.
			c, d := 0, f.n.depth-len(f.n.prefix)
			for i := 0; i < len(f.n.prefix) && c == 0; i++ {
				if c = int(f.n.prefix[i]); d+i < len(start) {
					c -= int(start[d+i])
				}
			}
			if c < 0 {
				it.stack = it.stack[:len(it.stack)-1]
				continue
			} else if c == 0 && f.n.depth < len(start) {
				lo, bounded = int(start[f.n.depth]), true
			}
		}
		keys := f.n.keys
		i := sort.Search(len(keys), func(i int) bool { return int(keys[i]) >= lo })
		if i == len(keys) {
			it.stack = it.stack[:len(it.stack)-1]
			continue
		}
		f.next = int(keys[i]) + 1
		if it.visit(f.n.children[i], bounded && int(keys[i]) == lo, start) {
			return true
		}
	}
	return false
}

// Scan implements core.OrderedIndex, taking the read lock per key.
func (idx *Index) Scan(start []byte, count int, fn func(key []byte, value uint64) bool) int {
	it := Iterator{idx: idx}
	it.Seek(start)
	n := 0
	for k, v, ok := it.Next(); ok && fn(k, v); k, v, ok = it.Next() {
		if n++; n == count {
			break
		}
	}
	return n
}
