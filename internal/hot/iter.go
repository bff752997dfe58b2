package hot

import "bytes"

// Iterator is the trie's one ordered walk, non-blocking; Scan is a loop
// over it. Its stack frames are (node, next entry): entry sets are
// immutable, so after a copy-on-write swap it finishes the retired copy,
// which shares the live entries (DESIGN §Readers). Seek starts
// each node on start's path at the entry routing start. Returned keys
// alias immutable entries.
type Iterator struct {
	idx     *Index
	stack   []frame
	key     []byte // the entry returned last
	val     uint64
	pending bool // Seek found key for the first Next
}

// frame is a node on the path to the position and its next entry.
type frame struct {
	n *hnode
	i int
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
	it.stack = it.stack[:0]
	if root := it.idx.root.Load(); root != nil {
		it.push(root, start)
	}
	it.pending = it.advance(start)
}

// Next returns the key at the position and moves past it.
func (it *Iterator) Next() (key []byte, value uint64, ok bool) {
	if it.pending {
		it.pending = false
	} else if !it.advance(nil) {
		return nil, 0, false
	}
	return it.key, it.val, true
}

// push charges the read of n and stacks it at its first entry or, within
// Seek, at the entry routing start: those before hold only smaller keys.
func (it *Iterator) push(n *hnode, start []byte) {
	it.idx.heap.Load(n.pm, 0, n.bytesSize())
	i := 0
	if start != nil {
		i = max(n.candidate(start), 0)
	}
	it.stack = append(it.stack, frame{n, i})
}

// advance steps to the next leaf entry; within Seek, the next >= start.
func (it *Iterator) advance(start []byte) bool {
	for len(it.stack) > 0 {
		f := &it.stack[len(it.stack)-1]
		if f.i == len(f.n.entries) {
			it.stack = it.stack[:len(it.stack)-1]
			continue
		}
		e := f.n.entries[f.i]
		f.i++
		if !e.isLeaf {
			if c := e.child.Load(); c != nil {
				it.push(c, start)
			}
		} else if start == nil || bytes.Compare(e.key, start) >= 0 {
			it.key, it.val = e.key, e.value
			return true
		}
	}
	return false
}

// Scan implements core.OrderedIndex. With no leaf sibling links it walks
// the tree, why trie scans trail FAST & FAIR on YCSB E (§7.1).
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
