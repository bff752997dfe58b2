package bwtree

import "bytes"

// Iterator is the tree's one ordered walk, non-blocking; Scan is a loop
// over it. It buffers one logical leaf replayed from the immutable chain
// the mapping table held when it got there (flattenLeaf: one state of the
// leaf and the right sibling that state names), and after a hop takes
// only keys above the last one returned. Returned keys alias immutable
// records.
type Iterator struct {
	idx     *Index
	ks      [][]byte // the buffered leaf's keys and values, from pos on
	vs      []uint64
	pos     int
	next    uint64 // the buffered leaf's right sibling; 0 at the end
	last    []byte // the key returned last (start, within Seek)
	val     uint64
	pending bool // Seek found last for the first Next
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
	_, head, _ := it.idx.findLeaf(start, false)
	it.fill(head)
	it.last = start
	if it.pending = it.advance(true); !it.pending {
		it.last = nil
	}
}

// Next returns the key at the position and moves past it.
func (it *Iterator) Next() (key []byte, value uint64, ok bool) {
	if it.pending {
		it.pending = false
	} else if !it.advance(false) {
		return nil, 0, false
	}
	return it.last, it.val, true
}

// advance makes the next key above last (or equal, if incl) last.
func (it *Iterator) advance(incl bool) bool {
	for {
		for ; it.pos < len(it.ks); it.pos++ {
			if c := bytes.Compare(it.ks[it.pos], it.last); c > 0 || c == 0 && incl {
				it.last, it.val = it.ks[it.pos], it.vs[it.pos]
				it.pos++
				return true
			}
		}
		if it.next == 0 {
			return false
		}
		it.fill(it.idx.head(it.next))
	}
}

func (it *Iterator) fill(head *record) {
	it.ks, it.vs, _, it.next = it.idx.flattenLeaf(head)
	it.pos = 0
}

// Scan implements core.OrderedIndex. Replaying each leaf's deltas is the
// pointer chasing behind P-BwTree's weak workload E numbers (Fig 4c).
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
