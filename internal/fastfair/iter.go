package fastfair

import (
	"bytes"

	"repro/internal/keys"
)

// Iterator is the tree's one ordered walk, lock-free; Scan is a loop over
// it. It buffers one leaf as an image (read, shared with Lookup and the
// routing descent) and after a sibling hop takes only keys above the last
// one returned (DESIGN §Readers). Returned keys are valid until the next
// call.
type Iterator struct {
	t       *Tree
	img     image  // the buffered leaf
	pos     int    // img's next record
	last    []byte // the key returned last (start, within Seek)
	val     uint64
	pending bool   // Seek found last for the first Next
	ibuf    []byte // two integer-key encodings: last's (half cur) and the next
	cur     int
}

// NewIterator returns an unpositioned *Iterator as a core.Iterator.
func (t *Tree) NewIterator() interface {
	Seek(start []byte)
	Next() (key []byte, value uint64, ok bool)
} {
	return &Iterator{t: t}
}

// Seek positions the iterator at the smallest key >= start.
func (it *Iterator) Seek(start []byte) {
	var pad [8]byte
	probe := pad[:0] // not nil, which would read whole nodes
	switch {
	case it.t.kind == keys.RandInt && len(start) < 8:
		copy(pad[:], start) // descend by the smallest integer key >= start
		probe = pad[:]
	case len(start) > 0:
		probe = start
	}
	it.fill(it.t.descend(it.t.root.Load(), probe, 0, &it.img))
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

// advance makes the next record above last (or equal, if incl) last.
func (it *Iterator) advance(incl bool) bool {
	for {
		for ; it.pos < it.img.n; it.pos++ {
			h := 8 * (1 - it.cur)
			k := it.t.appendKeyBytes(it.ibuf[h:h:h+8], it.img.keys[it.pos])
			if c := bytes.Compare(k, it.last); c > 0 || c == 0 && incl {
				it.last, it.val, it.cur = k, it.img.vals[it.pos].v, 1-it.cur
				it.pos++
				return true
			}
		}
		if it.img.sibling == nil {
			return false
		}
		it.fill(it.img.sibling)
	}
}

// fill images leaf n whole.
func (it *Iterator) fill(n *node) {
	if it.ibuf == nil {
		it.ibuf = make([]byte, 16)
	}
	it.t.read(n, nil, &it.img)
	it.pos = 0
}

// Scan implements core.OrderedIndex. Leaf sibling links make it a
// linked-list walk, why FAST & FAIR wins YCSB E over the tries (§7.1).
func (t *Tree) Scan(start []byte, count int, fn func(key []byte, value uint64) bool) int {
	it := Iterator{t: t}
	it.Seek(start)
	n := 0
	for k, v, ok := it.Next(); ok && fn(k, v); k, v, ok = it.Next() {
		if n++; n == count {
			break
		}
	}
	return n
}
