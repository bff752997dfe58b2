package fastfair

import (
	"bytes"

	"repro/internal/keys"
)

// Iterator is the tree's one ordered walk, lock-free; Scan is a loop over
// it. It buffers one leaf as an image, copied until two copies agree (a
// shift moving records under a single copy can tear or skip one), skips
// FAST's transient duplicates in it as Lookup does, and after a sibling
// hop takes only keys above the last one returned (DESIGN §Streaming
// scans). Returned keys are valid until the next call.
type Iterator struct {
	t          *Tree
	img, spare leafImage // the buffered leaf, and the copy validating it
	pos        int       // img's next slot
	last       []byte    // the key returned last (start, within Seek)
	val        uint64
	pending    bool   // Seek found last for the first Next
	ibuf       []byte // two integer-key encodings: last's (half cur) and the next
	cur        int
}

// leafImage is a copy of a leaf's slots and sibling link.
type leafImage struct {
	keys    [Cardinality]uint64
	vals    [Cardinality]*vref
	sibling *node
}

func (m *leafImage) copyOf(n *node) {
	for i := range m.vals {
		m.vals[i], m.keys[i] = n.vals[i].Load(), n.keys[i].Load()
	}
	m.sibling = n.sibling.Load()
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
	n, probe := it.t.root.Load(), start
	var pad [8]byte
	if it.t.kind == keys.RandInt && len(start) > 0 && len(start) < 8 {
		copy(pad[:], start) // descend by the smallest integer key >= start
		probe = pad[:]
	}
	for !n.leaf {
		if len(start) == 0 {
			n = n.leftmost.Load()
		} else {
			n = it.t.childFor(n, probe)
		}
	}
	it.fill(n)
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
		for ; it.pos < Cardinality && it.img.vals[it.pos] != nil; it.pos++ {
			v := it.img.vals[it.pos]
			if it.pos+1 < Cardinality && it.img.vals[it.pos+1] == v {
				continue // transient duplicate mid-shift: key not committed
			}
			h := 8 * (1 - it.cur)
			k := it.t.appendKeyBytes(it.ibuf[h:h:h+8], it.img.keys[it.pos])
			if c := bytes.Compare(k, it.last); c > 0 || c == 0 && incl {
				it.last, it.val, it.cur = k, v.v, 1-it.cur
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

// fill images leaf n.
func (it *Iterator) fill(n *node) {
	if it.ibuf == nil {
		it.ibuf = make([]byte, 16)
	}
	it.t.heap.Load(n.pm, 0, nodeBytes)
	it.img.copyOf(n)
	for it.spare.copyOf(n); it.spare != it.img; it.spare.copyOf(n) {
		it.img = it.spare
	}
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
