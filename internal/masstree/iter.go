package masstree

import (
	"bytes"
	"encoding/binary"
)

// Iterator is the trie's one ordered walk, non-blocking and never
// retrying; Scan is a loop over it. It keeps one frame per layer on the
// path to its position. A frame buffers one leaf — the entries whose
// payload matches its slot, then the high key, then the sibling link —
// sorted, because a slot reused after the permutation was read yields an
// entry out of place; drops entries at or past the high key, which the
// sibling holds; and after a hop takes only entries above its last
// (DESIGN §Streaming scans). Seek filters against start as the recursive
// walk it replaced did, charging the LLC model the same lines. A returned
// key is assembled in the iterator's buffer, valid until the next call.
type Iterator struct {
	idx     *Index
	frames  []layerFrame // frames[d] walks layer d
	key     []byte       // the key returned last: the layers' slices, then the entry's bytes
	val     uint64
	pending bool // Seek found key for the first Next
}

// layerFrame is the iterator's position in one layer.
type layerFrame struct {
	ents   [Fanout]*leafVal // the buffered leaf's entries, in order, from pos on
	pos, n int
	next   *node    // the buffered leaf's sibling; nil at the end of the layer
	last   *leafVal // the entry taken last
	prefix int      // bytes of key the layers above consumed
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
	it.frames, it.key = it.frames[:0], it.key[:0]
	it.push(it.idx.layer0, start)
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

// push opens a frame on lr at the leaf covering layerStart's slice.
func (it *Iterator) push(lr *layerRoot, layerStart []byte) {
	var slice uint64
	if layerStart != nil {
		slice, _ = sliceOf(layerStart)
	}
	it.frames = append(it.frames, layerFrame{prefix: len(it.key)})
	it.fill(&it.frames[len(it.frames)-1], it.idx.findLeaf(lr, slice))
}

// fill buffers leaf n's live entries into f, in order.
func (it *Iterator) fill(f *layerFrame, n *node) {
	it.idx.heap.Load(n.pm, 0, nodeBytes)
	p := perm(n.perm.Load())
	f.pos, f.n = 0, 0
	for i := 0; i < p.count(); i++ {
		slot := p.slot(i)
		s, lc := n.slices[slot].Load(), int(n.lens[slot].Load())
		if lv := n.vals[slot].Load(); lv != nil && lv.slice == s && lv.lenclass == lc {
			f.ents[f.n] = lv
			f.n++
		}
	}
	highSet, high := n.highSet.Load(), n.high.Load() // published in the other order
	kept := 0
	for _, lv := range f.ents[:f.n] {
		if !highSet || lv.slice < high {
			// Insertion sort: in order already unless a slot was reused.
			j := kept
			for ; j > 0 && entryLess(lv.slice, lv.lenclass, f.ents[j-1].slice, f.ents[j-1].lenclass); j-- {
				f.ents[j] = f.ents[j-1]
			}
			f.ents[j] = lv
			kept++
		}
	}
	f.n, f.next = kept, n.next.Load()
}

// advance assembles the next key into key; within Seek, the next >= start.
func (it *Iterator) advance(start []byte) bool {
	for len(it.frames) > 0 {
		f := &it.frames[len(it.frames)-1]
		if f.pos == f.n {
			if f.next == nil {
				it.frames = it.frames[:len(it.frames)-1]
			} else {
				it.fill(f, f.next)
			}
			continue
		}
		lv := f.ents[f.pos]
		f.pos++
		if f.last != nil && !entryLess(f.last.slice, f.last.lenclass, lv.slice, lv.lenclass) {
			continue // already taken from the leaf before a split
		}
		f.last = lv
		it.key = binary.BigEndian.AppendUint64(it.key[:f.prefix], lv.slice)
		switch {
		case lv.lenclass < suffixClass:
			it.key = it.key[:f.prefix+lv.lenclass]
		case lv.layer != nil:
			var sub []byte // start's rest, if the layer lies on start's path
			if rest := start[min(f.prefix, len(start)):]; len(rest) > 8 && bytes.HasPrefix(start, it.key[:f.prefix]) {
				if s, _ := sliceOf(rest); s == lv.slice {
					sub = rest[8:]
				}
			}
			it.push(lv.layer, sub)
			continue
		default:
			it.key = append(it.key, lv.suffix...)
		}
		if start == nil || bytes.Compare(it.key, start) >= 0 {
			it.val = lv.value
			return true
		}
	}
	return false
}

// Scan implements core.OrderedIndex.
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
