package masstree

import (
	"bytes"
	"encoding/binary"
)

// Iterator is the trie's one ordered walk, non-blocking and never
// retrying; Scan is a loop over it. It keeps one frame per layer on the
// path to its position. A frame buffers one leaf as Lookup reads it (read)
// and after a hop takes only entries above its last (DESIGN §Readers).
// Seek filters against start as the recursive walk it replaced did,
// charging the LLC model the same lines. A returned key is assembled in
// the iterator's buffer, valid until the next call.
type Iterator struct {
	idx     *Index
	frames  []layerFrame // frames[d] walks layer d
	key     []byte       // the key returned last: the layers' slices, then the entry's bytes
	val     uint64
	pending bool // Seek found key for the first Next
}

// layerFrame is the iterator's position in one layer.
type layerFrame struct {
	leafImage          // the buffered leaf
	pos       int      // the next entry of ents
	last      *leafVal // the entry taken last
	prefix    int      // bytes of key the layers above consumed
}

// leafImage is one leaf as a lock-free reader sees it: its published
// entries in order, short of the high key, and the link to where the rest
// are.
type leafImage struct {
	ents    [Fanout]entry
	n       int
	next    *node // the sibling; nil at the end of the layer
	highSet bool
	high    uint64
}

// entry is one published slot: the (slice, lenclass) it held and its
// payload.
type entry struct {
	slice uint64
	lc    int
	lv    *leafVal
}

// live reports whether e's payload is the one its slot names. A slot
// reused after the permutation was read can pair one key's slice with
// another's payload; such a pair is no entry at all, so neither reader
// returns a mismatched value. Payloads are immutable, so the check may
// wait until the entry is used.
func (e entry) live() bool { return e.lv.slice == e.slice && e.lv.lenclass == e.lc }

// read images leaf n, the only way a lock-free reader sees a leaf: the
// slots the permutation publishes, then the high key, then the sibling
// link, as a split publishes them in the other order. A slot freed and
// reused after the permutation was read holds an entry out of place, so
// the image is sorted; the high key covers every reuse a split's
// truncation allowed, and entries at or past it are dropped, since the
// sibling holds them.
func (idx *Index) read(n *node, m *leafImage) {
	idx.heap.Load(n.pm, 0, nodeBytes)
	p := perm(n.perm.Load())
	m.n = 0
	for i := 0; i < p.count(); i++ {
		slot := p.slot(i)
		e := entry{n.slices[slot].Load(), int(n.lens[slot].Load()), n.vals[slot].Load()}
		if e.lv == nil {
			continue
		}
		// Insertion sort: in order already unless a slot was reused.
		j := m.n
		for ; j > 0 && entryLess(e.slice, e.lc, m.ents[j-1].slice, m.ents[j-1].lc); j-- {
			m.ents[j] = m.ents[j-1]
		}
		m.ents[j] = e
		m.n++
	}
	m.highSet, m.high = n.highSet.Load(), n.high.Load()
	for m.highSet && m.n > 0 && m.ents[m.n-1].slice >= m.high {
		m.n--
	}
	m.next = n.next.Load()
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
	it.fill(&it.frames[len(it.frames)-1], it.idx.descend(lr.root.Load(), slice, 0))
}

// fill buffers leaf n into f.
func (it *Iterator) fill(f *layerFrame, n *node) {
	it.idx.read(n, &f.leafImage)
	f.pos = 0
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
		e := f.ents[f.pos]
		f.pos++
		if !e.live() {
			continue
		}
		lv := e.lv
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
