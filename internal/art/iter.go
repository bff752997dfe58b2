package art

import (
	"bytes"
	"math/bits"
)

// Iterator is the tree's one ordered walk, non-blocking; Scan is a loop
// over it. It keeps an explicit stack, so a caller can stop after any
// entry and continue without re-descending. Stale compressed prefixes (a
// path-compression split in flight or crashed between its two steps) are
// tolerated as lookups tolerate them, by trusting the immutable level and
// asking a leaf for the bytes the node cannot vouch for. Before it steps
// through a Node4/16 it loads the kind of every child still to visit in
// one tight loop (warm), so sibling cache misses overlap; a child's kind
// never changes once published. Returned keys alias the leaves' immutable
// key bytes.
type Iterator struct {
	idx *Index
	// The stack is buf[:depth], spilling into over beyond inlineDepth.
	// Keeping the common case inside the struct lets Scan run an Iterator
	// from its own stack frame without allocating.
	depth int
	buf   [inlineDepth]frame
	over  []frame
	// pending is the leaf Seek stopped on, handed out by the first Next.
	pending *leaf
	// warmed consumes what warm loads, so the loads are not dead code. It
	// is per iterator: a shared sink would be a data race.
	warmed uint32
}

// inlineDepth is the number of frames held inline: one per inner node on
// a root-to-leaf path, enough for any set of 24-byte YCSB string keys.
const inlineDepth = 24

// frame is one node on the path to the iterator's position, and the
// position within it. Node48/256 are indexed by branch byte, so next — the
// smallest byte not yet visited — is all a step needs. Node4/16 keep
// their slots in append order; their key order is fixed once, when the
// frame is made, as slot numbers packed four bits each into order
// (smallest key in the low nibble), and next counts the slots left. That
// makes every step O(1) and branch-predictable, which is what lets the
// CPU run ahead to the next leaf's cache miss; re-finding the minimum of
// up to 16 unsorted keys per step cost 25% on cold scans. Slots appended
// after the frame was made are not visited — their keys were inserted
// during the iteration — while a dead slot that is reused is seen with
// its new child.
type frame struct {
	n     *header
	next  int
	order uint64
	// bounded records that n was reached along start's own bytes, so its
	// subtree may still hold keys < start; resolved (and cleared) by the
	// frame's first step. No frame is bounded once Seek has returned.
	bounded bool
	// cold marks a Node4/16 frame whose children are yet to be warmed:
	// before its first step that does not follow start's own path, so a
	// short scan never touches the siblings of its seek path.
	cold bool
}

// newFrame returns a frame positioned before n's first child. It loads
// the count before the keys: writers publish an appended slot by the
// count store.
func newFrame(n *header, bounded bool) frame {
	f := frame{n: n, bounded: bounded}
	if n.kind != kNode4 && n.kind != kNode16 {
		return f
	}
	f.cold = true
	s := n.small()
	var set [4]uint64   // the key bytes present
	var slot [256]uint8 // key byte -> its slot
	for i, cnt := 0, int(n.count.Load()); i < cnt; i++ {
		b := s.key(i)
		set[b/64] |= 1 << (b % 64)
		slot[b] = uint8(i)
	}
	for w, x := range set {
		for ; x != 0; x &= x - 1 {
			f.order |= uint64(slot[w*64+bits.TrailingZeros64(x)]) << (4 * f.next)
			f.next++
		}
	}
	return f
}

// step returns the frame's next live child in ascending branch-byte
// order, passing over bytes < lo, together with its branch byte; c == nil
// once the node is exhausted.
func (f *frame) step(lo int) (b int, c *header) {
	switch f.n.kind {
	case kNode4, kNode16:
		s := f.n.small()
		for f.next > 0 {
			slot := int(f.order & 15)
			f.order >>= 4
			f.next--
			if b = int(s.key(slot)); b >= lo {
				if c = s.children[slot].Load(); c != nil {
					return b, c
				}
			}
		}
	case kNode48:
		n := f.n.n48()
		for b = max(f.next, lo); b < 256; b++ {
			if s := n.index.Get(b); s != 0 {
				if c = n.children[s-1].Load(); c != nil {
					f.next = b + 1
					return b, c
				}
			}
		}
	case kNode256:
		n := f.n.n256()
		for b = max(f.next, lo); b < 256; b++ {
			if c = n.children[b].Load(); c != nil {
				f.next = b + 1
				return b, c
			}
		}
	}
	return 256, nil
}

// NewIterator returns an unpositioned *Iterator; call Seek before Next.
// The result type is core.Iterator's interface literal.
func (idx *Index) NewIterator() interface {
	Seek(start []byte)
	Next() (key []byte, value uint64, ok bool)
} {
	return &Iterator{idx: idx}
}

// at returns frame i of the stack.
func (it *Iterator) at(i int) *frame {
	if i < inlineDepth {
		return &it.buf[i]
	}
	return &it.over[i-inlineDepth]
}

// push adds a frame on top of the stack.
func (it *Iterator) push(f frame) {
	if it.depth < inlineDepth {
		it.buf[it.depth] = f
	} else {
		it.over = append(it.over[:it.depth-inlineDepth], f)
	}
	it.depth++
}

// Seek positions the iterator at the smallest key >= start (nil or empty
// = the minimum key), discarding any earlier position. start is not
// retained.
func (it *Iterator) Seek(start []byte) {
	it.depth, it.pending = 0, nil
	if root := it.idx.root.Load(); root != nil {
		if it.pending = it.visit(root, len(start) > 0, start); it.pending == nil {
			it.pending = it.advance(start)
		}
	}
}

// Next returns the key at the iterator's position and moves past it, or
// ok = false once the keys are exhausted.
func (it *Iterator) Next() (key []byte, value uint64, ok bool) {
	l := it.pending
	if l != nil {
		it.pending = nil
	} else if l = it.advance(nil); l == nil {
		return nil, 0, false
	}
	return l.key(), l.value.Load(), true
}

// visit charges the read of c, then either returns it — a leaf that
// belongs to the iteration — or pushes it for advance to step through.
// Only a bounded leaf needs checking against start: an unbounded one sits
// below a branch byte already greater than start's.
func (it *Iterator) visit(c *header, bounded bool, start []byte) *leaf {
	it.idx.trackRead(c)
	if c.kind != kLeaf {
		it.push(newFrame(c, bounded))
		return nil
	}
	if l := c.leaf(); !bounded || bytes.Compare(l.key(), start) >= 0 {
		return l
	}
	return nil
}

// warm touches each child the Node4/16 frame f has yet to visit.
func (it *Iterator) warm(f *frame) {
	f.cold = false
	s := f.n.small()
	for o, i := f.order, f.next; i > 0; o, i = o>>4, i-1 {
		if c := s.children[o&15].Load(); c != nil {
			it.warmed += uint32(c.kind)
		}
	}
}

// advance steps the stack to the next leaf in key order, or returns nil
// with the stack empty. start is consulted only through bounded frames,
// which exist only during Seek.
func (it *Iterator) advance(start []byte) *leaf {
	for it.depth > 0 {
		f := it.at(it.depth - 1)
		lo, bounded := 0, false
		if f.bounded {
			f.bounded = false
			reached := 0 // key depth at which f.n was reached: below its parent's branch byte
			if it.depth > 1 {
				reached = int(it.at(it.depth-2).n.level) + 1
			}
			switch c := it.cmpPrefix(f.n, reached, start); {
			case c < 0: // every key below n is < start
				it.depth--
				continue
			case c == 0 && int(f.n.level) < len(start):
				lo, bounded = int(start[f.n.level]), true
			}
			// Otherwise every key below n is > start: take them all.
		}
		if f.cold && !bounded {
			it.warm(f)
		}
		b, c := f.step(lo)
		if c == nil {
			it.depth--
			continue
		}
		if l := it.visit(c, bounded && b == lo, start); l != nil {
			return l
		}
	}
	return nil
}

// cmpPrefix orders the bytes every key below n shares at [depth, n.level)
// against the same span of start (start[:depth] already matched): < 0 and
// the whole subtree precedes start, > 0 and it follows, 0 and the branch
// byte decides. A consistent prefix of at most seven bytes is read from
// the node; a longer one (only seven are stored) or a stale one is read
// from a leaf below, which carries the true bytes either way.
func (it *Iterator) cmpPrefix(n *header, depth int, start []byte) int {
	level := int(n.level)
	plen, pb := n.prefixSnapshot()
	shared := pb[:min(plen, maxStoredPrefix)]
	if plen != level-depth || plen > maxStoredPrefix {
		if shared = it.idx.fullPrefix(n, depth); shared == nil {
			return -1 // nothing live below n
		}
	}
	return bytes.Compare(shared, start[depth:min(level, len(start))])
}
