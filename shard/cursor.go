package shard

import (
	"bytes"

	"repro/internal/core"
)

// source is one shard's stream inside a Cursor: its index's iterator and
// the head entry last pulled from it.
type source struct {
	it    core.Iterator
	shard int // owning shard index (duplicate resolution)
	key   []byte
	val   uint64
}

// pull replaces the head with the iterator's next entry.
func (s *source) pull() (ok bool) {
	s.key, s.val, ok = s.it.Next()
	return ok
}

// sourceHeap is a binary min-heap of sources holding a head, by head key.
// Two heads tie only once a migration window has opened, when a key may
// sit on two shards (shadow copy or donor residue); only two copies exist,
// so the tie is the root and one of its children, and Cursor.Next emits
// the owner's copy.
type sourceHeap []*source

func (h sourceHeap) less(i, j int) bool { return bytes.Compare(h[i].key, h[j].key) < 0 }

func (h sourceHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

func (h sourceHeap) siftDown(i int) {
	for {
		m := i
		if l := 2*i + 1; l < len(h) && h.less(l, m) {
			m = l
		}
		if r := 2*i + 2; r < len(h) && h.less(r, m) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// Cursor is the front-end's core.Iterator over the key space of all
// shards: a k-way merge over one source per shard, each pulled entry by
// entry from its index's own iterator, so n entries over H shards pull at
// most n + H and nothing is buffered. With an order-preserving
// partitioner on a table that never moved a slot, it drains the shards
// one after another instead. Seek re-opens it, keeping its iterators.
type Cursor struct {
	m    *Ordered
	heap sourceHeap // sources holding a head, ordered by head key
	srcs []source   // backing store of the sources, by shard
	rest []int      // shards still to open, in key order, when draining

	// owner, once a window has ever opened, resolves duplicate heads by
	// the current routing table; nil while no two heads can tie.
	owner *Ordered
	// pending: the root's head was returned by the last Next, and pulling
	// its replacement waits for the next call, so the key stays valid and
	// a scan that stops here pulls nothing it will not use.
	pending bool
}

// Cursor returns a Cursor positioned at start.
func (m *Ordered) Cursor(start []byte) *Cursor {
	c := &Cursor{m: m}
	c.Seek(start)
	return c
}

// NewIterator returns an unpositioned Cursor: the front-end is a
// core.OrderedIndex like the indexes it shards.
func (m *Ordered) NewIterator() core.Iterator { return &Cursor{m: m} }

// Seek positions the cursor at start over every serving shard, skipping
// quarantined ones (degraded scan). It chooses duplicate resolution once:
// a window opening later does not turn it on mid-scan.
func (c *Cursor) Seek(start []byte) {
	m := c.m
	if c.srcs == nil {
		c.srcs = make([]source, len(m.shards))
		c.heap = make(sourceHeap, 0, len(m.shards))
	}
	c.heap, c.rest, c.pending, c.owner = c.heap[:0], c.rest[:0], false, nil
	t := m.rt.Load()
	if len(m.shards) == 1 || (t.ordered && t.pristine()) {
		first := 0
		if len(m.shards) > 1 && len(start) > 0 {
			// Shard order equals key order: shards before start's owner
			// hold only smaller keys, those after it only larger ones.
			first, _ = t.locate(m.part.Point(start))
		}
		for i := first; i < len(m.shards); i++ {
			if m.unavailable(i) == nil {
				c.rest = append(c.rest, i)
			}
		}
		if len(c.rest) > 0 {
			c.open(c.rest[0], start)
			c.rest = c.rest[1:]
		}
		return
	}
	for i := range m.shards {
		if m.unavailable(i) == nil {
			c.open(i, start)
		}
	}
	c.heap.init()
	if !t.pristine() {
		// A window has opened: a key may exist on two shards (shadow copy
		// during a handoff window, donor residue after a flip or an
		// abort). Emit only the copy owned per the current table.
		c.owner = m
	}
}

// open seeks shard i's source to start; one holding a head joins the heap.
func (c *Cursor) open(i int, start []byte) {
	s := &c.srcs[i]
	if s.it == nil {
		s.it, s.shard = c.m.ordered[i].NewIterator(), i
	}
	if s.it.Seek(start); s.pull() {
		c.heap = append(c.heap, s)
	}
}

// dropHead pulls a replacement for the head at heap position j, removing
// an exhausted source; anything moved into j is no smaller than the root,
// so sifting down restores the heap.
func (c *Cursor) dropHead(j int) {
	if !c.heap[j].pull() {
		last := len(c.heap) - 1
		c.heap[j] = c.heap[last]
		c.heap = c.heap[:last]
	}
	c.heap.siftDown(j)
}

// Next returns the next entry in ascending key order, or ok = false when
// the scan is exhausted. The returned key is valid until the next call.
func (c *Cursor) Next() (key []byte, value uint64, ok bool) {
	if c.pending {
		c.pending = false
		c.dropHead(0)
	}
	for {
		if len(c.heap) == 0 {
			if len(c.rest) == 0 {
				return nil, 0, false
			}
			c.open(c.rest[0], nil) // all of the next shard's keys follow start
			c.rest = c.rest[1:]
			continue
		}
		root := c.heap[0]
		if c.owner != nil {
			// Duplicate heads can only pair the root with a direct child
			// (see sourceHeap); emit the owner's copy, drop the other.
			dup := 0
			for j := 1; j <= 2 && j < len(c.heap); j++ {
				if bytes.Equal(c.heap[j].key, root.key) {
					dup = j
					break
				}
			}
			if dup > 0 {
				if c.owner.Owner(root.key) == c.heap[dup].shard {
					dup = 0 // the root holds the non-owned copy
				}
				// Dropping the root re-examines the new root, which is
				// the owned copy.
				c.dropHead(dup)
				continue
			}
		}
		c.pending = true
		return root.key, root.val, true
	}
}
