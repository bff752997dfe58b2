package shard

import (
	"bytes"

	"repro/internal/core"
)

// adapterBatch is the per-shard batch-size cap B of streaming merged
// scans and cursors. It applies to shards read through the
// batch-and-resume adapter (batchIter), where a batch is one Scan call
// against the underlying index, so B trades per-entry resume overhead
// against the O(shards × B) peak scan memory. Shards whose index is
// core.Iterable are pulled entry by entry and buffer nothing.
const adapterBatch = 256

// adaptiveSeed is the first-fill batch size of a batchIter. Batches grow
// geometrically (doubling on every full fill) from here up to the
// configured cap, so a short scan pays for a few entries instead of a
// full cap-sized batch per shard, while a long scan converges to
// cap-sized fills after log2(cap/seed) rounds. Caps below the seed are
// used as-is.
const adaptiveSeed = 32

// newIter returns a pull iterator over idx: the index's own when it
// offers the core.Iterable capability, else the batch-and-resume adapter
// with batch cap max. This is the only place the two kinds of shard
// differ; everything downstream sees a core.Iterator.
func newIter(idx core.OrderedIndex, max int) core.Iterator {
	if it, ok := idx.(core.Iterable); ok {
		return it.NewIterator()
	}
	return &batchIter{idx: idx, max: max}
}

// batchIter adapts any core.OrderedIndex to core.Iterator using nothing
// but the index's Scan(start, count, fn) contract: it fetches up to
// `batch` entries at a time and resumes the next batch at the exclusive
// successor of the last key seen (lastKey + 0x00, the smallest byte
// string strictly greater than lastKey), so an index needs no API of its
// own to be streamed. Fetching is lazy: Seek only records where to
// start, the first Next runs the first Scan.
//
// Keys are copied once into an arena that is reused across batches and
// across Seeks — one bulk buffer per batch instead of one allocation per
// entry, and none at all in steady state. A key returned by Next is
// valid until the next call, which may refill the arena.
type batchIter struct {
	idx   core.OrderedIndex
	batch int      // next fill's batch size: adaptive, adaptiveSeed → max
	max   int      // batch cap (adapterBatch, or the scan's count)
	arena []byte   // backing bytes for the current batch's keys
	ends  []int    // ends[i] is the end offset of key i in arena
	vals  []uint64 // vals[i] is key i's value
	pos   int      // next entry to hand out
	// more records that the index may hold keys at or after resume: set
	// by Seek, then by every fill that came back as full as it was asked.
	more bool
	// resume is the start key of the next batch.
	resume []byte
}

// Seek implements core.Iterator.
func (c *batchIter) Seek(start []byte) {
	c.ends, c.pos, c.more = c.ends[:0], 0, true
	c.resume = append(c.resume[:0], start...)
	c.batch = min(adaptiveSeed, c.max)
}

// Next implements core.Iterator, refilling at batch boundaries.
func (c *batchIter) Next() (key []byte, value uint64, ok bool) {
	if c.pos >= len(c.ends) {
		if !c.more {
			return nil, 0, false
		}
		c.fill()
		if len(c.ends) == 0 {
			return nil, 0, false
		}
	}
	c.pos++
	return c.key(c.pos - 1), c.vals[c.pos-1], true
}

// fill fetches the next batch from the index. The callback key buffer
// belongs to the index and may be reused between entries, so each key is
// copied into the arena; the arena itself is reused across batches.
func (c *batchIter) fill() {
	c.arena, c.ends, c.vals, c.pos = c.arena[:0], c.ends[:0], c.vals[:0], 0
	used := c.batch
	n := c.idx.Scan(c.resume, used, func(k []byte, v uint64) bool {
		c.arena = append(c.arena, k...)
		c.ends = append(c.ends, len(c.arena))
		c.vals = append(c.vals, v)
		return true
	})
	c.more = n == used
	if c.more {
		// Appending a zero byte yields the smallest key strictly greater
		// than the last one — exclusive resume that cannot skip a key
		// whose prefix is the last key (e.g. "ab" -> "ab\x00").
		c.resume = append(append(c.resume[:0], c.key(n-1)...), 0)
		// A full fill means the scan is long: double the next batch, up
		// to the cap, so steady state pays one Scan per max entries while
		// buffering stays O(max) per shard.
		c.batch = min(used*2, c.max)
	}
}

// key returns entry i's key, sliced out of the arena with its capacity
// clipped so callers cannot append into a neighbour.
func (c *batchIter) key(i int) []byte {
	lo := 0
	if i > 0 {
		lo = c.ends[i-1]
	}
	return c.arena[lo:c.ends[i]:c.ends[i]]
}

// source is one shard's stream inside a Cursor: its pull iterator and
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

// open points the source at idx from start and pulls its first head. A
// source opened before keeps its iterator (and an adapter its arena);
// only the adapter's batch cap follows the scan at hand.
func (s *source) open(idx core.OrderedIndex, start []byte, batch int) bool {
	if s.it == nil {
		s.it = newIter(idx, batch)
	} else if b, adapted := s.it.(*batchIter); adapted {
		b.max = batch
	}
	s.it.Seek(start)
	return s.pull()
}

// sourceHeap is a binary min-heap of sources ordered by head key. Every
// source in the heap holds a head. Until a migration window has opened
// every key lives on exactly one shard, so no two heads are ever equal;
// during and after a migration a key may briefly exist on two shards
// (the recipient's shadow copy, or the donor's residue), in which case
// the two equal heads are the root and one of its direct children —
// only two copies of a key can exist, and a non-root node equal to the
// root's head would force its parent to equal it too, making the parent
// the second copy. Cursor.Next resolves such pairs by emitting the
// owner's copy.
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

// Cursor is a pull-style iterator over the globally ordered key space of
// a sharded front-end (Ordered.Cursor) or a single ordered index
// (NewCursor): Next returns entries in ascending key order without
// callback gymnastics, so servers can paginate a scan across requests.
//
// A Cursor is a k-way merge over one pull iterator (core.Iterator) per
// shard. A shard whose index is core.Iterable (P-ART) is pulled one
// entry at a time from the index's own resumable iterator: nothing is
// buffered or copied, and reading n entries over H shards pulls at most
// n + H — one head per shard plus one replacement per entry returned.
// Any other index is read through the batch-and-resume adapter, which
// buffers at most one batch per shard, so memory stays O(shards × batch)
// however long the scan runs. With an order-preserving partitioner
// (RangePartition) the cursor opens shards one after another and holds
// a single iterator.
//
// The key returned by Next is valid only until the next Next call; copy
// it to retain it. A Cursor is not safe for concurrent use, and it sees
// concurrent writers as the underlying iterators do: no snapshot; a key
// present throughout is returned exactly once.
type Cursor struct {
	heap sourceHeap // sources holding a head, ordered by head key
	srcs []source   // backing store of the merge's sources, by shard
	// rest lists shards not yet opened, in key order: when the heap runs
	// empty the next one is opened. Sequential draining is a merge that
	// holds one source at a time.
	rest  []core.OrderedIndex
	start []byte
	batch int

	// owner, when non-nil, resolves duplicate heads: a key found on two
	// shards (migration shadow copy or residue) is emitted only from the
	// shard the owner's routing table currently names. Nil while the
	// table is pristine (no window has ever opened), where duplicates
	// cannot occur and head comparisons are skipped.
	owner *Ordered

	// pending records that the root's head was returned by the last Next;
	// pulling its replacement is deferred to the next call, so the key
	// stays valid in the caller's hands and a scan that stops here never
	// pulls an entry it will not use.
	pending bool
}

// NewCursor returns a streaming cursor over a single ordered index,
// starting at start (nil or empty = from the minimum key).
func NewCursor(idx core.OrderedIndex, start []byte) *Cursor {
	return &Cursor{
		rest:  []core.OrderedIndex{idx},
		start: append([]byte(nil), start...),
		batch: adapterBatch,
	}
}

// Cursor returns a streaming cursor over the merged key space of all
// shards, starting at start (nil or empty = from the minimum key).
func (m *Ordered) Cursor(start []byte) *Cursor {
	if t := m.rt.Load(); len(m.shards) == 1 || (t.kind == kindRange && t.pristine()) {
		first := 0
		if len(m.shards) > 1 && len(start) > 0 {
			// Shard order equals key order, so shards before start's
			// owner hold only smaller keys.
			first, _ = t.locate(m.part.Point(start))
		}
		rest := make([]core.OrderedIndex, 0, len(m.shards)-first)
		for i := first; i < len(m.shards); i++ {
			if m.unavailable(i) != nil {
				continue // degraded: quarantined partition skipped
			}
			rest = append(rest, m.ordered[i])
		}
		return &Cursor{rest: rest, start: append([]byte(nil), start...), batch: m.batch}
	}
	c := &Cursor{}
	m.openMerge(c, start, m.batch)
	return c
}

// openMerge points c at the merge of every serving shard from start;
// quarantined partitions are skipped (degraded scan). c may be fresh or
// a cursor this front-end opened before, whose sources are reused.
// Like the sequential path, duplicate resolution is chosen here, once: a
// merge still running when the front-end's first window opens does not
// resolve that migration's copies.
func (m *Ordered) openMerge(c *Cursor, start []byte, batch int) {
	if c.srcs == nil {
		c.srcs = make([]source, len(m.shards))
		c.heap = make(sourceHeap, 0, len(m.shards))
	}
	c.heap, c.pending, c.owner = c.heap[:0], false, nil
	for i := range m.shards {
		if m.unavailable(i) != nil {
			continue
		}
		s := &c.srcs[i]
		s.shard = i
		if s.open(m.ordered[i], start, batch) {
			c.heap = append(c.heap, s)
		}
	}
	c.heap.init()
	if !m.rt.Load().pristine() {
		// A window has opened: a key may exist on two shards (shadow copy
		// during a handoff window, donor residue after a flip or an
		// abort). Emit only the copy owned per the current table.
		c.owner = m
	}
}

// dropHead pulls a replacement for the head of the source at heap
// position j, removing the source when exhausted, and restores heap
// order. The replacement element (when j is filled from the tail) is no
// smaller than the root, so sifting down suffices.
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
			// Next shard in key order.
			if s := new(source); s.open(c.rest[0], c.start, c.batch) {
				c.heap = append(c.heap, s)
			}
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
				if c.owner.ownerOf(root.key) == c.heap[dup].shard {
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
