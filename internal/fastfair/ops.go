package fastfair

import (
	"cmp"
	"sync/atomic"

	"repro/internal/crash"
	"repro/internal/keys"
)

// flusher batches cache-line write-backs during FAST shifts: stores within
// one line are failure-atomic with respect to each other (a line is
// written back as a unit), so FAST flushes and fences only when a shift
// sequence crosses a cache-line boundary — the behaviour behind FAST &
// FAIR's clwb/mfence counts in Fig 4c.
type flusher struct {
	t     *Tree
	n     *node
	line  uintptr
	dirty bool
}

func (f *flusher) store(off uintptr) {
	f.t.heap.Dirty(f.n.pm, off, 8)
	if f.dirty && off/64 != f.line {
		f.flush("")
	}
	f.line = off / 64
	f.dirty = true
}

// flush writes back and fences the line the last store went to, then
// passes crash site site. Every shift ends with a store, so it has one.
func (f *flusher) flush(site string) {
	f.t.heap.Persist(f.n.pm, f.line*64, 64)
	f.t.heap.FenceAt(site)
	f.dirty = false
}

// image is a validated copy of one node, the only way a lock-free reader
// sees a node: its committed records in key order, FAST's transient
// duplicates dropped, and the header fields a reader routes by.
type image struct {
	keys     [Cardinality]uint64
	vals     [Cardinality]*vref // a leaf's records
	kids     [Cardinality]*node // an internal node's children
	n        int                // records imaged
	hit      bool               // a leaf's last record imaged equals the probe
	leftmost *node
	sibling  *node
	highSet  bool
	high     uint64
}

// read images node n for a reader of probe, or the whole node if probe is
// nil. A shift moves records one 8-byte store at a time, so one pass over
// the slots can tear a key from its record or miss one, and route a writer
// into a leaf that does not cover its key — the port's own §3 loss. read
// copies the slots, then the header, then re-reads in place every word
// the copy used and copies again on any difference, so the image is the
// node at one instant. With a probe the image keeps only the records at
// or below it, which is all routing and Lookup use. The header comes after
// the slots because a split publishes the high key before it truncates: a
// truncated image always carries the high key that routes past it.
func (t *Tree) read(n *node, probe []byte, img *image) {
	t.heap.Load(n.pm, 0, nodeBytes)
	if n.leaf {
		readSlots(t, n, &n.vals, &img.vals, probe, img)
	} else {
		readSlots(t, n, &n.kids, &img.kids, probe, img)
		img.leftmost = n.leftmost.Load()
	}
}

// readSlots is read over one kind of record pointer: a leaf's values or an
// internal node's children.
func readSlots[P any](t *Tree, n *node, src *[Cardinality]atomic.Pointer[P], dst *[Cardinality]*P, probe []byte, img *image) {
	// An integer probe cuts the copy where the reader's comparisons end. A
	// string comparison is a call, which would slow every copy, so a string
	// probe is compared in the image.
	ints := t.kind == keys.RandInt && probe != nil
	var pk uint64
	if ints {
		pk = keys.DecodeUint64(probe)
	}
retry:
	for {
		// Slot i's pointer and key, then its right neighbour's pointer,
		// which says whether slot i is a transient duplicate.
		nk, dup, c := 0, false, 1 // keys copied; a duplicate seen; the last comparison
		p := src[0].Load()
		dst[0] = p
		for i := 0; p != nil; i++ {
			k := n.keys[i].Load()
			img.keys[i], nk = k, i+1
			var next *P
			if i+1 < Cardinality {
				next = src[i+1].Load()
				dst[i+1] = next
			}
			if next == p {
				dup = true
			} else if ints && (pk < k || pk == k && n.leaf) {
				c = cmp.Compare(pk, k)
				break
			}
			p = next
		}
		// The reverse of a split's stores (sibling, high, highSet): a high
		// key read after highSet is no older than highSet, and the sibling
		// read after it no older than the high key, so the sibling an image
		// routes to never precedes its high key's split. Sibling first
		// could pair the old sibling with the new high key and send a probe
		// past the node holding its range.
		img.highSet = n.highSet.Load()
		img.high = n.high.Load()
		img.sibling = n.sibling.Load()
		for i := range nk {
			if src[i].Load() != dst[i] || n.keys[i].Load() != img.keys[i] {
				continue retry
			}
		}
		if nk < Cardinality && src[nk].Load() != dst[nk] {
			continue
		}
		img.n = nk
		if dup {
			img.n = 0
			for i := range nk {
				if i+1 == Cardinality || dst[i+1] != dst[i] {
					dst[img.n], img.keys[img.n] = dst[i], img.keys[i]
					img.n++
				}
			}
		}
		// A leaf read stops at its key, routing at the first separator
		// above it: the comparisons of the walks this replaced, so the LLC
		// model sees the same loads.
		for i := 0; !ints && probe != nil && i < img.n; i++ {
			if c = t.cmpProbe(probe, img.keys[i]); c < 0 || c == 0 && n.leaf {
				img.n = i + 1
				break
			}
		}
		img.hit = c == 0
		if c < 0 {
			img.n-- // keep the records at or below the probe
		}
		return
	}
}

// next returns where a reader of probe goes after the node imaged in img:
// the right sibling when probe is at or beyond the high key (FAIR: a
// split moved it there), else nil.
func (t *Tree) next(probe []byte, img *image) *node {
	if img.highSet && t.cmpProbe(probe, img.high) >= 0 {
		return img.sibling
	}
	return nil
}

// descend routes probe from n down to the node at level that covers it,
// through images of the internal nodes on the way. A nil n (a Faithful
// tree's root store, lost to a crash) routes to nil.
func (t *Tree) descend(n *node, probe []byte, level int, img *image) *node {
	for n != nil && n.level > level {
		t.read(n, probe, img)
		if s := t.next(probe, img); s != nil {
			n = s
		} else if img.n == 0 {
			n = img.leftmost
		} else {
			n = img.kids[img.n-1]
		}
	}
	return n
}

// Lookup returns the value stored under key: a search of the images of
// the nodes descend and the leaf chain lead to, lock-free.
func (t *Tree) Lookup(key []byte) (uint64, bool) {
	if t.kind == keys.RandInt && len(key) != 8 {
		return 0, false
	}
	var img image
	for n := t.descend(t.root.Load(), key, 0, &img); n != nil; n = t.next(key, &img) {
		t.read(n, key, &img)
		if img.hit {
			v := img.vals[img.n-1]
			t.heap.Load(v.pm, 0, 16)
			return v.v, true
		}
	}
	return 0, false
}

// Insert stores value under key, overwriting an existing value.
func (t *Tree) Insert(key []byte, value uint64) (err error) {
	if t.kind == keys.RandInt && len(key) != 8 {
		return ErrKeySize
	}
	defer crash.Catch(&err)
	stored := t.encode(key)
	vr := &vref{v: value, pm: t.heap.Alloc(16)}
	t.heap.Shadow(vr.pm, vr)
	// Persist the value record before it becomes reachable.
	t.heap.Persist(vr.pm, 0, 16)
	t.heap.Fence()
	t.insert(key, stored, vr)
	return nil
}

// Update overwrites the value under key: Insert's upsert
// (core.PointIndex.Update).
func (t *Tree) Update(key []byte, value uint64) error { return t.Insert(key, value) }

// lockLeafFor descends to and locks the leaf covering key, chasing
// siblings under lock hand-over when a concurrent split moved the range.
func (t *Tree) lockLeafFor(key []byte) *node {
	var img image
	n := t.descend(t.root.Load(), key, 0, &img)
	n.lock.Lock(&t.gen)
	for n.highSet.Load() && t.cmpProbe(key, n.high.Load()) >= 0 {
		s := n.sibling.Load()
		n.lock.Unlock()
		s.lock.Lock(&t.gen)
		n = s
	}
	return n
}

func (t *Tree) insert(key []byte, stored uint64, vr *vref) {
	n := t.lockLeafFor(key)
	defer n.lock.Unlock()

	cnt, pos, found := t.find(n, key)
	if found {
		// Update: swing the record pointer with one atomic store.
		n.vals[pos].Store(vr)
		t.heap.Commit(n.pm, recOff(pos)+8, 8, "ff.update.commit")
		return
	}
	if cnt < Cardinality {
		t.fastInsertLeaf(n, cnt, pos, stored, vr)
		t.count.Add(1)
		return
	}
	// Node full: FAIR split, then insert into the proper half.
	right, splitKey := t.splitLeaf(n)
	target := n
	if t.cmpProbe(key, splitKey) >= 0 {
		target = right
	}
	cnt, pos, _ = t.find(target, key)
	t.fastInsertLeaf(target, cnt, pos, stored, vr)
	t.count.Add(1)
	right.lock.Unlock() // splitLeaf leaves the new sibling locked
	t.insertParent(n, splitKey, right, n.level+1)
}

// find returns locked node n's record count (up to the nil sentinel), the
// slot of its first key at or above key, and whether that key is key.
// One record in two adjacent slots of a leaf is a shift a crash or a
// restart image left part-way (a live shift holds the lock), and find
// removes the left slot first: a split or an insert landing between the
// two would otherwise commit it, a key holding its neighbour's record.
func (t *Tree) find(n *node, key []byte) (cnt, pos int, found bool) {
	if n.leaf {
		dup := false
		for prev := (*vref)(nil); cnt < Cardinality; cnt++ {
			v := n.vals[cnt].Load()
			if v == nil {
				break
			}
			dup = dup || v == prev
			prev = v
		}
		for i := cnt - 2; dup && i >= 0; i-- {
			if n.vals[i].Load() == n.vals[i+1].Load() {
				t.shiftOut(n, i, cnt, "")
				cnt--
			}
		}
	} else {
		for cnt < Cardinality && n.kids[cnt].Load() != nil {
			cnt++
		}
	}
	for pos = 0; pos < cnt; pos++ {
		if c := t.cmpProbe(key, n.keys[pos].Load()); c <= 0 {
			return cnt, pos, c == 0
		}
	}
	return cnt, cnt, false
}

// fastInsertLeaf performs the FAST shift: entries move right one slot via
// 8-byte atomic stores (key before record pointer, so a torn pair is
// detectable as a duplicate pointer), flushing at cache-line boundaries.
func (t *Tree) fastInsertLeaf(n *node, cnt, pos int, stored uint64, vr *vref) {
	f := flusher{t: t, n: n}
	// Extend the nil terminator one slot right before shifting so stale
	// records beyond it (left over from a split truncation) can never be
	// resurrected by the shift.
	if cnt+1 < Cardinality {
		n.vals[cnt+1].Store(nil)
		f.store(recOff(cnt+1) + 8)
	}
	for i := cnt - 1; i >= pos; i-- {
		n.keys[i+1].Store(n.keys[i].Load())
		f.store(recOff(i + 1))
		n.vals[i+1].Store(n.vals[i].Load())
		f.store(recOff(i+1) + 8)
	}
	n.keys[pos].Store(stored)
	f.store(recOff(pos))
	t.heap.CrashPoint("ff.insert.shifted")
	n.vals[pos].Store(vr) // commit: pointer becomes unique
	f.store(recOff(pos) + 8)
	f.flush("ff.insert.commit")
}

// splitLeaf splits the full, locked leaf n. It returns the new right
// sibling still locked, plus the separator key. Steps follow FAIR: build
// sibling, link it (commit), publish the high key, truncate with one
// atomic nil store.
func (t *Tree) splitLeaf(n *node) (*node, uint64) {
	half := Cardinality / 2
	// Interrupted-split detection: if a crash hit between linking the
	// sibling and truncating this node, our upper half already lives in
	// the sibling (same keys and record pointers). Complete that split
	// instead of creating a second sibling with duplicate keys. The key
	// matters too: a crash-left transient duplicate that an earlier split
	// separated puts one record in both nodes under two keys.
	if s := n.sibling.Load(); s != nil && s.vals[0].Load() != nil && s.vals[0].Load() == n.vals[half].Load() && s.keys[0].Load() == n.keys[half].Load() {
		s.lock.Lock(&t.gen)
		splitKey := n.keys[half].Load()
		n.high.Store(splitKey)
		n.highSet.Store(true)
		t.heap.Commit(n.pm, offHigh, 8, "")
		n.vals[half].Store(nil)
		t.heap.Commit(n.pm, recOff(half)+8, 8, "ff.split.completed")
		return s, splitKey
	}
	s := t.newNode(true, n.level)
	s.lock.Lock(&t.gen)
	for i := half; i < Cardinality; i++ {
		s.keys[i-half].Store(n.keys[i].Load())
		s.vals[i-half].Store(n.vals[i].Load())
	}
	s.sibling.Store(n.sibling.Load())
	if n.highSet.Load() {
		s.high.Store(n.high.Load())
		s.highSet.Store(true)
	}
	t.heap.Persist(s.pm, 0, nodeBytes)
	t.heap.FenceAt("ff.split.built")

	splitKey := n.keys[half].Load()
	n.sibling.Store(s)
	t.heap.Commit(n.pm, offSibling, 8, "ff.split.linked")

	n.high.Store(splitKey)
	n.highSet.Store(true)
	t.heap.Commit(n.pm, offHigh, 8, "")

	n.vals[half].Store(nil) // truncation commit: one atomic store
	t.heap.Commit(n.pm, recOff(half)+8, 8, "ff.split.truncated")
	return s, splitKey
}

// splitInternal splits the full, locked internal node n; the middle key
// moves up. Returns the locked new sibling and the separator.
func (t *Tree) splitInternal(n *node) (*node, uint64) {
	half := Cardinality / 2
	// Interrupted-split detection, as in splitLeaf.
	if s := n.sibling.Load(); s != nil && s.leftmost.Load() != nil && s.leftmost.Load() == n.kids[half].Load() {
		s.lock.Lock(&t.gen)
		splitKey := n.keys[half].Load()
		n.high.Store(splitKey)
		n.highSet.Store(true)
		t.heap.Commit(n.pm, offHigh, 8, "")
		n.kids[half].Store(nil)
		t.heap.Commit(n.pm, recOff(half)+8, 8, "ff.isplit.completed")
		return s, splitKey
	}
	s := t.newNode(false, n.level)
	s.lock.Lock(&t.gen)
	splitKey := n.keys[half].Load()
	s.leftmost.Store(n.kids[half].Load())
	for i := half + 1; i < Cardinality; i++ {
		s.keys[i-half-1].Store(n.keys[i].Load())
		s.kids[i-half-1].Store(n.kids[i].Load())
	}
	s.sibling.Store(n.sibling.Load())
	if n.highSet.Load() {
		s.high.Store(n.high.Load())
		s.highSet.Store(true)
	}
	t.heap.Persist(s.pm, 0, nodeBytes)
	t.heap.FenceAt("ff.isplit.built")

	n.sibling.Store(s)
	t.heap.Commit(n.pm, offSibling, 8, "ff.isplit.linked")

	n.high.Store(splitKey)
	n.highSet.Store(true)
	t.heap.Commit(n.pm, offHigh, 8, "")

	n.kids[half].Store(nil) // truncation commit
	t.heap.Commit(n.pm, recOff(half)+8, 8, "ff.isplit.truncated")
	return s, splitKey
}

// insertParent installs (splitKey -> right) into the parent level after
// left split. left must still be reachable at level-1.
func (t *Tree) insertParent(left *node, splitKey uint64, right *node, level int) {
	keyB := t.appendKeyBytes(nil, splitKey)
	var img image
	for {
		root := t.root.Load()
		if root.level < level {
			// Grow a root above the current one. left is that root or,
			// after a concurrent split or a restart image that reverted
			// an unfenced root swap, a node B-link hops reach from it.
			t.rootMu.Lock(&t.gen)
			if t.root.Load() != root {
				t.rootMu.Unlock()
				continue
			}
			nr := t.newNode(false, level)
			nr.leftmost.Store(root)
			nr.keys[0].Store(splitKey)
			nr.kids[0].Store(right)
			t.heap.Persist(nr.pm, 0, nodeBytes)
			t.heap.FenceAt("ff.rootsplit.built")
			t.root.Store(nr)
			t.heap.Commit(t.rootPM, 0, 8, "ff.rootsplit.commit")
			t.rootMu.Unlock()
			return
		}
		// Descend to the internal node at this level covering splitKey.
		n := t.descend(root, keyB, level, &img)
		n.lock.Lock(&t.gen)
		for n.highSet.Load() && t.cmpProbe(keyB, n.high.Load()) >= 0 {
			s := n.sibling.Load()
			n.lock.Unlock()
			s.lock.Lock(&t.gen)
			n = s
		}
		cnt, pos, _ := t.find(n, keyB)
		if cnt < Cardinality {
			t.fastInsertInternal(n, cnt, pos, splitKey, right)
			n.lock.Unlock()
			return
		}
		ns, sk := t.splitInternal(n)
		target := n
		if t.cmpProbe(keyB, sk) >= 0 {
			target = ns
		}
		cnt, pos, _ = t.find(target, keyB)
		t.fastInsertInternal(target, cnt, pos, splitKey, right)
		ns.lock.Unlock()
		n.lock.Unlock()
		t.insertParent(n, sk, ns, level+1)
		return
	}
}

func (t *Tree) fastInsertInternal(n *node, cnt, pos int, stored uint64, child *node) {
	f := flusher{t: t, n: n}
	// Terminator extension, as in fastInsertLeaf.
	if cnt+1 < Cardinality {
		n.kids[cnt+1].Store(nil)
		f.store(recOff(cnt+1) + 8)
	}
	for i := cnt - 1; i >= pos; i-- {
		n.keys[i+1].Store(n.keys[i].Load())
		f.store(recOff(i + 1))
		n.kids[i+1].Store(n.kids[i].Load())
		f.store(recOff(i+1) + 8)
	}
	n.keys[pos].Store(stored)
	f.store(recOff(pos))
	n.kids[pos].Store(child) // commit
	f.store(recOff(pos) + 8)
	f.flush("ff.iinsert.commit")
}

// Delete removes key from the tree, returning whether it was present.
// Deletion shifts left with atomic stores (record pointer before key, so
// the transient state is a detectable duplicate) and does not rebalance —
// the lazy scheme the original uses for its evaluation.
func (t *Tree) Delete(key []byte) (deleted bool, err error) {
	if t.kind == keys.RandInt && len(key) != 8 {
		return false, nil
	}
	defer crash.Catch(&err)
	n := t.lockLeafFor(key)
	defer n.lock.Unlock()
	cnt, pos, found := t.find(n, key)
	if !found {
		return false, nil
	}
	t.shiftOut(n, pos, cnt, "ff.delete.commit")
	t.count.Add(-1)
	return true, nil
}

// shiftOut removes slot pos of locked leaf n, which holds cnt records, by
// shifting the slots above it left, and passes crash site site.
func (t *Tree) shiftOut(n *node, pos, cnt int, site string) {
	f := flusher{t: t, n: n}
	for i := pos; i < cnt-1; i++ {
		// Pointer first: the moment vals[i] equals vals[i+1] the left
		// slot is a duplicate and the deleted key is logically gone.
		n.vals[i].Store(n.vals[i+1].Load())
		f.store(recOff(i) + 8)
		n.keys[i].Store(n.keys[i+1].Load())
		f.store(recOff(i))
	}
	n.vals[cnt-1].Store(nil)
	f.store(recOff(cnt-1) + 8)
	f.flush(site)
}
