package masstree

import (
	"bytes"

	"repro/internal/crash"
	"repro/internal/pmem"
)

// descend routes slice from n down to the node at level covering it,
// within one layer, following B-link sibling pointers on the way.
// Non-blocking.
//
// The high-key check runs AFTER the permutation scan: a split links the
// sibling, publishes the high key, and only then truncates the
// permutation, so a reader that observes a truncated permutation is
// guaranteed to see the high key and re-routes right; the reverse order
// could pair a pre-split high key with post-truncation entries.
func (idx *Index) descend(n *node, slice uint64, level int) *node {
	for n.level > level {
		idx.heap.Load(n.pm, 0, 64)
		p := perm(n.perm.Load())
		child := n.kids[0].Load()
		for i := 0; i < p.count(); i++ {
			slot := p.slot(i)
			if slice >= n.slices[slot].Load() {
				child = n.kids[slot+1].Load()
			} else {
				break
			}
		}
		if n.highSet.Load() && slice >= n.high.Load() {
			n = n.next.Load()
			continue
		}
		n = child
	}
	return n
}

// Lookup returns the value stored under key. Reads are non-blocking and
// never retry: in each layer it searches the image (read) of the leaf
// descend routes to, then of its siblings while the slice is at or past
// the high key, so sibling links and payload verification absorb every
// intermediate state SMOs (or crashes) expose.
func (idx *Index) Lookup(key []byte) (uint64, bool) {
	if len(key) == 0 {
		return 0, false
	}
	var m leafImage
	lr, rem := idx.layer0, key
	for {
		slice, lc := sliceOf(rem)
		var lv *leafVal
		for n := idx.descend(lr.root.Load(), slice, 0); lv == nil && n != nil; n = m.next {
			idx.read(n, &m)
			for _, e := range m.ents[:m.n] {
				if e.slice == slice && e.lc == lc && e.live() {
					lv = e.lv
					break
				}
			}
			if !m.highSet || slice < m.high {
				break
			}
		}
		switch {
		case lv == nil:
			return 0, false
		case lc < suffixClass:
			return lv.value, true
		case lv.layer != nil:
			lr, rem = lv.layer, rem[8:]
		case bytes.Equal(lv.suffix, rem[8:]):
			return lv.value, true
		default:
			return 0, false
		}
	}
}

func (idx *Index) newLeafVal(slice uint64, lc int, value uint64, suffix []byte, layer *layerRoot) *leafVal {
	lv := &leafVal{slice: slice, lenclass: lc, value: value, layer: layer}
	if suffix != nil {
		lv.suffix = append([]byte(nil), suffix...)
	}
	lv.pm = idx.heap.Alloc(uintptr(40 + len(suffix)))
	idx.heap.Shadow(lv.pm, lv)
	// RECIPE: persist the payload before it becomes reachable.
	idx.heap.Persist(lv.pm, 0, uintptr(40+len(suffix)))
	idx.heap.Fence()
	return lv
}

// payload returns the persisted payload of the key whose remaining bytes
// rem have slice and lc: a key that continues past the slice keeps the
// rest as its suffix.
func (idx *Index) payload(slice uint64, lc int, value uint64, rem []byte) *leafVal {
	if lc < suffixClass {
		return idx.newLeafVal(slice, lc, value, nil, nil)
	}
	return idx.newLeafVal(slice, suffixClass, value, rem[8:], nil)
}

// commit makes durable the 8-byte word at off that a committing store
// just wrote.
func (idx *Index) commit(o pmem.Obj, off uintptr) {
	idx.heap.Dirty(o, off, 8)
	// RECIPE: flush + fence after the committing store.
	idx.heap.PersistFence(o, off, 8)
}

// lockLeafFor descends to and locks the leaf covering slice, with sibling
// hand-over under lock. Each leaf it locks has any crash-torn split
// completed first (finishSplit), so no write ever changes an entry the
// torn sibling also holds: a later replay would truncate the change away
// and leave the sibling's stale copy in its place.
func (idx *Index) lockLeafFor(lr *layerRoot, slice uint64) *node {
	n := idx.descend(lr.root.Load(), slice, 0)
	n.lock.Lock(&idx.gen)
	for {
		idx.finishSplit(n)
		if !n.highSet.Load() || slice < n.high.Load() {
			return n
		}
		s := n.next.Load()
		n.lock.Unlock()
		s.lock.Lock(&idx.gen)
		n = s
	}
}

// leafFind locates (slice, lc) in the locked leaf; pos is the sorted
// position the entry occupies or would occupy.
func leafFind(n *node, slice uint64, lc int) (pos, slot int, lv *leafVal) {
	p := perm(n.perm.Load())
	for i := 0; i < p.count(); i++ {
		s := p.slot(i)
		es, ec := n.slices[s].Load(), int(n.lens[s].Load())
		if es == slice && ec == lc {
			return i, s, n.vals[s].Load()
		}
		if entryLess(slice, lc, es, ec) {
			return i, -1, nil
		}
	}
	return p.count(), -1, nil
}

// Insert stores value under key, overwriting an existing binding.
func (idx *Index) Insert(key []byte, value uint64) (err error) {
	if len(key) == 0 {
		return ErrEmptyKey
	}
	defer crash.Catch(&err)
	lr, rem := idx.layer0, key
	for {
		slice, lc := sliceOf(rem)
		n := idx.lockLeafFor(lr, slice)
		pos, slot, lv := leafFind(n, slice, lc)
		if lv != nil && lv.layer != nil {
			// Descend into the existing layer.
			n.lock.Unlock()
			lr, rem = lv.layer, rem[8:]
			continue
		}
		if lv != nil {
			// An existing entry commits with one atomic swap of its
			// payload pointer: to the new value, or, when two distinct
			// keys share the slice, to a fresh layer holding both.
			site := "mt.update.commit"
			if lc < suffixClass || bytes.Equal(lv.suffix, rem[8:]) {
				lv = idx.payload(slice, lc, value, rem)
			} else {
				lv = idx.newLeafVal(slice, suffixClass, 0, nil, idx.buildLayer(lv.suffix, lv.value, rem[8:], value))
				idx.heap.CrashPoint("mt.layer.built")
				site = "mt.layer.commit"
			}
			n.vals[slot].Store(lv)
			idx.commit(n.pm, offPtrs+uintptr(slot)*8)
			idx.heap.CrashPoint(site)
			if lv.layer != nil {
				idx.count.Add(1) // the layer's second key is new
			}
			n.lock.Unlock()
			return nil
		}
		// New entry.
		lv = idx.payload(slice, lc, value, rem)
		if perm(n.perm.Load()).count() == Fanout {
			right, splitSlice := idx.splitLeaf(n)
			target := n
			if slice >= splitSlice {
				target = right
			}
			pos, _, _ = leafFind(target, slice, lc)
			idx.insertLeafEntry(target, pos, slice, lc, lv)
			idx.count.Add(1)
			right.lock.Unlock()
			n.lock.Unlock()
			idx.insertParent(lr, n, splitSlice, right, 1)
			return nil
		}
		idx.insertLeafEntry(n, pos, slice, lc, lv)
		idx.count.Add(1)
		n.lock.Unlock()
		return nil
	}
}

// Update overwrites the value under key: Insert's upsert
// (core.PointIndex.Update).
func (idx *Index) Update(key []byte, value uint64) error { return idx.Insert(key, value) }

// siteNames names the crash sites of one node kind's inserts (publish)
// and splits (split).
type siteNames struct{ entry, commit, built, linked, truncated string }

var (
	leafSites  = siteNames{"mt.insert.entry", "mt.insert.commit", "mt.split.built", "mt.split.linked", "mt.split.truncated"}
	innerSites = siteNames{"mt.iinsert.entry", "mt.iinsert.commit", "mt.isplit.built", "mt.isplit.linked", "mt.isplit.truncated"}
)

func (n *node) sites() *siteNames {
	if n.leaf {
		return &leafSites
	}
	return &innerSites
}

// insertLeafEntry writes the entry into the leaf's free slot and
// publishes it at sorted position pos.
func (idx *Index) insertLeafEntry(n *node, pos int, slice uint64, lc int, lv *leafVal) {
	np, slot := perm(n.perm.Load()).insertAt(pos)
	n.slices[slot].Store(slice)
	n.lens[slot].Store(uint32(lc))
	n.vals[slot].Store(lv)
	idx.publish(n, np, slot, slot)
}

// insertInnerEntry writes (slice -> child) into the inner node's free
// slot and publishes it at sorted position pos. The child is stored
// before the slice: the slot may be the one a split just truncated away,
// which a reader holding the old permutation still scans, and a reader
// that sees the new slice must see the new child with it (DESIGN,
// "P-Masstree's inner pair").
func (idx *Index) insertInnerEntry(n *node, pos int, slice uint64, child *node) {
	np, slot := perm(n.perm.Load()).insertAt(pos)
	n.kids[slot+1].Store(child)
	n.slices[slot].Store(slice)
	idx.publish(n, np, slot, slot+1)
}

// publish persists the slice and pointer words (ptr indexes the
// pointer array) of the slot an insert just filled, fences, then commits
// with the single atomic permutation store (Condition #1).
func (idx *Index) publish(n *node, np perm, slot, ptr int) {
	st := n.sites()
	idx.heap.Dirty(n.pm, offSlices+uintptr(slot)*8, 8)
	idx.heap.Dirty(n.pm, offPtrs+uintptr(ptr)*8, 8)
	// RECIPE: persist the slot's slice and pointer words,
	idx.heap.Persist(n.pm, offSlices+uintptr(slot)*8, 8)
	idx.heap.Persist(n.pm, offPtrs+uintptr(ptr)*8, 8)
	// RECIPE: and fence them before the permutation store commits them.
	idx.heap.Fence()
	idx.heap.CrashPoint(st.entry)
	n.perm.Store(uint64(np))
	idx.commit(n.pm, offPerm)
	idx.heap.CrashPoint(st.commit)
}

// buildLayer constructs the (unpublished) layer tree holding two
// diverging key remainders; intermediate single-entry layers bridge any
// further shared 8-byte slices.
func (idx *Index) buildLayer(a []byte, v0 uint64, b []byte, v1 uint64) *layerRoot {
	top := idx.newLayerRoot()
	for cur := top; ; {
		s0, c0 := sliceOf(a)
		s1, c1 := sliceOf(b)
		leafn := idx.newNode(true, 0)
		cur.root.Store(leafn)
		var next *layerRoot
		if s0 == s1 && c0 == suffixClass && c1 == suffixClass {
			next = idx.newLayerRoot()
			idx.placePrivate(leafn, 0, s0, suffixClass, idx.newLeafVal(s0, suffixClass, 0, nil, next))
		} else {
			lv0, lv1 := idx.payload(s0, c0, v0, a), idx.payload(s1, c1, v1, b)
			if entryLess(s1, c1, s0, c0) {
				s0, c0, lv0, s1, c1, lv1 = s1, c1, lv1, s0, c0, lv0
			}
			idx.placePrivate(leafn, 0, s0, c0, lv0)
			idx.placePrivate(leafn, 1, s1, c1, lv1)
		}
		// RECIPE: persist the layer's leaf and anchor before the link to
		// them commits.
		idx.heap.Persist(leafn.pm, 0, nodeBytes)
		idx.heap.Persist(cur.pm, 0, 64)
		// RECIPE: one fence for both.
		idx.heap.Fence()
		if next == nil {
			return top
		}
		cur, a, b = next, a[8:], b[8:]
	}
}

// placePrivate fills sorted position pos of an unpublished leaf.
func (idx *Index) placePrivate(n *node, pos int, slice uint64, lc int, lv *leafVal) {
	np, slot := perm(n.perm.Load()).insertAt(pos)
	n.slices[slot].Store(slice)
	n.lens[slot].Store(uint32(lc))
	n.vals[slot].Store(lv)
	n.perm.Store(uint64(np))
}

// finishSplit completes a crash-torn split of the locked leaf n by
// replaying the completion steps, the RECIPE Condition #3 helper of
// §6.5. A split is torn when n still publishes entries its sibling
// holds: then n's last slice is not below the sibling's first, which a
// completed split (cut on a slice boundary) never allows, so the common
// case compares two slices and scans nothing.
func (idx *Index) finishSplit(n *node) {
	s := n.next.Load()
	if s == nil {
		return
	}
	p, sp := perm(n.perm.Load()), perm(s.perm.Load())
	if p.count() == 0 || sp.count() == 0 ||
		n.slices[p.slot(p.count()-1)].Load() < s.slices[sp.slot(0)].Load() {
		return
	}
	keep, ok := idx.tornSplit(n, s)
	if !ok {
		return
	}
	// RECIPE: replay the split completion: the cut at the sibling's
	// first slice.
	idx.cut(n, s.slices[sp.slot(0)].Load(), keep)
	idx.heap.CrashPoint("mt.split.replayed")
}

// splitLeaf splits the locked, full leaf n, whose last split lockLeafFor
// has completed. Returns the locked right sibling and the separator
// slice.
func (idx *Index) splitLeaf(n *node) (*node, uint64) {
	p := perm(n.perm.Load())
	cnt := p.count()
	// Pick a split position on a slice boundary so same-slice entries
	// stay together and routing by slice is unambiguous.
	mid := cnt / 2
	for mid > 1 && n.slices[p.slot(mid)].Load() == n.slices[p.slot(mid-1)].Load() {
		mid--
	}
	for mid < cnt-1 && n.slices[p.slot(mid)].Load() == n.slices[p.slot(mid-1)].Load() {
		mid++
	}
	s := idx.sibling(n)
	for i := mid; i < cnt; i++ {
		slot := p.slot(i)
		idx.placePrivate(s, i-mid, n.slices[slot].Load(), int(n.lens[slot].Load()), n.vals[slot].Load())
	}
	splitSlice := n.slices[p.slot(mid)].Load()
	idx.split(n, s, splitSlice, mid)
	return s, splitSlice
}

// splitInner splits the locked, full internal node n; the median
// separator moves up. Returns the locked sibling and the promoted
// separator.
func (idx *Index) splitInner(n *node) (*node, uint64) {
	p := perm(n.perm.Load())
	if s := n.next.Load(); s != nil {
		if keep, ok := idx.tornSplit(n, s); ok {
			s.lock.Lock(&idx.gen)
			// The cut position is the median whose child became the
			// sibling's leftmost; it is promoted and dropped from n.
			sep := n.slices[p.slot(keep)].Load()
			// RECIPE: replay the split completion.
			idx.cut(n, sep, keep)
			idx.heap.CrashPoint("mt.isplit.replayed")
			return s, sep
		}
	}
	mid := p.count() / 2
	sep := n.slices[p.slot(mid)].Load()
	s := idx.sibling(n)
	s.kids[0].Store(n.kids[p.slot(mid)+1].Load())
	for i := mid + 1; i < p.count(); i++ {
		slot := p.slot(i)
		np, nslot := perm(s.perm.Load()).insertAt(i - mid - 1)
		s.slices[nslot].Store(n.slices[slot].Load())
		s.kids[nslot+1].Store(n.kids[slot+1].Load())
		s.perm.Store(uint64(np))
	}
	idx.split(n, s, sep, mid)
	return s, sep
}

// sibling returns a new, locked node of n's kind and level that takes
// over n's sibling link and high key: the right half of n's split.
func (idx *Index) sibling(n *node) *node {
	s := idx.newNode(n.leaf, n.level)
	s.lock.Lock(&idx.gen)
	s.next.Store(n.next.Load())
	if n.highSet.Load() {
		s.high.Store(n.high.Load())
		s.highSet.Store(true)
	}
	return s
}

// split is §6.5's B-link split of the locked node n into its filled
// sibling s, for either node kind: persist s, atomically link it (step
// 1), then cut n to its first keep entries below high (step 2).
func (idx *Index) split(n, s *node, high uint64, keep int) {
	st := n.sites()
	// RECIPE: persist the sibling before step 1 publishes it.
	idx.heap.Persist(s.pm, 0, nodeBytes)
	idx.heap.Fence()
	idx.heap.CrashPoint(st.built)
	n.next.Store(s)
	idx.commit(n.pm, offSibling)
	idx.heap.CrashPoint(st.linked)
	idx.cut(n, high, keep)
	idx.heap.CrashPoint(st.truncated)
}

// cut publishes high as n's high key, so readers route moved slices to
// the sibling, then atomically truncates n's permutation to its first
// keep entries (step 2). A split ends with it, and Condition #3's helpers
// (finishSplit, splitInner) replay it for a split a crash tore after
// step 1.
func (idx *Index) cut(n *node, high uint64, keep int) {
	n.high.Store(high)
	n.highSet.Store(true)
	idx.commit(n.pm, offHigh)
	n.perm.Store(uint64(perm(n.perm.Load()).truncate(keep)))
	idx.commit(n.pm, offPerm)
}

// tornSplit reports whether sibling s duplicates entries still published
// in n (the signature of a split crash-torn between linking and
// truncation), returning the permutation position where n must be cut.
func (idx *Index) tornSplit(n, s *node) (int, bool) {
	sp := perm(s.perm.Load())
	if sp.count() == 0 {
		return 0, false
	}
	first := any(s.kids[0].Load())
	if n.leaf {
		first = s.vals[sp.slot(0)].Load()
	}
	p := perm(n.perm.Load())
	for i := 0; i < p.count(); i++ {
		ptr := any(n.kids[p.slot(i)+1].Load())
		if n.leaf {
			ptr = n.vals[p.slot(i)].Load()
		}
		if ptr == first {
			return i, true
		}
	}
	return 0, false
}

// insertParent installs (splitSlice -> right) one level above left,
// splitting upward as needed; at the top it grows the layer with a new
// root committed by one pointer swap. Idempotent: a separator that is
// already present (posted before a crash, or by a replayed split) is
// left alone.
func (idx *Index) insertParent(lr *layerRoot, left *node, splitSlice uint64, right *node, level int) {
	for {
		root := lr.root.Load()
		if root.level < level {
			// Grow a root above the current one. left is that root or,
			// after a concurrent split or a restart image that reverted
			// an unfenced root swap, a node B-link hops reach from it.
			lr.mu.Lock(&idx.gen)
			if lr.root.Load() != root {
				lr.mu.Unlock()
				continue
			}
			nr := idx.newNode(false, level)
			nr.kids[0].Store(root)
			np, slot := perm(nr.perm.Load()).insertAt(0)
			nr.slices[slot].Store(splitSlice)
			nr.kids[slot+1].Store(right)
			nr.perm.Store(uint64(np))
			// RECIPE: persist the new root, then commit with the atomic
			// root swap.
			idx.heap.Persist(nr.pm, 0, nodeBytes)
			idx.heap.Fence()
			idx.heap.CrashPoint("mt.rootgrow.built")
			lr.root.Store(nr)
			idx.commit(lr.pm, 0)
			idx.heap.CrashPoint("mt.rootgrow.commit")
			lr.mu.Unlock()
			return
		}
		n := idx.descend(root, splitSlice, level)
		n.lock.Lock(&idx.gen)
		for n.highSet.Load() && splitSlice >= n.high.Load() {
			s := n.next.Load()
			n.lock.Unlock()
			s.lock.Lock(&idx.gen)
			n = s
		}
		pos, exists := innerPos(n, splitSlice)
		if exists {
			n.lock.Unlock()
			return
		}
		if perm(n.perm.Load()).count() < Fanout {
			idx.insertInnerEntry(n, pos, splitSlice, right)
			n.lock.Unlock()
			return
		}
		ns, sep := idx.splitInner(n)
		target := n
		if splitSlice >= sep {
			target = ns
		}
		pos, _ = innerPos(target, splitSlice)
		idx.insertInnerEntry(target, pos, splitSlice, right)
		ns.lock.Unlock()
		n.lock.Unlock()
		idx.insertParent(lr, n, sep, ns, level+1)
		return
	}
}

// innerPos returns the sorted position of separator slice in inner node
// n, and whether n holds it already.
func innerPos(n *node, slice uint64) (int, bool) {
	p := perm(n.perm.Load())
	for i := 0; i < p.count(); i++ {
		switch es := n.slices[p.slot(i)].Load(); {
		case es == slice:
			return i, true
		case slice < es:
			return i, false
		}
	}
	return p.count(), false
}

// Delete removes key, committing via a single atomic permutation store.
func (idx *Index) Delete(key []byte) (deleted bool, err error) {
	if len(key) == 0 {
		return false, ErrEmptyKey
	}
	defer crash.Catch(&err)
	lr, rem := idx.layer0, key
	for {
		slice, lc := sliceOf(rem)
		n := idx.lockLeafFor(lr, slice)
		pos, _, lv := leafFind(n, slice, lc)
		if lv != nil && lv.layer != nil {
			n.lock.Unlock()
			lr, rem = lv.layer, rem[8:]
			continue
		}
		if lv == nil || lc == suffixClass && !bytes.Equal(lv.suffix, rem[8:]) {
			n.lock.Unlock()
			return false, nil
		}
		p := perm(n.perm.Load())
		n.perm.Store(uint64(p.removeAt(pos)))
		idx.commit(n.pm, offPerm)
		idx.heap.CrashPoint("mt.delete.commit")
		idx.count.Add(-1)
		n.lock.Unlock()
		return true, nil
	}
}
