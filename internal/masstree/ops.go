package masstree

import (
	"bytes"

	"repro/internal/crash"
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
	lr := idx.layer0
	rem := key
	for {
		slice, lc := sliceOf(rem)
		n := idx.lockLeafFor(lr, slice)
		pos, slot, lv := leafFind(n, slice, lc)
		if lv != nil {
			switch {
			case lc < suffixClass:
				// In-place update: swing the payload pointer atomically.
				nlv := idx.newLeafVal(slice, lc, value, nil, nil)
				n.vals[slot].Store(nlv)
				idx.heap.Dirty(n.pm, offPtrs+uintptr(slot)*8, 8)
				// RECIPE: flush + fence after the committing store.
				idx.heap.PersistFence(n.pm, offPtrs+uintptr(slot)*8, 8)
				idx.heap.CrashPoint("mt.update.commit")
				n.lock.Unlock()
				return nil
			case lv.layer != nil:
				// Descend into the existing layer.
				n.lock.Unlock()
				lr = lv.layer
				rem = rem[8:]
				continue
			case bytes.Equal(lv.suffix, rem[8:]):
				nlv := idx.newLeafVal(slice, lc, value, rem[8:], nil)
				n.vals[slot].Store(nlv)
				idx.heap.Dirty(n.pm, offPtrs+uintptr(slot)*8, 8)
				// RECIPE: flush + fence after the committing store.
				idx.heap.PersistFence(n.pm, offPtrs+uintptr(slot)*8, 8)
				idx.heap.CrashPoint("mt.update.commit")
				n.lock.Unlock()
				return nil
			default:
				// Two distinct keys share the slice: push both into a
				// fresh layer, committed by one payload-pointer swap.
				nlr := idx.buildLayer(lv.suffix, lv.value, rem[8:], value)
				nlv := idx.newLeafVal(slice, suffixClass, 0, nil, nlr)
				idx.heap.CrashPoint("mt.layer.built")
				n.vals[slot].Store(nlv)
				idx.heap.Dirty(n.pm, offPtrs+uintptr(slot)*8, 8)
				// RECIPE: flush + fence after the committing store.
				idx.heap.PersistFence(n.pm, offPtrs+uintptr(slot)*8, 8)
				idx.heap.CrashPoint("mt.layer.commit")
				idx.count.Add(1)
				n.lock.Unlock()
				return nil
			}
		}
		// New entry.
		var payload *leafVal
		if lc < suffixClass {
			payload = idx.newLeafVal(slice, lc, value, nil, nil)
		} else {
			payload = idx.newLeafVal(slice, suffixClass, value, rem[8:], nil)
		}
		p := perm(n.perm.Load())
		if p.count() == Fanout {
			right, splitSlice := idx.splitLeaf(n)
			target := n
			if slice >= splitSlice {
				target = right
			}
			pos, _, _ = leafFind(target, slice, lc)
			idx.insertLeafEntry(target, pos, slice, lc, payload)
			idx.count.Add(1)
			right.lock.Unlock()
			n.lock.Unlock()
			idx.insertParent(lr, n, splitSlice, right, 1)
			return nil
		}
		idx.insertLeafEntry(n, pos, slice, lc, payload)
		idx.count.Add(1)
		n.lock.Unlock()
		return nil
	}
}

// Update overwrites the value under key: Insert's upsert
// (core.PointIndex.Update).
func (idx *Index) Update(key []byte, value uint64) error { return idx.Insert(key, value) }

// insertLeafEntry writes the entry into a free slot, persists it, then
// commits with the single atomic permutation store (Condition #1).
func (idx *Index) insertLeafEntry(n *node, pos int, slice uint64, lc int, lv *leafVal) {
	p := perm(n.perm.Load())
	np, slot := p.insertAt(pos)
	n.slices[slot].Store(slice)
	n.lens[slot].Store(uint32(lc))
	n.vals[slot].Store(lv)
	idx.heap.Dirty(n.pm, offSlices+uintptr(slot)*8, 8)
	idx.heap.Dirty(n.pm, offPtrs+uintptr(slot)*8, 8)
	// RECIPE: persist the slot, fence, then commit via the permutation
	// store, then persist the permutation word.
	idx.heap.Persist(n.pm, offSlices+uintptr(slot)*8, 8)
	idx.heap.Persist(n.pm, offPtrs+uintptr(slot)*8, 8)
	idx.heap.Fence()
	idx.heap.CrashPoint("mt.insert.entry")
	n.perm.Store(uint64(np))
	idx.heap.Dirty(n.pm, offPerm, 8)
	idx.heap.PersistFence(n.pm, offPerm, 8)
	idx.heap.CrashPoint("mt.insert.commit")
}

// buildLayer constructs the (unpublished) layer tree holding two
// diverging key remainders; intermediate single-entry layers bridge any
// further shared 8-byte slices.
func (idx *Index) buildLayer(k0 []byte, v0 uint64, k1 []byte, v1 uint64) *layerRoot {
	top := idx.newLayerRoot()
	cur := top
	a, b := k0, k1
	for {
		s0, c0 := sliceOf(a)
		s1, c1 := sliceOf(b)
		leafn := idx.newNode(true, 0)
		cur.root.Store(leafn)
		if s0 == s1 && c0 == suffixClass && c1 == suffixClass {
			next := idx.newLayerRoot()
			lv := idx.newLeafVal(s0, suffixClass, 0, nil, next)
			idx.placePrivate(leafn, 0, s0, suffixClass, lv)
			idx.heap.Persist(leafn.pm, 0, nodeBytes)
			idx.heap.Persist(cur.pm, 0, 64)
			idx.heap.Fence()
			cur = next
			a, b = a[8:], b[8:]
			continue
		}
		mk := func(s uint64, c int, k []byte, v uint64) *leafVal {
			if c < suffixClass {
				return idx.newLeafVal(s, c, v, nil, nil)
			}
			return idx.newLeafVal(s, suffixClass, v, k[8:], nil)
		}
		lv0 := mk(s0, c0, a, v0)
		lv1 := mk(s1, c1, b, v1)
		if entryLess(s1, c1, s0, c0) {
			s0, c0, lv0, s1, c1, lv1 = s1, c1, lv1, s0, c0, lv0
		}
		idx.placePrivate(leafn, 0, s0, c0, lv0)
		idx.placePrivate(leafn, 1, s1, c1, lv1)
		idx.heap.Persist(leafn.pm, 0, nodeBytes)
		idx.heap.Persist(cur.pm, 0, 64)
		idx.heap.Fence()
		return top
	}
}

// placePrivate fills sorted position pos of an unpublished leaf.
func (idx *Index) placePrivate(n *node, pos int, slice uint64, lc int, lv *leafVal) {
	p := perm(n.perm.Load())
	np, slot := p.insertAt(pos)
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
	cut, ok := idx.tornSplit(n, s)
	if !ok {
		return
	}
	// RECIPE: replay the split completion — publish the high key, then
	// truncate the permutation.
	n.high.Store(s.slices[sp.slot(0)].Load())
	n.highSet.Store(true)
	idx.heap.Dirty(n.pm, offHigh, 8)
	idx.heap.PersistFence(n.pm, offHigh, 8)
	n.perm.Store(uint64(p.truncate(cut)))
	idx.heap.Dirty(n.pm, offPerm, 8)
	idx.heap.PersistFence(n.pm, offPerm, 8)
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
	s := idx.newNode(true, 0)
	s.lock.Lock(&idx.gen)
	for i := mid; i < cnt; i++ {
		slot := p.slot(i)
		idx.placePrivate(s, i-mid, n.slices[slot].Load(), int(n.lens[slot].Load()), n.vals[slot].Load())
	}
	s.next.Store(n.next.Load())
	if n.highSet.Load() {
		s.high.Store(n.high.Load())
		s.highSet.Store(true)
	}
	// RECIPE: persist the sibling before step 1 publishes it.
	idx.heap.Persist(s.pm, 0, nodeBytes)
	idx.heap.Fence()
	idx.heap.CrashPoint("mt.split.built")

	splitSlice := n.slices[p.slot(mid)].Load()
	// Step 1: atomically install the sibling link.
	n.next.Store(s)
	idx.heap.Dirty(n.pm, offSibling, 8)
	idx.heap.PersistFence(n.pm, offSibling, 8)
	idx.heap.CrashPoint("mt.split.linked")

	// Publish the high key so readers route moved slices to the sibling.
	n.high.Store(splitSlice)
	n.highSet.Store(true)
	idx.heap.Dirty(n.pm, offHigh, 8)
	idx.heap.PersistFence(n.pm, offHigh, 8)

	// Step 2: atomically invalidate the moved entries via the permutation.
	n.perm.Store(uint64(p.truncate(mid)))
	idx.heap.Dirty(n.pm, offPerm, 8)
	idx.heap.PersistFence(n.pm, offPerm, 8)
	idx.heap.CrashPoint("mt.split.truncated")
	return s, splitSlice
}

// tornSplit reports whether sibling s duplicates entries still published
// in n (the signature of a split crash-torn between linking and
// truncation), returning the permutation position where n must be cut.
func (idx *Index) tornSplit(n, s *node) (int, bool) {
	sp := perm(s.perm.Load())
	if sp.count() == 0 {
		return 0, false
	}
	var firstPtr any
	if n.leaf {
		firstPtr = s.vals[sp.slot(0)].Load()
	} else {
		firstPtr = s.kids[0].Load()
	}
	p := perm(n.perm.Load())
	for i := 0; i < p.count(); i++ {
		slot := p.slot(i)
		if n.leaf {
			if any(n.vals[slot].Load()) == firstPtr {
				return i, true
			}
		} else {
			if any(n.kids[slot+1].Load()) == firstPtr {
				return i, true
			}
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
			idx.heap.Dirty(lr.pm, 0, 8)
			idx.heap.PersistFence(lr.pm, 0, 8)
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
		p := perm(n.perm.Load())
		pos := p.count()
		exists := false
		for i := 0; i < p.count(); i++ {
			es := n.slices[p.slot(i)].Load()
			if es == splitSlice {
				exists = true
				break
			}
			if splitSlice < es {
				pos = i
				break
			}
		}
		if exists {
			n.lock.Unlock()
			return
		}
		if p.count() < Fanout {
			idx.insertInnerEntry(n, pos, splitSlice, right)
			n.lock.Unlock()
			return
		}
		ns, sep := idx.splitInner(n)
		target := n
		if splitSlice >= sep {
			target = ns
		}
		tp := perm(target.perm.Load())
		pos = tp.count()
		for i := 0; i < tp.count(); i++ {
			if splitSlice < target.slices[tp.slot(i)].Load() {
				pos = i
				break
			}
		}
		idx.insertInnerEntry(target, pos, splitSlice, right)
		ns.lock.Unlock()
		n.lock.Unlock()
		idx.insertParent(lr, n, sep, ns, level+1)
		return
	}
}

func (idx *Index) insertInnerEntry(n *node, pos int, slice uint64, child *node) {
	p := perm(n.perm.Load())
	np, slot := p.insertAt(pos)
	n.slices[slot].Store(slice)
	n.kids[slot+1].Store(child)
	idx.heap.Dirty(n.pm, offSlices+uintptr(slot)*8, 8)
	idx.heap.Dirty(n.pm, offPtrs+uintptr(slot+1)*8, 8)
	// RECIPE: persist the slot, fence, commit via the permutation store.
	idx.heap.Persist(n.pm, offSlices+uintptr(slot)*8, 8)
	idx.heap.Persist(n.pm, offPtrs+uintptr(slot+1)*8, 8)
	idx.heap.Fence()
	idx.heap.CrashPoint("mt.iinsert.entry")
	n.perm.Store(uint64(np))
	idx.heap.Dirty(n.pm, offPerm, 8)
	idx.heap.PersistFence(n.pm, offPerm, 8)
	idx.heap.CrashPoint("mt.iinsert.commit")
}

// splitInner splits the locked, full internal node n; the median
// separator moves up. Returns the locked sibling and the promoted
// separator.
func (idx *Index) splitInner(n *node) (*node, uint64) {
	if s := n.next.Load(); s != nil {
		if cut, ok := idx.tornSplit(n, s); ok {
			s.lock.Lock(&idx.gen)
			// The cut position is the median whose child became the
			// sibling's leftmost; it is promoted and dropped from n.
			p := perm(n.perm.Load())
			sep := n.slices[p.slot(cut)].Load()
			// RECIPE: replay the split completion.
			n.high.Store(sep)
			n.highSet.Store(true)
			idx.heap.Dirty(n.pm, offHigh, 8)
			idx.heap.PersistFence(n.pm, offHigh, 8)
			n.perm.Store(uint64(p.truncate(cut)))
			idx.heap.Dirty(n.pm, offPerm, 8)
			idx.heap.PersistFence(n.pm, offPerm, 8)
			idx.heap.CrashPoint("mt.isplit.replayed")
			return s, sep
		}
	}
	p := perm(n.perm.Load())
	cnt := p.count()
	mid := cnt / 2
	sep := n.slices[p.slot(mid)].Load()
	s := idx.newNode(false, n.level)
	s.lock.Lock(&idx.gen)
	s.kids[0].Store(n.kids[p.slot(mid)+1].Load())
	for i := mid + 1; i < cnt; i++ {
		slot := p.slot(i)
		sp := perm(s.perm.Load())
		np, nslot := sp.insertAt(i - mid - 1)
		s.slices[nslot].Store(n.slices[slot].Load())
		s.kids[nslot+1].Store(n.kids[slot+1].Load())
		s.perm.Store(uint64(np))
	}
	s.next.Store(n.next.Load())
	if n.highSet.Load() {
		s.high.Store(n.high.Load())
		s.highSet.Store(true)
	}
	// RECIPE: persist the sibling before step 1.
	idx.heap.Persist(s.pm, 0, nodeBytes)
	idx.heap.Fence()
	idx.heap.CrashPoint("mt.isplit.built")

	n.next.Store(s)
	idx.heap.Dirty(n.pm, offSibling, 8)
	idx.heap.PersistFence(n.pm, offSibling, 8)
	idx.heap.CrashPoint("mt.isplit.linked")

	n.high.Store(sep)
	n.highSet.Store(true)
	idx.heap.Dirty(n.pm, offHigh, 8)
	idx.heap.PersistFence(n.pm, offHigh, 8)

	n.perm.Store(uint64(p.truncate(mid)))
	idx.heap.Dirty(n.pm, offPerm, 8)
	idx.heap.PersistFence(n.pm, offPerm, 8)
	idx.heap.CrashPoint("mt.isplit.truncated")
	return s, sep
}

// Delete removes key, committing via a single atomic permutation store.
func (idx *Index) Delete(key []byte) (deleted bool, err error) {
	if len(key) == 0 {
		return false, ErrEmptyKey
	}
	defer crash.Catch(&err)
	lr := idx.layer0
	rem := key
	for {
		slice, lc := sliceOf(rem)
		n := idx.lockLeafFor(lr, slice)
		pos, slot, lv := leafFind(n, slice, lc)
		if lv == nil {
			n.lock.Unlock()
			return false, nil
		}
		if lc < suffixClass {
			idx.removeLeafEntry(n, pos)
			idx.count.Add(-1)
			n.lock.Unlock()
			return true, nil
		}
		if lv.layer != nil {
			n.lock.Unlock()
			lr = lv.layer
			rem = rem[8:]
			continue
		}
		if !bytes.Equal(lv.suffix, rem[8:]) {
			n.lock.Unlock()
			return false, nil
		}
		_ = slot
		idx.removeLeafEntry(n, pos)
		idx.count.Add(-1)
		n.lock.Unlock()
		return true, nil
	}
}

func (idx *Index) removeLeafEntry(n *node, pos int) {
	p := perm(n.perm.Load())
	n.perm.Store(uint64(p.removeAt(pos)))
	idx.heap.Dirty(n.pm, offPerm, 8)
	// RECIPE: flush + fence after the committing permutation store.
	idx.heap.PersistFence(n.pm, offPerm, 8)
	idx.heap.CrashPoint("mt.delete.commit")
}
