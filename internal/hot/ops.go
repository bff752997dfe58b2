package hot

import (
	"bytes"

	"repro/internal/crash"
)

// pathEl records one descent step: path[i].n.entries[path[i].slot] is the
// child entry taken.
type pathEl struct {
	n    *hnode
	slot int
}

// Insert stores value under key, overwriting an existing binding. Every
// mutation is copy-on-write, committed by a single atomic pointer swap
// (Condition #1); structure modifications lock the affected nodes
// bottom-up and unlock top-down, as in the original (§6.1). It gives up
// with ErrStalled after maxRestarts restarts in a row.
func (idx *Index) Insert(key []byte, value uint64) (err error) {
	if len(key) == 0 {
		return ErrEmptyKey
	}
	defer crash.Catch(&err)
	for i := 0; i < maxRestarts; i++ {
		if idx.tryInsert(key, value) {
			return nil
		}
	}
	return ErrStalled
}

// Update overwrites the value under key: Insert's upsert
// (core.PointIndex.Update).
func (idx *Index) Update(key []byte, value uint64) error { return idx.Insert(key, value) }

func (idx *Index) tryInsert(key []byte, value uint64) bool {
	root := idx.root.Load()
	if root == nil {
		idx.rootMu.Lock(&idx.gen)
		if idx.root.Load() != nil {
			idx.rootMu.Unlock()
			return false
		}
		nn := idx.newNode([]*entry{leafEntry(key, value)})
		idx.built("hot.rootinit.built")
		idx.root.Store(nn)
		idx.heap.Dirty(idx.rootPM, 0, 8)
		// RECIPE: flush + fence after the committing root store.
		idx.heap.PersistFence(idx.rootPM, 0, 8)
		idx.heap.CrashPoint("hot.rootinit.commit")
		idx.count.Add(1)
		idx.rootMu.Unlock()
		return true
	}
	var path []pathEl
	n := root
	for {
		i := n.candidate(key)
		if i >= 0 && !n.entries[i].isLeaf {
			path = append(path, pathEl{n, i})
			n = n.entries[i].child.Load()
			continue
		}
		break
	}
	return idx.commitInsert(path, n, key, value)
}

// commitInsert builds the copy-on-write replacement for target (update,
// sorted insert, or overflow split) and swaps it in.
func (idx *Index) commitInsert(path []pathEl, target *hnode, key []byte, value uint64) bool {
	var locked []*hnode
	defer func() {
		// Unlock top-down, as HOT's SMO protocol specifies.
		for i := len(locked) - 1; i >= 0; i-- {
			locked[i].lock.Unlock()
		}
	}()
	target.lock.Lock(&idx.gen)
	locked = append(locked, target)
	if target.lock.Obsolete() {
		return false
	}
	i := target.candidate(key)
	if i >= 0 && target.entries[i].isLeaf && bytes.Equal(target.entries[i].key, key) {
		// Update: COW with one slot replaced.
		ne := append([]*entry(nil), target.entries...)
		ne[i] = leafEntry(key, value)
		nn := idx.newNode(ne)
		idx.built("hot.update.built")
		return idx.swapUp(path, len(path), target, nn, nil, &locked)
	}
	ne := make([]*entry, 0, len(target.entries)+1)
	ne = append(ne, target.entries[:i+1]...)
	ne = append(ne, leafEntry(key, value))
	ne = append(ne, target.entries[i+1:]...)
	if len(ne) <= MaxFanout {
		nn := idx.newNode(ne)
		idx.built("hot.insert.built")
		if idx.swapUp(path, len(path), target, nn, nil, &locked) {
			idx.count.Add(1)
			return true
		}
		return false
	}
	// Overflow: split into two compound nodes (the SMO).
	mid := len(ne) / 2
	ln := idx.newNode(ne[:mid:mid])
	rn := idx.newNode(ne[mid:])
	idx.built("hot.split.built")
	if idx.swapUp(path, len(path), target, ln, rn, &locked) {
		idx.count.Add(1)
		return true
	}
	return false
}

// swapUp replaces the subtree rooted at old with left (and right, when a
// split added a sibling), ascending while parents overflow. The commit is
// always a single atomic pointer store: either an in-place child-pointer
// swap (no split) or the swap installing the highest rebuilt ancestor.
// Ancestors are locked bottom-up as they are reached.
func (idx *Index) swapUp(path []pathEl, d int, old *hnode, left, right *hnode, locked *[]*hnode) bool {
	if d == 0 {
		idx.rootMu.Lock(&idx.gen)
		defer idx.rootMu.Unlock()
		if idx.root.Load() != old {
			return false
		}
		nn := left
		if right != nil {
			nn = idx.newNode([]*entry{
				childEntry(left.entries[0].key, left),
				childEntry(right.entries[0].key, right),
			})
			idx.built("hot.rootgrow.built")
		}
		idx.root.Store(nn)
		idx.heap.Dirty(idx.rootPM, 0, 8)
		// RECIPE: flush + fence after the committing root store.
		idx.heap.PersistFence(idx.rootPM, 0, 8)
		idx.heap.CrashPoint("hot.commit.root")
		old.lock.MarkObsolete()
		return true
	}
	p := path[d-1].n
	slot := path[d-1].slot
	p.lock.Lock(&idx.gen)
	*locked = append(*locked, p)
	if p.lock.Obsolete() || slot >= len(p.entries) || p.entries[slot].child.Load() != old {
		return false
	}
	if right == nil {
		// Same-shape replacement: swing the child pointer atomically.
		p.entries[slot].child.Store(left)
		idx.heap.Dirty(p.pm, uintptr(slot)*entryBytes, 8)
		// RECIPE: flush + fence after the committing store.
		idx.heap.PersistFence(p.pm, uintptr(slot)*entryBytes, 8)
		idx.heap.CrashPoint("hot.commit.swap")
		old.lock.MarkObsolete()
		return true
	}
	// The split adds an entry: COW the parent, keeping its old separator
	// as the left child's lower bound.
	le := childEntry(p.entries[slot].key, left)
	re := childEntry(right.entries[0].key, right)
	ne := make([]*entry, 0, len(p.entries)+1)
	ne = append(ne, p.entries[:slot]...)
	ne = append(ne, le, re)
	ne = append(ne, p.entries[slot+1:]...)
	if len(ne) <= MaxFanout {
		np := idx.newNode(ne)
		idx.built("hot.parent.built")
		if idx.swapUp(path, d-1, p, np, nil, locked) {
			old.lock.MarkObsolete()
			return true
		}
		return false
	}
	mid := len(ne) / 2
	lp := idx.newNode(ne[:mid:mid])
	rp := idx.newNode(ne[mid:])
	idx.built("hot.parentsplit.built")
	if idx.swapUp(path, d-1, p, lp, rp, locked) {
		old.lock.MarkObsolete()
		return true
	}
	return false
}

// Delete removes key, committing via COW + pointer swap like every other
// HOT mutation. Emptied nodes are left in place (lazy) and reclaimed when
// their parent is next rebuilt. Like Insert it gives up with ErrStalled
// after maxRestarts restarts in a row.
func (idx *Index) Delete(key []byte) (deleted bool, err error) {
	if len(key) == 0 {
		return false, ErrEmptyKey
	}
	defer crash.Catch(&err)
	for attempt := 0; attempt < maxRestarts; attempt++ {
		root := idx.root.Load()
		if root == nil {
			return false, nil
		}
		var path []pathEl
		n := root
		for {
			i := n.candidate(key)
			if i >= 0 && !n.entries[i].isLeaf {
				path = append(path, pathEl{n, i})
				n = n.entries[i].child.Load()
				continue
			}
			if i < 0 || !bytes.Equal(n.entries[i].key, key) {
				return false, nil
			}
			break
		}
		if del, done := idx.commitDelete(path, n, key); done {
			return del, nil
		}
	}
	return false, ErrStalled
}

func (idx *Index) commitDelete(path []pathEl, target *hnode, key []byte) (del, done bool) {
	var locked []*hnode
	defer func() {
		for i := len(locked) - 1; i >= 0; i-- {
			locked[i].lock.Unlock()
		}
	}()
	target.lock.Lock(&idx.gen)
	locked = append(locked, target)
	if target.lock.Obsolete() {
		return false, false
	}
	i := target.candidate(key)
	if i < 0 || !target.entries[i].isLeaf || !bytes.Equal(target.entries[i].key, key) {
		return false, true // removed concurrently; linearize as absent
	}
	ne := make([]*entry, 0, len(target.entries)-1)
	ne = append(ne, target.entries[:i]...)
	ne = append(ne, target.entries[i+1:]...)
	if len(ne) == 0 && len(path) == 0 {
		// Removing the last key of the tree.
		idx.rootMu.Lock(&idx.gen)
		defer idx.rootMu.Unlock()
		if idx.root.Load() != target {
			return false, false
		}
		idx.root.Store(nil)
		idx.heap.Dirty(idx.rootPM, 0, 8)
		// RECIPE: flush + fence after the committing store.
		idx.heap.PersistFence(idx.rootPM, 0, 8)
		idx.heap.CrashPoint("hot.delete.root")
		target.lock.MarkObsolete()
		idx.count.Add(-1)
		return true, true
	}
	nn := idx.newNode(ne)
	idx.built("hot.delete.built")
	if idx.swapUp(path, len(path), target, nn, nil, &locked) {
		idx.count.Add(-1)
		return true, true
	}
	return false, false
}
