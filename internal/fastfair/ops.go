package fastfair

import (
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
	l := off / 64
	if f.dirty && l != f.line {
		f.t.heap.Persist(f.n.pm, f.line*64, 64)
		f.t.heap.Fence()
	}
	f.line = l
	f.dirty = true
}

func (f *flusher) flush() {
	if f.dirty {
		f.t.heap.Persist(f.n.pm, f.line*64, 64)
		f.t.heap.Fence()
		f.dirty = false
	}
}

// Lookup returns the value stored under key. Reads are lock-free: they
// skip the transient duplicates FAST shifts create (two adjacent slots
// sharing one record pointer) and chase sibling links when the key lies
// beyond the node's high key (FAIR).
func (t *Tree) Lookup(key []byte) (uint64, bool) {
	if t.kind == keys.RandInt && len(key) != 8 {
		return 0, false
	}
	n := t.root.Load()
	for n != nil && !n.leaf {
		n = t.childFor(n, key)
	}
	for n != nil {
		t.heap.Load(n.pm, 0, nodeBytes)
		for i := 0; i < Cardinality; i++ {
			v := n.vals[i].Load()
			if v == nil {
				break
			}
			if i+1 < Cardinality && n.vals[i+1].Load() == v {
				continue // transient duplicate mid-shift: key not committed
			}
			c := t.cmpProbe(key, n.keys[i].Load())
			if c == 0 {
				t.heap.Load(v.pm, 0, 16)
				return v.v, true
			}
			if c < 0 {
				break
			}
		}
		if n.highSet.Load() && t.cmpProbe(key, n.high.Load()) >= 0 {
			n = n.sibling.Load()
			continue
		}
		return 0, false
	}
	return 0, false
}

// childFor picks the child covering key in internal node n, chasing
// siblings when key is at or beyond the high key.
//
// The high-key check runs AFTER the entry scan: a split links the
// sibling, publishes the high key, and only then truncates the entries,
// so a reader that observes a truncated entry set is guaranteed to see
// the high key set and re-routes right. Checking before the scan would
// let a reader pair a pre-split high key with post-truncation entries and
// descend into the wrong subtree.
func (t *Tree) childFor(n *node, key []byte) *node {
	for {
		t.heap.Load(n.pm, 0, nodeBytes)
		child := n.leftmost.Load()
		for i := 0; i < Cardinality; i++ {
			k := n.kids[i].Load()
			if k == nil {
				break
			}
			if i+1 < Cardinality && n.kids[i+1].Load() == k {
				continue // transient duplicate mid-shift
			}
			if t.cmpProbe(key, n.keys[i].Load()) >= 0 {
				child = k
			} else {
				break
			}
		}
		if n.highSet.Load() && t.cmpProbe(key, n.high.Load()) >= 0 {
			if s := n.sibling.Load(); s != nil {
				n = s
				continue
			}
		}
		return child
	}
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
	n := t.root.Load()
	for !n.leaf {
		n = t.childFor(n, key)
	}
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

	cnt := n.countRecords()
	pos := cnt
	for i := 0; i < cnt; i++ {
		c := t.cmpProbe(key, n.keys[i].Load())
		if c == 0 {
			// Update: swing the record pointer with one atomic store.
			n.vals[i].Store(vr)
			t.heap.Dirty(n.pm, recOff(i)+8, 8)
			t.heap.PersistFence(n.pm, recOff(i)+8, 8)
			t.heap.CrashPoint("ff.update.commit")
			return
		}
		if c < 0 {
			pos = i
			break
		}
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
	cnt = target.countRecords()
	pos = cnt
	for i := 0; i < cnt; i++ {
		if t.cmpProbe(key, target.keys[i].Load()) < 0 {
			pos = i
			break
		}
	}
	t.fastInsertLeaf(target, cnt, pos, stored, vr)
	t.count.Add(1)
	right.lock.Unlock() // splitLeaf leaves the new sibling locked
	t.insertParent(n, splitKey, right, n.level+1)
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
	f.flush()
	t.heap.CrashPoint("ff.insert.commit")
}

// splitLeaf splits the full, locked leaf n. It returns the new right
// sibling still locked, plus the separator key. Steps follow FAIR: build
// sibling, link it (commit), publish the high key, truncate with one
// atomic nil store.
func (t *Tree) splitLeaf(n *node) (*node, uint64) {
	half := Cardinality / 2
	// Interrupted-split detection: if a crash hit between linking the
	// sibling and truncating this node, our upper half already lives in
	// the sibling (same record pointers). Complete that split instead of
	// creating a second sibling with duplicate keys.
	if s := n.sibling.Load(); s != nil && s.vals[0].Load() != nil && s.vals[0].Load() == n.vals[half].Load() {
		s.lock.Lock(&t.gen)
		splitKey := n.keys[half].Load()
		n.high.Store(splitKey)
		n.highSet.Store(true)
		t.heap.Dirty(n.pm, offHigh, 8)
		t.heap.PersistFence(n.pm, offHigh, 8)
		n.vals[half].Store(nil)
		t.heap.Dirty(n.pm, recOff(half)+8, 8)
		t.heap.PersistFence(n.pm, recOff(half)+8, 8)
		t.heap.CrashPoint("ff.split.completed")
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
	t.heap.Fence()
	t.heap.CrashPoint("ff.split.built")

	splitKey := n.keys[half].Load()
	n.sibling.Store(s)
	t.heap.Dirty(n.pm, offSibling, 8)
	t.heap.PersistFence(n.pm, offSibling, 8)
	t.heap.CrashPoint("ff.split.linked")

	n.high.Store(splitKey)
	n.highSet.Store(true)
	t.heap.Dirty(n.pm, offHigh, 8)
	t.heap.PersistFence(n.pm, offHigh, 8)

	n.vals[half].Store(nil) // truncation commit: one atomic store
	t.heap.Dirty(n.pm, recOff(half)+8, 8)
	t.heap.PersistFence(n.pm, recOff(half)+8, 8)
	t.heap.CrashPoint("ff.split.truncated")
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
		t.heap.Dirty(n.pm, offHigh, 8)
		t.heap.PersistFence(n.pm, offHigh, 8)
		n.kids[half].Store(nil)
		t.heap.Dirty(n.pm, recOff(half)+8, 8)
		t.heap.PersistFence(n.pm, recOff(half)+8, 8)
		t.heap.CrashPoint("ff.isplit.completed")
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
	t.heap.Fence()
	t.heap.CrashPoint("ff.isplit.built")

	n.sibling.Store(s)
	t.heap.Dirty(n.pm, offSibling, 8)
	t.heap.PersistFence(n.pm, offSibling, 8)
	t.heap.CrashPoint("ff.isplit.linked")

	n.high.Store(splitKey)
	n.highSet.Store(true)
	t.heap.Dirty(n.pm, offHigh, 8)
	t.heap.PersistFence(n.pm, offHigh, 8)

	n.kids[half].Store(nil) // truncation commit
	t.heap.Dirty(n.pm, recOff(half)+8, 8)
	t.heap.PersistFence(n.pm, recOff(half)+8, 8)
	t.heap.CrashPoint("ff.isplit.truncated")
	return s, splitKey
}

// insertParent installs (splitKey -> right) into the parent level after
// left split. left must still be reachable at level-1.
func (t *Tree) insertParent(left *node, splitKey uint64, right *node, level int) {
	keyB := t.appendKeyBytes(nil, splitKey)
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
			t.heap.Fence()
			t.heap.CrashPoint("ff.rootsplit.built")
			t.root.Store(nr)
			t.heap.Dirty(t.rootPM, 0, 8)
			t.heap.PersistFence(t.rootPM, 0, 8)
			t.heap.CrashPoint("ff.rootsplit.commit")
			t.rootMu.Unlock()
			return
		}
		// Descend to the internal node at this level covering splitKey.
		n := root
		for n.level > level {
			n = t.childFor(n, keyB)
		}
		n.lock.Lock(&t.gen)
		for n.highSet.Load() && t.cmpProbe(keyB, n.high.Load()) >= 0 {
			s := n.sibling.Load()
			n.lock.Unlock()
			s.lock.Lock(&t.gen)
			n = s
		}
		cnt := n.countRecords()
		pos := cnt
		for i := 0; i < cnt; i++ {
			if t.cmpProbe(keyB, n.keys[i].Load()) < 0 {
				pos = i
				break
			}
		}
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
		cnt = target.countRecords()
		pos = cnt
		for i := 0; i < cnt; i++ {
			if t.cmpProbe(keyB, target.keys[i].Load()) < 0 {
				pos = i
				break
			}
		}
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
	f.flush()
	t.heap.CrashPoint("ff.iinsert.commit")
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
	cnt := n.countRecords()
	pos := -1
	for i := 0; i < cnt; i++ {
		c := t.cmpProbe(key, n.keys[i].Load())
		if c == 0 {
			pos = i
			break
		}
		if c < 0 {
			return false, nil
		}
	}
	if pos < 0 {
		return false, nil
	}
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
	f.flush()
	t.heap.CrashPoint("ff.delete.commit")
	t.count.Add(-1)
	return true, nil
}
