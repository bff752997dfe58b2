package art

import (
	"bytes"
	"sync/atomic"

	"repro/internal/crash"
	"repro/internal/pmem"
	"repro/internal/pmlock"
)

// Insert stores value under key, overwriting the value if key exists.
// Writers are verified: unlike lookups they never descend optimistically
// through an inconsistent prefix; they detect it, distinguish transient
// from permanent with a try-lock, repair permanent damage with the RECIPE
// helper mechanism, and restart (§6.4) — at most maxRestarts times in a
// row (ErrStalled).
func (idx *Index) Insert(key []byte, value uint64) (err error) {
	if len(key) == 0 {
		return ErrEmptyKey
	}
	if len(key) > maxKeyLen {
		return ErrKeyTooLong
	}
	defer crash.Catch(&err)
	for i := 0; i < maxRestarts; i++ {
		if done, err := idx.tryInsert(key, value); done || err != nil {
			return err
		}
	}
	return ErrStalled
}

// Update overwrites the value under key: Insert's upsert
// (core.PointIndex.Update).
func (idx *Index) Update(key []byte, value uint64) error { return idx.Insert(key, value) }

// tryInsert performs one traversal attempt. It returns done=false to
// request a restart from the root (lost race or repaired inconsistency).
func (idx *Index) tryInsert(key []byte, value uint64) (done bool, err error) {
	n := idx.root.Load()
	if n == nil {
		idx.rootMu.Lock(&idx.gen)
		if idx.root.Load() != nil {
			idx.rootMu.Unlock()
			return false, nil
		}
		l := idx.newLeaf(key, value)
		// RECIPE: persist the leaf before publishing it.
		idx.persistAll(l.hdr())
		idx.heap.FenceAt("art.insert.rootleaf.init")
		idx.setChildPersist(nil, 0, l.hdr(), "art.insert.rootleaf.commit")
		idx.count.Add(1)
		idx.rootMu.Unlock()
		return true, nil
	}
	var parent *header
	var pslot byte
	depth := 0
	for {
		if n.kind == kLeaf {
			return idx.insertAtLeaf(parent, pslot, n.leaf(), depth, key, value)
		}
		pword := n.prefix.Load()
		plen, pb := unpackPrefix(pword)
		expected := int(n.level) - depth
		if plen != expected {
			// RECIPE: a writer distinguishes a transient inconsistency
			// (a concurrent split between its two steps) from a permanent
			// one (a crash) by acquiring the node lock with try-lock; on
			// success nothing can be in flight, so the helper repairs the
			// prefix from a leaf below and persists it.
			if n.lock.TryLock(&idx.gen) {
				if !n.lock.Obsolete() {
					if p2, _ := n.prefixSnapshot(); int(p2) != expected && expected >= 0 {
						idx.fixPrefix(n, depth)
					}
				}
				n.lock.Unlock()
			}
			return false, nil
		}
		// Verified byte comparison: writers reconstruct prefixes longer
		// than the stored seven bytes from a leaf (hybrid compression).
		cmpLen := plen
		if rem := len(key) - depth; cmpLen > rem {
			cmpLen = rem
		}
		mismatch := -1
		m := cmpLen
		if m > maxStoredPrefix {
			m = maxStoredPrefix
		}
		for i := 0; i < m; i++ {
			if pb[i] != key[depth+i] {
				mismatch = i
				break
			}
		}
		if mismatch < 0 && cmpLen > maxStoredPrefix {
			full := idx.fullPrefix(n, depth)
			if full == nil {
				return idx.replaceEmptied(parent, pslot, n, key, value)
			}
			for i := maxStoredPrefix; i < cmpLen; i++ {
				if full[i] != key[depth+i] {
					mismatch = i
					break
				}
			}
		}
		if mismatch < 0 && cmpLen < plen {
			return false, ErrPrefixKey // key exhausted inside the prefix
		}
		if mismatch >= 0 {
			return idx.splitPrefix(parent, pslot, n, depth, mismatch, key, value)
		}
		depth = int(n.level)
		if depth >= len(key) {
			return false, ErrPrefixKey
		}
		b := key[depth]
		next := n.child(b)
		if next == nil {
			return idx.insertIntoNode(parent, pslot, n, pword, b, key, value)
		}
		parent, pslot = n, b
		n = next
		depth++
	}
}

// insertAtLeaf handles reaching an existing leaf: update in place when the
// keys match, otherwise split the edge with a new node4 holding both
// leaves (copy-on-write committed by one pointer swap — Condition #1).
func (idx *Index) insertAtLeaf(parent *header, pslot byte, lf *leaf, depth int, key []byte, value uint64) (bool, error) {
	lk := lf.key()
	if bytes.Equal(lk, key) {
		// In-place update: a single atomic 8-byte store is the commit.
		lf.value.Store(value)
		// RECIPE: flush + fence after the committing store.
		idx.heap.Commit(lf.pm, leafValOff, 8, "art.update.commit")
		return true, nil
	}
	slot := idx.lockSlot(parent, pslot, lf.hdr())
	if slot == nil {
		return false, nil
	}
	// Recheck equality under the lock (the slot could have been replaced
	// before we locked, in which case lockSlot already failed).
	cp := 0
	maxCp := len(key) - depth
	if l := len(lk) - depth; l < maxCp {
		maxCp = l
	}
	for cp < maxCp && key[depth+cp] == lk[depth+cp] {
		cp++
	}
	if depth+cp == len(key) || depth+cp == len(lk) {
		slot.Unlock()
		return false, ErrPrefixKey
	}
	nl := idx.newLeaf(key, value)
	nn := idx.buildNode(kNode4, uint32(depth+cp), key[depth:depth+cp],
		[]entry{{lk[depth+cp], lf.hdr()}, {key[depth+cp], nl.hdr()}})
	// RECIPE: persist the new leaf and node before publishing them,
	idx.persistAll(nl.hdr())
	idx.persistAll(nn)
	// RECIPE: with one fence for both.
	idx.heap.FenceAt("art.leafsplit.init")
	idx.setChildPersist(parent, pslot, nn, "art.leafsplit.commit")
	idx.count.Add(1)
	slot.Unlock()
	return true, nil
}

// insertIntoNode adds a leaf for branch byte b to node n (which writers
// verified has no child at b). Appends commit via a single atomic store:
// the count increment (node4/16), the index byte (node48), or the child
// pointer itself (node256, and a reused slot). When n is full it grows by
// copy-on-write into the next node kind, committed by one pointer swap.
// Every path takes two fences: one after everything the commit store
// will expose has been written back, one after the commit.
//
// prefixSeen is the prefix word the caller verified during its descent; a
// change means a concurrent split or repair invalidated the verification,
// so the insert restarts.
func (idx *Index) insertIntoNode(parent *header, pslot byte, n *header, prefixSeen uint64, b byte, key []byte, value uint64) (bool, error) {
	n.lock.Lock(&idx.gen)
	if n.lock.Obsolete() {
		n.lock.Unlock()
		return false, nil
	}
	// Recheck under the lock: the prefix may have been split or the slot
	// filled while we were acquiring it.
	if n.prefix.Load() != prefixSeen || n.child(b) != nil {
		n.lock.Unlock()
		return false, nil
	}
	nl := idx.newLeaf(key, value)
	// RECIPE: write the leaf back before publishing it; the fence that
	// orders it is the first one of whichever commit follows.
	idx.persistAll(nl.hdr())

	// A Node4/16/48 slot whose child was deleted, its key byte or index
	// entry still b, is reused; a Node256 has a slot for every byte.
	if slot, off := n.slotFor(b); slot != nil {
		site := "art.insert.slotreuse"
		if n.kind == kNode256 {
			site = "art.insert.commit"
		}
		idx.commitChild(n, slot, off, nl, site)
		return true, nil
	}
	cnt := int(n.count.Load())
	switch n.kind {
	case kNode4, kNode16:
		if s := n.small(); cnt < len(s.children) {
			off := s.childOff(cnt)
			s.setKey(cnt, b)
			s.children[cnt].Store(nl.hdr())
			idx.heap.Dirty(n.pm, hdrBytes, 16)
			idx.heap.Dirty(n.pm, off, 8)
			// RECIPE: the slot is invisible until the count store, so one
			// fence orders the leaf and the slot together. The key byte
			// (and a Node4's or low Node16 slot's child) shares line 0
			// with the count, and a line persists its stores in program
			// order: only a child slot past line 0 needs its own
			// write-back.
			if off >= pmem.LineSize {
				idx.heap.Persist(n.pm, off, 8)
			}
			// RECIPE: the fence that orders the leaf and the slot.
			idx.heap.FenceAt("art.insert.appended")
			// RECIPE: commit with the atomic count store; line 0 is
			// written back once, with everything it holds.
			n.count.Store(uint32(cnt + 1))
			idx.heap.Commit(n.pm, 0, hdrBytes, "art.insert.commit")
			idx.count.Add(1)
			n.lock.Unlock()
			return true, nil
		}
	case kNode48:
		if cnt < 48 {
			nd := n.n48()
			nd.children[cnt].Store(nl.hdr())
			n.count.Store(uint32(cnt + 1))
			idx.heap.Dirty(n.pm, n48ChildOff+uintptr(cnt)*8, 8)
			idx.heap.Dirty(n.pm, 0, hdrBytes)
			// RECIPE: write the child slot and the count back with the
			// leaf, fence, then commit with the atomic index-byte store.
			// The count never trails a durable index byte: a crash before
			// the commit leaves an orphaned slot, which the next append
			// skips and a grow drops.
			idx.heap.Persist(n.pm, n48ChildOff+uintptr(cnt)*8, 8)
			idx.heap.Persist(n.pm, 0, hdrBytes)
			// RECIPE: one fence for the leaf, the slot and the count.
			idx.heap.FenceAt("art.insert.appended")
			nd.index.Set(int(b), byte(cnt+1))
			// RECIPE: flush + fence after the committing store.
			idx.heap.Commit(n.pm, n48IdxOff+uintptr(b), 1, "art.insert.commit")
			idx.count.Add(1)
			n.lock.Unlock()
			return true, nil
		}
	}

	// Node full: grow by copy-on-write into the next kind, carrying only
	// live entries (compaction reclaims slots freed by deletes).
	bigger := idx.growNode(n, b, nl.hdr())
	// RECIPE: persist the replacement before publishing it; one fence
	// orders it and the leaf.
	idx.persistAll(bigger)
	idx.heap.FenceAt("art.grow.built")
	slot := idx.lockSlot(parent, pslot, n)
	if slot == nil {
		n.lock.Unlock()
		return false, nil
	}
	idx.setChildPersist(parent, pslot, bigger, "art.grow.commit")
	n.lock.MarkObsolete()
	idx.count.Add(1)
	slot.Unlock()
	n.lock.Unlock()
	return true, nil
}

// commitChild publishes leaf nl, written back but not yet fenced, with
// the one store that is the commit: the child pointer into slot, at
// persistent offset off of n. Then it unlocks n. The leaf has no later
// store to share a fence with, so it takes its own.
func (idx *Index) commitChild(n *header, slot *atomic.Pointer[header], off uintptr, nl *leaf, site string) {
	// RECIPE: fence the leaf's write-back before publishing it.
	idx.heap.FenceAt("art.insert.leafready")
	idx.storeChild(n.pm, slot, off, nl.hdr(), site)
	idx.count.Add(1)
	n.lock.Unlock()
}

// storeChild is every child-pointer commit — publishing a leaf or node,
// or deleting a leaf: it stores c into slot, at persistent offset off of
// pm, and makes the store durable before crash site site.
func (idx *Index) storeChild(pm pmem.Obj, slot *atomic.Pointer[header], off uintptr, c *header, site string) {
	slot.Store(c)
	// RECIPE: flush + fence after the committing store.
	idx.heap.Commit(pm, off, 8, site)
}

// growNode builds the next-size node containing n's live entries plus
// (b -> extra). When live occupancy leaves room (deletes freed slots) it
// rebuilds the same kind instead of growing.
func (idx *Index) growNode(n *header, b byte, extra *header) *header {
	var buf [256]entry
	es := n.entries(buf[:0:256])
	es = append(es, entry{b, extra})
	var k kind
	switch {
	case len(es) <= 4:
		k = kNode4
	case len(es) <= 16:
		k = kNode16
	case len(es) <= 48:
		k = kNode48
	default:
		k = kNode256
	}
	plen, _ := n.prefixSnapshot()
	var prefix []byte
	if plen > 0 {
		depth := int(n.level) - plen
		prefix = idx.fullPrefix(n, depth)
		if prefix == nil && extra.kind == kLeaf {
			// Every live entry was deleted; reconstruct the prefix from
			// the entry being inserted, which shares it by definition.
			prefix = extra.leaf().key()[depth:int(n.level)]
		}
	}
	return idx.buildNode(k, n.level, prefix, es)
}

// buildNode allocates an unpublished node of kind k holding entries es,
// which must fit it.
func (idx *Index) buildNode(k kind, level uint32, prefix []byte, es []entry) *header {
	nn := idx.allocNode(k, level, prefix)
	switch k {
	case kNode4, kNode16:
		s := nn.small()
		for i, e := range es {
			s.setKey(i, e.b)
			s.children[i].Store(e.c)
		}
	case kNode48:
		nd := nn.n48()
		for i, e := range es {
			nd.children[i].Store(e.c)
			nd.index.Set(int(e.b), byte(i+1))
		}
	case kNode256:
		nd := nn.n256()
		for _, e := range es {
			nd.children[e.b].Store(e.c)
		}
	}
	nn.count.Store(uint32(len(es)))
	return nn
}

// splitPrefix performs ART's SMO: the compressed prefix of n diverges from
// key at byte index mismatch, so a new node4 takes over the shared part.
// The two ordered atomic steps are (1) swap the parent's child pointer to
// the new node and (2) shorten n's prefix; a crash between them is the
// permanent inconsistency Condition #3 is about.
func (idx *Index) splitPrefix(parent *header, pslot byte, n *header, depth, mismatch int, key []byte, value uint64) (bool, error) {
	n.lock.Lock(&idx.gen)
	if n.lock.Obsolete() {
		n.lock.Unlock()
		return false, nil
	}
	// Recheck under the lock.
	plen, _ := n.prefixSnapshot()
	if plen != int(n.level)-depth {
		n.lock.Unlock()
		return false, nil
	}
	full := idx.fullPrefix(n, depth)
	if full == nil {
		n.lock.Unlock()
		return idx.replaceEmptied(parent, pslot, n, key, value)
	}
	if mismatch >= plen || len(key) <= depth+mismatch ||
		full[mismatch] == key[depth+mismatch] ||
		!bytes.Equal(full[:mismatch], key[depth:depth+mismatch]) {
		n.lock.Unlock()
		return false, nil
	}
	slot := idx.lockSlot(parent, pslot, n)
	if slot == nil {
		n.lock.Unlock()
		return false, nil
	}

	nl := idx.newLeaf(key, value)
	nn := idx.buildNode(kNode4, uint32(depth+mismatch), key[depth:depth+mismatch],
		[]entry{{full[mismatch], n}, {key[depth+mismatch], nl.hdr()}})
	// RECIPE: persist the new node and leaf before step 1,
	idx.persistAll(nl.hdr())
	idx.persistAll(nn)
	// RECIPE: with one fence for both.
	idx.heap.FenceAt("art.split.built")

	// Step 1: atomically install the new parent.
	idx.setChildPersist(parent, pslot, nn, "art.split.installed")

	// Step 2: shorten n's prefix. A crash exactly between the steps
	// leaves this store missing — the state the helper repairs.
	rest := full[mismatch+1:]
	n.prefix.Store(packPrefix(rest))
	// RECIPE: flush + fence after the prefix store.
	idx.heap.Commit(n.pm, offPrefix, 8, "art.split.prefixfixed")

	idx.count.Add(1)
	slot.Unlock()
	n.lock.Unlock()
	return true, nil
}

// fixPrefix is the RECIPE helper mechanism added to the write path: with
// n locked and known to carry a stale prefix, recompute the true prefix
// from any leaf below (every leaf under n shares bytes [depth, n.level))
// and persist it (§6.4: "the write calculates and persists the correct
// prefix").
func (idx *Index) fixPrefix(n *header, depth int) {
	lf := idx.minLeaf(n)
	truePlen := int(n.level) - depth
	if lf == nil || truePlen < 0 || int(lf.klen) < int(n.level) {
		return
	}
	n.prefix.Store(packPrefix(lf.key()[depth:int(n.level)]))
	// RECIPE: flush + fence after the repairing store.
	idx.heap.Commit(n.pm, offPrefix, 8, "art.fixprefix")
}

// replaceEmptied is the RECIPE helper for the one state deletes leave
// that no leaf describes: deletes never unlink inner nodes, so once every
// key below n is gone, a compressed prefix longer than the seven stored
// bytes has no leaf left to be read from, and no write can pass n. With
// n and every inner node below it locked and proven to hold no leaf, the
// empty subtree can stand for any prefix; the writer replaces it with
// its own leaf in one persisted store to the parent slot (Condition #1)
// and marks the subtree obsolete, so a writer that verified the old
// prefix before the last delete restarts instead of inserting below it.
// It restarts the caller when a lock is busy or a leaf has appeared.
func (idx *Index) replaceEmptied(parent *header, pslot byte, n *header, key []byte, value uint64) (bool, error) {
	held := []*header{n}
	n.lock.Lock(&idx.gen)
	var slot *pmlock.Mutex
	if !n.lock.Obsolete() && idx.lockEmptied(n, &held) {
		slot = idx.lockSlot(parent, pslot, n)
	}
	if slot == nil {
		for _, h := range held {
			h.lock.Unlock()
		}
		return false, nil
	}
	nl := idx.newLeaf(key, value)
	// RECIPE: persist the leaf before publishing it.
	idx.persistAll(nl.hdr())
	idx.heap.Fence()
	idx.setChildPersist(parent, pslot, nl.hdr(), "art.emptied.replaced")
	for _, h := range held {
		h.lock.MarkObsolete()
		h.lock.Unlock()
	}
	idx.count.Add(1)
	slot.Unlock()
	return true, nil
}

// lockEmptied try-locks every inner node below n, appending each to
// held, and reports whether the subtree holds no leaf. It stops at the
// first leaf, busy lock or obsolete node.
func (idx *Index) lockEmptied(n *header, held *[]*header) bool {
	var buf [256]entry
	for _, e := range n.entries(buf[:0:256]) {
		if e.c.kind == kLeaf || !e.c.lock.TryLock(&idx.gen) {
			return false
		}
		*held = append(*held, e.c)
		if e.c.lock.Obsolete() || !idx.lockEmptied(e.c, held) {
			return false
		}
	}
	return true
}

// Delete removes key, returning whether it was present. Deletion commits
// with a single atomic store that nils the leaf's child slot (§6.4);
// freed slots are reclaimed when the node next grows or compacts. Like
// Insert it gives up with ErrStalled after maxRestarts restarts in a row.
func (idx *Index) Delete(key []byte) (deleted bool, err error) {
	if len(key) == 0 {
		return false, ErrEmptyKey
	}
	defer crash.Catch(&err)
	for i := 0; i < maxRestarts; i++ {
		if del, done := idx.tryDelete(key); done {
			return del, nil
		}
	}
	return false, ErrStalled
}

func (idx *Index) tryDelete(key []byte) (deleted, done bool) {
	n := idx.root.Load()
	if n == nil {
		return false, true
	}
	if n.kind == kLeaf {
		idx.rootMu.Lock(&idx.gen)
		r := idx.root.Load()
		if r != n {
			idx.rootMu.Unlock()
			return false, false
		}
		if !bytes.Equal(n.leaf().key(), key) {
			idx.rootMu.Unlock()
			return false, true
		}
		idx.setChildPersist(nil, 0, nil, "art.delete.root")
		idx.count.Add(-1)
		idx.rootMu.Unlock()
		return true, true
	}
	depth := 0
	for {
		plen, pb := n.prefixSnapshot()
		expected := int(n.level) - depth
		if plen != expected {
			if n.lock.TryLock(&idx.gen) {
				if !n.lock.Obsolete() && expected >= 0 {
					if p2, _ := n.prefixSnapshot(); int(p2) != expected {
						idx.fixPrefix(n, depth)
					}
				}
				n.lock.Unlock()
			}
			return false, false
		}
		m := plen
		if m > maxStoredPrefix {
			m = maxStoredPrefix
		}
		if depth+m > len(key) {
			return false, true
		}
		for i := 0; i < m; i++ {
			if pb[i] != key[depth+i] {
				return false, true
			}
		}
		if plen > maxStoredPrefix {
			full := idx.fullPrefix(n, depth)
			if full == nil {
				return false, true // no leaf below n: key is absent
			}
			if len(key)-depth < plen || !bytes.Equal(full[maxStoredPrefix:], key[depth+maxStoredPrefix:depth+plen]) {
				return false, true
			}
		}
		depth = int(n.level)
		if depth >= len(key) {
			return false, true
		}
		b := key[depth]
		next := n.child(b)
		if next == nil {
			return false, true
		}
		if next.kind == kLeaf {
			if !bytes.Equal(next.leaf().key(), key) {
				return false, true
			}
			n.lock.Lock(&idx.gen)
			if n.lock.Obsolete() || n.child(b) != next {
				n.lock.Unlock()
				return false, false
			}
			idx.setChildPersist(n, b, nil, "art.delete.commit")
			idx.count.Add(-1)
			n.lock.Unlock()
			return true, true
		}
		n = next
		depth++
	}
}

// lockSlot locks whatever owns the slot pointing at want: the rootMu when
// parent is nil, otherwise the parent node. It verifies the slot still
// points at want (and the parent is not obsolete) and returns the mutex
// the caller must unlock, or nil with everything unlocked so the caller
// restarts.
func (idx *Index) lockSlot(parent *header, pslot byte, want *header) *pmlock.Mutex {
	if parent == nil {
		idx.rootMu.Lock(&idx.gen)
		if idx.root.Load() != want {
			idx.rootMu.Unlock()
			return nil
		}
		return &idx.rootMu
	}
	parent.lock.Lock(&idx.gen)
	if parent.lock.Obsolete() || parent.child(pslot) != want {
		parent.lock.Unlock()
		return nil
	}
	return &parent.lock
}

// setChildPersist commits nn into the slot for byte pslot of parent (the
// root pointer when parent is nil), which the caller holds locked and
// has checked exists, before crash site site.
func (idx *Index) setChildPersist(parent *header, pslot byte, nn *header, site string) {
	if parent == nil {
		idx.storeChild(idx.rootPM, &idx.root, 0, nn, site)
		return
	}
	slot, off := parent.slotFor(pslot)
	idx.storeChild(parent.pm, slot, off, nn, site)
}

// minLeaf returns the smallest live leaf at or below n, used to
// reconstruct compressed prefixes. It backs out of subtrees that deletes
// emptied (nodes are never unlinked) and returns nil only when no leaf is
// left below n.
func (idx *Index) minLeaf(n *header) *leaf {
	if n == nil {
		return nil
	}
	if n.kind == kLeaf {
		return n.leaf()
	}
	f := newFrame(n, false)
	for _, c := f.step(0); c != nil; _, c = f.step(0) {
		if l := idx.minLeaf(c); l != nil {
			return l
		}
	}
	return nil
}

// fullPrefix reconstructs n's complete compressed prefix (bytes
// [depth, n.level) shared by every key below n) from a leaf.
func (idx *Index) fullPrefix(n *header, depth int) []byte {
	lf := idx.minLeaf(n)
	if lf == nil || int(lf.klen) < int(n.level) || depth > int(n.level) {
		return nil
	}
	return lf.key()[depth:int(n.level)]
}
