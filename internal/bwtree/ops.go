package bwtree

import (
	"sort"

	"repro/internal/crash"
)

// findLeaf descends to the leaf logical node covering key and returns its
// PID, the chain head observed, and the parent PID. When help is true
// (writers), unfinished splits encountered on the way are completed first
// — the Bw-Tree helping mechanism that doubles as RECIPE's crash
// recovery (§6.3).
func (idx *Index) findLeaf(key []byte, help bool) (pid uint64, head *record, parent uint64) {
	pid = idx.rootPID
	parent = 0
node:
	for {
		head = idx.head(pid)
		// Writers consolidate oversized chains before operating.
		if help && head.depth >= DeltaChainThreshold {
			idx.consolidate(pid, parent)
			head = idx.head(pid)
		}
		r := head
		var bestSep []byte
		var bestChild uint64
		haveDelta := false
		for {
			idx.loadTouch(r, false)
			switch r.kind {
			case kDeltaSplit:
				if help {
					idx.completeSplit(pid, r, parent)
				}
				if keyLeq(r.key, key) {
					// key >= separator: the right sibling owns it.
					pid = r.right
					continue node
				}
				r = r.next
			case kDeltaIndex:
				if keyLeq(r.key, key) && (bestSep == nil || keyLess(bestSep, r.key)) {
					bestSep, bestChild, haveDelta = r.key, r.right, true
				}
				r = r.next
			case kDeltaInsert, kDeltaDelete:
				r = r.next
			case kBaseLeaf:
				if geqHigh(key, r.high) {
					pid = r.next2
					continue node
				}
				return pid, head, parent
			case kBaseInner:
				if geqHigh(key, r.high) {
					pid = r.next2
					continue node
				}
				// Route via the base, then let a fresher index delta win.
				j := sort.Search(len(r.keys), func(i int) bool { return keyLess(key, r.keys[i]) })
				child := r.pids[j]
				if haveDelta && (j == 0 || keyLeq(r.keys[j-1], bestSep)) {
					child = bestChild
				}
				parent = pid
				pid = child
				continue node
			}
		}
	}
}

// completeSplit finishes an in-flight or crash-torn split: it posts the
// index-entry delta for (split.key -> split.right) to the parent if the
// parent does not know about it yet. Idempotent; CAS failures mean
// another helper won the race.
func (idx *Index) completeSplit(pid uint64, split *record, parent uint64) {
	if parent == 0 {
		return // root splits are installed atomically, never torn
	}
	phead := idx.head(parent)
	r := phead
	for {
		idx.loadTouch(r, true)
		switch r.kind {
		case kDeltaIndex:
			if keyEqual(r.key, split.key) {
				return // already posted
			}
			r = r.next
		case kDeltaSplit, kDeltaInsert, kDeltaDelete:
			r = r.next
		case kBaseInner:
			for _, k := range r.keys {
				if keyEqual(k, split.key) {
					return // consolidated in
				}
			}
			d := idx.newDelta(kDeltaIndex, split.key, 0, split.right, phead)
			if idx.casHead(parent, phead, d) {
				idx.heap.CrashPoint("bw.smo.parent")
			}
			return
		case kBaseLeaf:
			return // raced with a root change; a later writer re-helps
		}
	}
}

// chainLookup resolves key within one logical node's chain.
func (idx *Index) chainLookup(head *record, key []byte) (uint64, bool) {
	r := head
	for {
		idx.loadTouch(r, false)
		switch r.kind {
		case kDeltaInsert:
			if keyEqual(r.key, key) {
				return r.val, true
			}
			r = r.next
		case kDeltaDelete:
			if keyEqual(r.key, key) {
				return 0, false
			}
			r = r.next
		case kDeltaSplit, kDeltaIndex:
			r = r.next
		case kBaseLeaf:
			i := sort.Search(len(r.keys), func(i int) bool { return keyLeq(key, r.keys[i]) })
			if i < len(r.keys) && keyEqual(r.keys[i], key) {
				return r.vals[i], true
			}
			return 0, false
		default:
			return 0, false
		}
	}
}

// Lookup returns the value stored under key. Reads are non-blocking and
// never retry: split deltas route them B-link style and delta chains are
// immutable snapshots.
func (idx *Index) Lookup(key []byte) (uint64, bool) {
	if len(key) == 0 {
		return 0, false
	}
	_, head, _ := idx.findLeaf(key, false)
	return idx.chainLookup(head, key)
}

// Insert stores value under key (overwriting an existing binding) by
// prepending an insert delta and publishing it with one CAS. A failed CAS
// aborts and restarts from the root, as in the original.
func (idx *Index) Insert(key []byte, value uint64) (err error) {
	if len(key) == 0 {
		return ErrEmptyKey
	}
	defer crash.Catch(&err)
	for {
		pid, head, _ := idx.findLeaf(key, true)
		_, existed := idx.chainLookup(head, key)
		d := idx.newDelta(kDeltaInsert, key, value, 0, head)
		if idx.casHead(pid, head, d) {
			idx.heap.CrashPoint("bw.insert.commit")
			if !existed {
				idx.count.Add(1)
			}
			return nil
		}
	}
}

// Update overwrites the value under key: Insert's upsert
// (core.PointIndex.Update).
func (idx *Index) Update(key []byte, value uint64) error { return idx.Insert(key, value) }

// Delete removes key by posting a delete delta.
func (idx *Index) Delete(key []byte) (deleted bool, err error) {
	if len(key) == 0 {
		return false, ErrEmptyKey
	}
	defer crash.Catch(&err)
	for {
		pid, head, _ := idx.findLeaf(key, true)
		if _, ok := idx.chainLookup(head, key); !ok {
			return false, nil
		}
		d := idx.newDelta(kDeltaDelete, key, 0, 0, head)
		if idx.casHead(pid, head, d) {
			idx.heap.CrashPoint("bw.delete.commit")
			idx.count.Add(-1)
			return true, nil
		}
	}
}
