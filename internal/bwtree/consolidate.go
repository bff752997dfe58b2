package bwtree

import "sort"

// flattenLeaf replays a leaf chain into sorted (keys, values) plus the
// effective high key and right sibling.
func (idx *Index) flattenLeaf(head *record) (ks [][]byte, vs []uint64, high []byte, next uint64) {
	type override struct {
		del bool
		val uint64
	}
	ovr := make(map[string]override)
	var order [][]byte
	r := head
	for {
		idx.loadTouch(r, false)
		switch r.kind {
		case kDeltaInsert:
			if _, seen := ovr[string(r.key)]; !seen {
				ovr[string(r.key)] = override{val: r.val}
				order = append(order, r.key)
			}
			r = r.next
		case kDeltaDelete:
			if _, seen := ovr[string(r.key)]; !seen {
				ovr[string(r.key)] = override{del: true}
			}
			r = r.next
		case kDeltaSplit:
			// The newest split delta defines the truncation; older ones
			// cover wider ranges and are subsumed.
			if high == nil || keyLess(r.key, high) {
				high = r.key
				next = r.right
			}
			r = r.next
		case kDeltaIndex:
			r = r.next
		case kBaseLeaf:
			if high == nil {
				high = r.high
				next = r.next2
			}
			for i, k := range r.keys {
				if geqHigh(k, high) {
					continue
				}
				if o, seen := ovr[string(k)]; seen {
					if !o.del {
						ks = append(ks, k)
						vs = append(vs, o.val)
					}
					delete(ovr, string(k))
					continue
				}
				ks = append(ks, k)
				vs = append(vs, r.vals[i])
			}
			// Remaining overrides are fresh inserts.
			for _, k := range order {
				o, seen := ovr[string(k)]
				if !seen || o.del || geqHigh(k, high) {
					continue
				}
				ks = append(ks, k)
				vs = append(vs, o.val)
			}
			sortPairs(ks, vs)
			return ks, vs, high, next
		default:
			return ks, vs, high, next
		}
	}
}

// flattenInner replays an inner chain into sorted separators and child
// PIDs (len(pids) == len(keys)+1) plus high key and right sibling.
func (idx *Index) flattenInner(head *record) (ks [][]byte, pids []uint64, high []byte, next uint64) {
	type idxEntry struct {
		sep   []byte
		child uint64
	}
	var extra []idxEntry
	r := head
	for {
		idx.loadTouch(r, false)
		switch r.kind {
		case kDeltaIndex:
			dup := false
			for _, e := range extra {
				if keyEqual(e.sep, r.key) {
					dup = true
					break
				}
			}
			if !dup {
				extra = append(extra, idxEntry{r.key, r.right})
			}
			r = r.next
		case kDeltaSplit:
			if high == nil || keyLess(r.key, high) {
				high = r.key
				next = r.right
			}
			r = r.next
		case kDeltaInsert, kDeltaDelete:
			r = r.next
		case kBaseInner:
			if high == nil {
				high = r.high
				next = r.next2
			}
			ks = append(ks, r.keys...)
			pids = append(pids, r.pids...)
			// Merge index deltas (insert separator + child).
			for _, e := range extra {
				exists := false
				for _, k := range ks {
					if keyEqual(k, e.sep) {
						exists = true
						break
					}
				}
				if exists {
					continue
				}
				j := sort.Search(len(ks), func(i int) bool { return keyLess(e.sep, ks[i]) })
				ks = append(ks, nil)
				copy(ks[j+1:], ks[j:])
				ks[j] = e.sep
				pids = append(pids, 0)
				copy(pids[j+2:], pids[j+1:])
				pids[j+1] = e.child
			}
			// Apply truncation.
			if high != nil {
				cut := sort.Search(len(ks), func(i int) bool { return keyLeq(high, ks[i]) })
				ks = ks[:cut]
				pids = pids[:cut+1]
			}
			return ks, pids, high, next
		default:
			return ks, pids, high, next
		}
	}
}

func sortPairs(ks [][]byte, vs []uint64) {
	sort.Sort(&pairSorter{ks, vs})
}

type pairSorter struct {
	ks [][]byte
	vs []uint64
}

func (p *pairSorter) Len() int           { return len(p.ks) }
func (p *pairSorter) Less(i, j int) bool { return keyLess(p.ks[i], p.ks[j]) }
func (p *pairSorter) Swap(i, j int) {
	p.ks[i], p.ks[j] = p.ks[j], p.ks[i]
	p.vs[i], p.vs[j] = p.vs[j], p.vs[i]
}

// consolidate replaces pid's delta chain with a fresh base node,
// splitting it first when oversized. The replacement commits with one
// CAS; failures mean a racing writer modified the chain, and the
// consolidation is simply abandoned (it will be retried later).
func (idx *Index) consolidate(pid, parent uint64) {
	head := idx.head(pid)
	// Make sure any pending split is known to the parent before the
	// split delta is folded away.
	for r := head; r != nil; r = r.next {
		if r.kind == kDeltaSplit {
			idx.completeSplit(pid, r, parent)
			break
		}
		if r.kind == kBaseLeaf || r.kind == kBaseInner {
			break
		}
	}
	leaf := false
	for r := head; r != nil; r = r.next {
		if r.kind == kBaseLeaf {
			leaf = true
			break
		}
		if r.kind == kBaseInner {
			break
		}
	}
	if leaf {
		ks, vs, high, next := idx.flattenLeaf(head)
		if len(ks) > MaxLeafEntries {
			idx.splitLeaf(pid, parent, head, ks, vs, high, next)
			return
		}
		nb := &record{kind: kBaseLeaf, keys: ks, vals: vs, high: high, next2: next}
		idx.persistBase(nb, "")
		idx.casHead(pid, head, nb, "bw.consolidate.leaf")
		return
	}
	ks, pids, high, next := idx.flattenInner(head)
	if len(ks) > MaxInnerEntries {
		idx.splitInner(pid, parent, head, ks, pids, high, next)
		return
	}
	nb := &record{kind: kBaseInner, keys: ks, pids: pids, high: high, next2: next}
	idx.persistBase(nb, "")
	idx.casHead(pid, head, nb, "bw.consolidate.inner")
}

// splitLeaf performs the B-link split of an oversized leaf: install the
// right sibling under a fresh PID, then publish a split delta on the
// left. The parent index entry is posted by completeSplit — by this
// writer normally, or by whichever writer next walks past the split if a
// crash intervenes (Condition #2).
func (idx *Index) splitLeaf(pid, parent uint64, head *record, ks [][]byte, vs []uint64, high []byte, next uint64) {
	mid := len(ks) / 2
	sep := ks[mid]
	right := &record{kind: kBaseLeaf, keys: append([][]byte(nil), ks[mid:]...), vals: append([]uint64(nil), vs[mid:]...), high: high, next2: next}
	rpid := idx.install(right, "bw.split.sibling")

	if pid == idx.rootPID && parent == 0 {
		idx.rootSplit(pid, head, sep, ks[:mid], vs[:mid], nil, rpid, true)
		return
	}
	split := idx.newDelta(kDeltaSplit, sep, 0, rpid, head)
	if idx.casHead(pid, head, split, "bw.split.delta") {
		idx.completeSplit(pid, split, parent)
	}
}

// splitInner is the inner-node analogue of splitLeaf. The separator moves
// up: the right sibling takes keys after mid, with pids[mid+1] as its
// leftmost child.
func (idx *Index) splitInner(pid, parent uint64, head *record, ks [][]byte, pids []uint64, high []byte, next uint64) {
	mid := len(ks) / 2
	sep := ks[mid]
	right := &record{kind: kBaseInner, keys: append([][]byte(nil), ks[mid+1:]...), pids: append([]uint64(nil), pids[mid+1:]...), high: high, next2: next}
	rpid := idx.install(right, "bw.isplit.sibling")

	if pid == idx.rootPID && parent == 0 {
		idx.rootSplit(pid, head, sep, ks[:mid], nil, pids[:mid+1], rpid, false)
		return
	}
	split := idx.newDelta(kDeltaSplit, sep, 0, rpid, head)
	if idx.casHead(pid, head, split, "bw.isplit.delta") {
		idx.completeSplit(pid, split, parent)
	}
}

// rootSplit grows the tree: the root PID must stay the root, so the left
// half moves to a fresh PID and a new inner base with two children is
// installed at the root PID with a single CAS — atomic, hence
// crash-consistent without help.
func (idx *Index) rootSplit(pid uint64, head *record, sep []byte, lks [][]byte, lvs []uint64, lpids []uint64, rpid uint64, leaf bool) {
	var left *record
	if leaf {
		left = &record{kind: kBaseLeaf, keys: append([][]byte(nil), lks...), vals: append([]uint64(nil), lvs...), high: sep, next2: rpid}
	} else {
		left = &record{kind: kBaseInner, keys: append([][]byte(nil), lks...), pids: append([]uint64(nil), lpids...), high: sep, next2: rpid}
	}
	lpid := idx.install(left, "")
	newRoot := &record{kind: kBaseInner, keys: [][]byte{sep}, pids: []uint64{lpid, rpid}}
	idx.persistBase(newRoot, "bw.rootsplit.built")
	idx.casHead(pid, head, newRoot, "bw.rootsplit.commit")
}
