package art

import "bytes"

// Lookup returns the value stored under key. Lookups are non-blocking and
// never retry: a reader that observes an inconsistent compressed prefix
// (depth + prefixLen != level, the signature of an in-flight or crashed
// path-compression split) tolerates it by skipping the prefix — the level
// field records how many bytes the prefix must cover — and verifying the
// full key at the leaf (§6.4).
func (idx *Index) Lookup(key []byte) (uint64, bool) {
	n := idx.root.Load()
	depth := 0
	for n != nil {
		idx.trackRead(n)
		if n.kind == kLeaf {
			l := n.leaf()
			if bytes.Equal(l.key(), key) {
				return l.value.Load(), true
			}
			return 0, false
		}
		plen, pb := n.prefixSnapshot()
		expected := int(n.level) - depth
		if expected < 0 {
			return 0, false
		}
		if plen == expected {
			// Consistent prefix: check the stored bytes; bytes beyond the
			// seven stored inline are verified at the leaf (hybrid path
			// compression).
			m := plen
			if m > maxStoredPrefix {
				m = maxStoredPrefix
			}
			if depth+m > len(key) {
				return 0, false
			}
			for i := 0; i < m; i++ {
				if pb[i] != key[depth+i] {
					return 0, false
				}
			}
		}
		// plen != expected: tolerate the inconsistency, as the converted
		// read path does, by ignoring the stale prefix entirely.
		depth = int(n.level)
		if depth >= len(key) {
			return 0, false
		}
		n = n.child(key[depth])
		depth++
	}
	return 0, false
}

// trackRead charges the LLC model for the lines a descent step touches.
func (idx *Index) trackRead(n *header) {
	switch n.kind {
	case kLeaf:
		idx.heap.Load(n.pm, 0, uintptr(leafHdrBytes)+uintptr(n.leaf().klen))
	case kNode4, kNode16: // the keys and the first eight children at most
		s := n.small()
		idx.heap.Load(n.pm, 0, s.childOff(min(len(s.children), 8)))
	case kNode48:
		idx.heap.Load(n.pm, 0, hdrBytes)
		idx.heap.Load(n.pm, n48IdxOff, 64)
		idx.heap.Load(n.pm, n48ChildOff, 8)
	case kNode256:
		idx.heap.Load(n.pm, 0, hdrBytes)
		idx.heap.Load(n.pm, n256ChOff, 8)
	}
}

// Scan visits keys >= start in ascending order, calling fn for each until
// fn returns false or count keys have been visited (count <= 0 means
// unbounded). It returns the number of keys visited. Scan is a loop over
// an Iterator and shares its semantics: non-blocking, stale prefixes
// tolerated, no snapshot.
//
// Tries keep no sibling pointers between leaves, so range scans pay a
// tree walk — the structural reason P-ART trails B+ trees on YCSB E
// (§7.1), which this implementation reproduces.
func (idx *Index) Scan(start []byte, count int, fn func(key []byte, value uint64) bool) int {
	it := Iterator{idx: idx} // lives in this frame: a scan allocates nothing
	it.Seek(start)
	n := 0
	for k, v, ok := it.Next(); ok && fn(k, v); k, v, ok = it.Next() {
		if n++; n == count {
			break
		}
	}
	return n
}
