package art

import (
	"bytes"
	"errors"
	"sync"
	"testing"
)

// TestKeyTooLongRejected: a compressed prefix's length is stored in one
// byte, so Insert refuses keys over maxKeyLen with a typed error instead
// of reaching packPrefix's panic (a 301-byte key sharing 300 bytes with
// another did); the tree is unchanged and reads of such a key just miss.
func TestKeyTooLongRejected(t *testing.T) {
	idx := newIdx()
	mustInsert(t, idx, bytes.Repeat([]byte{'a'}, maxKeyLen), 1)
	for _, n := range []int{maxKeyLen + 1, 301, 65_000} {
		long := bytes.Repeat([]byte{'a'}, n)
		for c := byte('0'); c < '0'+12; c++ { // siblings sharing n-1 bytes
			long[n-1] = c
			if err := idx.Insert(long, 2); !errors.Is(err, ErrKeyTooLong) {
				t.Fatalf("Insert of a %d-byte key = %v, want ErrKeyTooLong", n, err)
			}
			if err := idx.Update(long, 2); !errors.Is(err, ErrKeyTooLong) {
				t.Fatalf("Update of a %d-byte key = %v, want ErrKeyTooLong", n, err)
			}
		}
		if _, ok := idx.Lookup(long); ok {
			t.Fatalf("Lookup found a %d-byte key", n)
		}
		if ok, err := idx.Delete(long); ok || err != nil {
			t.Fatalf("Delete of a %d-byte key = %v, %v", n, ok, err)
		}
		if got := idx.Scan(long, 0, func([]byte, uint64) bool { return true }); got != 0 {
			t.Fatalf("Scan from a %d-byte key visited %d keys", n, got)
		}
	}
	if idx.Len() != 1 {
		t.Fatalf("Len = %d after rejected inserts, want 1", idx.Len())
	}
}

// TestLongestKeysSharePrefix: keys of exactly maxKeyLen bytes sharing all
// but the last byte build the longest prefix there can be — 255 bytes,
// which still packs — and insert, look up and scan like any others.
func TestLongestKeysSharePrefix(t *testing.T) {
	idx := newIdx()
	key := bytes.Repeat([]byte{'k'}, maxKeyLen)
	for c := 0; c < 12; c++ {
		key[maxKeyLen-1] = byte(c)
		mustInsert(t, idx, key, uint64(c))
	}
	var s shape
	s.walk(idx.root.Load(), 0)
	if s.maxPrefix != maxKeyLen-1 {
		t.Fatalf("longest compressed prefix %d, want %d", s.maxPrefix, maxKeyLen-1)
	}
	for c := 0; c < 12; c++ {
		key[maxKeyLen-1] = byte(c)
		if v, ok := idx.Lookup(key); !ok || v != uint64(c) {
			t.Fatalf("Lookup of sibling %d = %d, %v", c, v, ok)
		}
	}
	next := 0
	idx.Scan(nil, 0, func(k []byte, v uint64) bool {
		if len(k) != maxKeyLen || int(k[maxKeyLen-1]) != next || v != uint64(next) {
			t.Fatalf("scan position %d: got a %d-byte key ending %d, value %d", next, len(k), k[len(k)-1], v)
		}
		next++
		return true
	})
	if next != 12 {
		t.Fatalf("scan visited %d keys, want 12", next)
	}
}

// TestEmptiedLongPrefixNodeAcceptsWrites: the emptied long-prefix node. Keys
// part into groups at their first byte and each group shares its next
// 190 bytes, so every group hangs below the root as a node whose
// compressed prefix outgrows the seven stored bytes, over two inner nodes
// with 20-byte prefixes of their own. Deleting three groups in four
// empties their subtrees (deletes never unlink), leaving no leaf to read
// the prefixes from. A delete through one finds its key absent; an
// insert replaces the subtree with its leaf, whether its key follows the
// old prefix, ends inside it or leaves it within the stored bytes; and
// every group then fills again.
func TestEmptiedLongPrefixNodeAcceptsWrites(t *testing.T) {
	run := bytes.Repeat([]byte{'r'}, 190)
	const groups, perGroup = 4, 4
	key := func(g, i int) []byte {
		k := append([]byte{byte(g)}, run...)
		k = append(k, byte(i/2))
		k = append(k, run[:20]...)
		return append(k, byte(i%2), 0xff)
	}
	idx := newIdx()
	for g := 0; g < groups; g++ {
		for i := 0; i < perGroup; i++ {
			mustInsert(t, idx, key(g, i), uint64(g*perGroup+i))
		}
	}
	for g := 1; g < groups; g++ {
		for i := 0; i < perGroup; i++ {
			if ok, err := idx.Delete(key(g, i)); !ok || err != nil {
				t.Fatalf("Delete(%d,%d) = %v, %v", g, i, ok, err)
			}
		}
	}
	var s shape
	if s.walk(idx.root.Load(), 0); s.emptied != 3*3 {
		t.Fatalf("%d emptied long-prefix nodes, want 9 (three per deleted group)", s.emptied)
	}
	if ok, err := idx.Delete(key(2, 1)); ok || err != nil {
		t.Fatalf("Delete through an emptied node = %v, %v, want false, nil", ok, err)
	}

	want := map[string]uint64{}
	through := [][]byte{
		key(1, 0), // follows the old prefix
		append(append([]byte{2}, run[:100]...), 0xff),                    // ends inside it
		append(append([]byte{3}, bytes.Repeat([]byte{'s'}, 9)...), 0xff), // leaves it in the stored bytes
	}
	for i, k := range through {
		mustInsert(t, idx, k, uint64(100+i))
		want[string(k)] = uint64(100 + i)
	}
	for g := 0; g < groups; g++ {
		for i := 0; i < perGroup; i++ {
			mustInsert(t, idx, key(g, i), uint64(g*perGroup+i))
			want[string(key(g, i))] = uint64(g*perGroup + i)
		}
	}
	s = shape{}
	if s.walk(idx.root.Load(), 0); s.emptied != 0 || s.stale != 0 {
		t.Fatalf("after refilling: %d emptied and %d stale nodes left", s.emptied, s.stale)
	}
	if idx.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", idx.Len(), len(want))
	}
	checkModel(t, idx, want)
}

// TestEmptiedNodeConcurrentWriters races writers through emptied
// long-prefix nodes. Every key shares its first eight bytes; the next ten
// are one of two fillers, so a node below them holds a prefix past the
// stored bytes whose hidden part is the filler of whichever keys are
// live. Each round a writer inserts, reads and deletes a pair of keys
// under the round's filler, so on its own it empties such a node and the
// next round replaces it; beside other writers it also replaces nodes
// they verified and are about to write below. Afterwards every inner
// node's prefix must agree with every leaf below it, the invariant that
// a write below a replaced node would break. Run with -race.
func TestEmptiedNodeConcurrentWriters(t *testing.T) {
	const writers, rounds = 4, 2_000
	idx := newIdx()
	mustInsert(t, idx, []byte{0, 0xff}, 0) // a sibling keeps the root an inner node
	key := func(w, r, j int) []byte {
		k := append([]byte{1}, bytes.Repeat([]byte{'p'}, 7)...)
		k = append(k, bytes.Repeat([]byte{byte('a' + r%2)}, 10)...)
		return append(k, byte(w), byte(j), 0xff)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for j := 0; j < 2; j++ {
					if err := idx.Insert(key(w, r, j), uint64(r)); err != nil {
						t.Errorf("writer %d round %d: Insert = %v", w, r, err)
						return
					}
				}
				for j := 0; j < 2; j++ {
					if v, ok := idx.Lookup(key(w, r, j)); !ok || v != uint64(r) {
						t.Errorf("writer %d round %d: Lookup = %d, %v", w, r, v, ok)
						return
					}
					if ok, err := idx.Delete(key(w, r, j)); !ok || err != nil {
						t.Errorf("writer %d round %d: Delete = %v, %v", w, r, ok, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	want := map[string]uint64{"\x00\xff": 0}
	for w := 0; w < writers; w++ {
		mustInsert(t, idx, key(w, w, 0), uint64(w))
		want[string(key(w, w, 0))] = uint64(w)
	}
	prefixesAgree(t, idx.root.Load(), 0)
	checkModel(t, idx, want)
}

// prefixesAgree fails t unless every leaf below each inner node at
// depth carries the node's stored prefix bytes and shares its bytes
// [depth, level) with every other leaf below it; it returns one leaf
// key of n's subtree, nil if it has none.
func prefixesAgree(t *testing.T, n *header, depth int) []byte {
	t.Helper()
	if n == nil {
		return nil
	}
	if n.kind == kLeaf {
		return n.leaf().key()
	}
	plen, pb := n.prefixSnapshot()
	var first []byte
	var buf [256]entry
	for _, e := range n.entries(buf[:0:256]) {
		k := prefixesAgree(t, e.c, int(n.level)+1)
		switch {
		case k == nil:
		case len(k) <= int(n.level) || !bytes.Equal(k[depth:depth+min(plen, maxStoredPrefix)], pb[:min(plen, maxStoredPrefix)]):
			t.Fatalf("leaf %x below a node at depth %d, level %d disagrees with its stored prefix %x", k, depth, n.level, pb[:min(plen, maxStoredPrefix)])
		case first == nil:
			first = k
		case !bytes.Equal(k[depth:n.level], first[depth:n.level]):
			t.Fatalf("leaves %x and %x below one node disagree on its prefix [%d, %d)", first, k, depth, n.level)
		}
	}
	return first
}

// checkModel holds Lookup of every key in want, and a full scan, to the
// model.
func checkModel(t *testing.T, idx *Index, want map[string]uint64) {
	t.Helper()
	for k, v := range want {
		if got, ok := idx.Lookup([]byte(k)); !ok || got != v {
			t.Fatalf("Lookup(%x) = %d, %v, want %d", k, got, ok, v)
		}
	}
	var prev []byte
	n := 0
	idx.Scan(nil, 0, func(k []byte, v uint64) bool {
		if w, ok := want[string(k)]; !ok || w != v || (prev != nil && bytes.Compare(prev, k) >= 0) {
			t.Fatalf("scan position %d: key %x value %d (model %d, %v), after %x", n, k, v, w, ok, prev)
		}
		prev = append(prev[:0], k...)
		n++
		return true
	})
	if n != len(want) {
		t.Fatalf("scan visited %d keys, want %d", n, len(want))
	}
}
