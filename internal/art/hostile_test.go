package art

import (
	"bytes"
	"errors"
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

// TestEmptiedLongPrefixNodeStalls is ROADMAP item 1's livelock as a
// bounded failure. Keys part into groups at their first byte and each
// group shares its next 190 bytes, so every group hangs below the root as
// a node whose compressed prefix outgrows the seven stored bytes.
// Deleting two groups in three empties their nodes (deletes never
// unlink), and a write through an emptied node has no leaf to read the
// prefix from: it used to restart for ever, and now ends in ErrStalled,
// leaving every other key reachable and writable.
func TestEmptiedLongPrefixNodeStalls(t *testing.T) {
	run := bytes.Repeat([]byte{'r'}, 190)
	const groups, perGroup = 3, 3
	key := func(g, i int) []byte {
		k := append([]byte{byte(g)}, run...)
		return append(k, byte(i), 0xff)
	}
	idx := newIdx()
	for g := 0; g < groups; g++ {
		for i := 0; i < perGroup; i++ {
			mustInsert(t, idx, key(g, i), uint64(g*perGroup+i))
		}
	}
	for g := 0; g < groups; g++ {
		for i := 0; i < perGroup && g%3 != 0; i++ {
			if ok, err := idx.Delete(key(g, i)); !ok || err != nil {
				t.Fatalf("Delete(%d,%d) = %v, %v", g, i, ok, err)
			}
		}
	}
	live := idx.Len()

	if err := idx.Insert(key(1, 0), 1); !errors.Is(err, ErrStalled) {
		t.Fatalf("Insert through an emptied long-prefix node = %v, want ErrStalled", err)
	}
	if _, err := idx.Delete(key(2, 1)); !errors.Is(err, ErrStalled) {
		t.Fatalf("Delete through an emptied long-prefix node = %v, want ErrStalled", err)
	}
	if idx.Len() != live {
		t.Fatalf("Len = %d after stalled writes, want %d", idx.Len(), live)
	}

	// Everything that does not descend through an emptied node goes on:
	// a surviving group, a group never seen, and short unrelated keys.
	mustInsert(t, idx, key(0, perGroup), 7)
	mustInsert(t, idx, key(groups, 0), 8)
	mustInsert(t, idx, []byte{0xfe, 0xff}, 9)
	if ok, err := idx.Delete(key(0, 0)); !ok || err != nil {
		t.Fatalf("Delete in a surviving group = %v, %v", ok, err)
	}
	for g := 0; g < groups; g += 3 {
		for i := 1; i < perGroup; i++ {
			if v, ok := idx.Lookup(key(g, i)); !ok || v != uint64(g*perGroup+i) {
				t.Fatalf("Lookup(%d,%d) = %d, %v after stalled writes", g, i, v, ok)
			}
		}
	}
	if _, ok := idx.Lookup(key(1, 0)); ok {
		t.Fatal("stalled insert left its key behind")
	}
}
