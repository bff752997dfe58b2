package fastfair

import (
	"sync"
	"testing"

	"repro/internal/crash"
	"repro/internal/keys"
	"repro/internal/pmem"
)

// leftmostLeaf walks to the leftmost leaf of the tree (diagnostics).
func (t *Tree) leftmostLeaf() *node {
	n := t.root.Load()
	for !n.leaf {
		n = n.leftmost.Load()
	}
	return n
}

// findViaChain scans the entire leaf chain for a stored key, ignoring
// inner-node routing (diagnostics).
func (t *Tree) findViaChain(key []byte) (uint64, bool) {
	for n := t.leftmostLeaf(); n != nil; n = n.sibling.Load() {
		for i := 0; i < Cardinality; i++ {
			v := n.vals[i].Load()
			if v == nil {
				break
			}
			if t.cmpProbe(key, n.keys[i].Load()) == 0 {
				return v.v, true
			}
		}
	}
	return 0, false
}

// TestConcurrentLoadLosesNothing: after storms of concurrent inserts every
// key is reachable by routing. §3 of the RECIPE paper reports that
// concurrent writes to FAST & FAIR "could lead to loss of a successfully
// written key"; this port lost keys the same way — present in the leaf
// chain, unreachable through the inner nodes — until its routing read
// became the validated node image (read): one unvalidated pass over an
// internal node mid-shift could pair a separator with its right
// neighbour's child and send a writer into a leaf that does not cover its
// key. findViaChain tells such a misplaced key from one that was lost.
func TestConcurrentLoadLosesNothing(t *testing.T) {
	for round := 0; round < 10; round++ {
		tr := New(pmem.NewFast(), keys.RandInt)
		const threads = 8
		const per = 2500
		var wg sync.WaitGroup
		for g := 0; g < threads; g++ {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					id := uint64(g*per + i)
					if err := tr.Insert(k64(keys.Mix64(id)), id); err != nil {
						t.Errorf("insert: %v", err)
						return
					}
				}
			}()
		}
		wg.Wait()
		for id := uint64(0); id < threads*per; id++ {
			k := k64(keys.Mix64(id))
			if v, ok := tr.Lookup(k); ok && v == id {
				continue
			}
			if _, inChain := tr.findViaChain(k); inChain {
				t.Fatalf("round %d: key id %d is in the leaf chain but unreachable by routing", round, id)
			}
			t.Fatalf("round %d: key id %d lost (not even in the leaf chain)", round, id)
		}
	}
}

// TestSplitAfterCrashedShiftLosesNothing: a crash between a FAST shift
// and its commit leaves a transient duplicate — the uncommitted key in
// slot p, its right neighbour's record in slots p and p+1. A split that
// lands between the two slots leaves the record at the left node's
// high end and at its sibling's first slot. When inserts later shift it
// to the left node's middle slot again, the record pointer alone made
// the next split look like one a crash had interrupted after linking its
// sibling, and "completing" it truncated the thirteen keys above the
// middle out of the tree. An interrupted split's sibling is a copy of
// the middle slot, key and record, so the check compares both.
func TestSplitAfterCrashedShiftLosesNothing(t *testing.T) {
	heap := pmem.NewFast()
	tr := New(heap, keys.RandInt)
	want := map[uint64]bool{}
	insert := func(ks ...uint64) {
		for _, k := range ks {
			mustInsert(t, tr, k64(k), k)
			want[k] = true
		}
	}
	for k := uint64(10); k <= 130; k += 10 {
		insert(k) // slots 0-12
	}
	insert(1000) // slot 13
	heap.SetInjector(crash.NewAtSite("ff.insert.shifted", 1))
	if err := tr.Insert(k64(135), 135); !crash.IsCrash(err) {
		t.Fatalf("insert of 135 did not crash after its shift: %v", err)
	}
	heap.SetInjector(nil)
	tr.Recover()
	// 135 in slot 13 holds 1000's record, a duplicate of slot 14's.
	for k := uint64(2000); k < 2013; k++ {
		insert(k) // fill slots 15-27
	}
	insert(3000) // split: slot 13 stays left, slot 14 starts the sibling
	insert(5)    // 135's slot moves to the left node's middle, 14
	for k := uint64(200); k < 213; k++ {
		insert(k) // fill the left node again
	}
	insert(300) // split the left node
	for k := range want {
		if v, ok := tr.Lookup(k64(k)); !ok || v != k {
			t.Fatalf("Lookup(%d) = %d, %v after the second split", k, v, ok)
		}
	}
}
