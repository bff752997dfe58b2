package fastfair

import (
	"runtime"
	"sync"
	"sync/atomic"
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
// landed between the two slots once left the record at the left node's
// high end and at its sibling's first slot; when inserts shifted it to
// the left node's middle slot again, the next split looked like one a
// crash had interrupted after linking its sibling, and "completing" it
// truncated the thirteen keys above the middle out of the tree. The
// writer that locks the leaf now removes the duplicate before any split;
// the same inserts must still lose nothing.
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

// TestCrashedShiftLeavesNoPhantom: the same crash leaves 135 in slot 13
// holding 1000's record, a transient duplicate readers drop. A split
// between slots 13 and 14 would separate the two and commit 135 with its
// neighbour's value, so the first writer to lock the leaf removes the
// duplicate with Delete's shift, and 135 stays absent.
func TestCrashedShiftLeavesNoPhantom(t *testing.T) {
	heap := pmem.NewFast()
	tr := New(heap, keys.RandInt)
	for k := uint64(10); k <= 130; k += 10 {
		mustInsert(t, tr, k64(k), k) // slots 0-12
	}
	mustInsert(t, tr, k64(1000), 1000) // slot 13
	heap.SetInjector(crash.NewAtSite("ff.insert.shifted", 1))
	if err := tr.Insert(k64(135), 135); !crash.IsCrash(err) {
		t.Fatalf("insert of 135 did not crash after its shift: %v", err)
	}
	heap.SetInjector(nil)
	tr.Recover()
	for k := uint64(2000); k < 2013; k++ {
		mustInsert(t, tr, k64(k), k)
	}
	mustInsert(t, tr, k64(3000), 3000) // split between slots 13 and 14
	if v, ok := tr.Lookup(k64(135)); ok {
		t.Fatalf("Lookup(135) = %d after the split; the unacknowledged insert became a phantom", v)
	}
	for _, k := range []uint64{130, 1000, 2012, 3000} {
		if v, ok := tr.Lookup(k64(k)); !ok || v != k {
			t.Fatalf("Lookup(%d) = %d, %v", k, v, ok)
		}
	}
}

// TestRestartedShiftDuplicateRemoved: a restart image can keep a shift
// part-way — here slot 4's record moved to slot 5, then slot 3's key
// copied into slot 4 before its record — so slot 4 pairs 40 with 50's
// record, a duplicate readers drop. An insert landing between slots 4
// and 5 would separate the two and leave 40 in two slots under two
// records, and 40's delete would then uncover 50's record under 40. The
// writer that locks the leaf removes the duplicate first.
func TestRestartedShiftDuplicateRemoved(t *testing.T) {
	heap := pmem.NewFast()
	tr := New(heap, keys.RandInt)
	for k := uint64(10); k <= 50; k += 10 {
		mustInsert(t, tr, k64(k), k) // slots 0-4
	}
	n := tr.leftmostLeaf()
	n.keys[5].Store(n.keys[4].Load())
	n.vals[5].Store(n.vals[4].Load())
	n.keys[4].Store(n.keys[3].Load())
	tr.Recover()
	mustInsert(t, tr, k64(45), 45)
	if ok, err := tr.Delete(k64(40)); !ok || err != nil {
		t.Fatalf("Delete(40) = %v, %v", ok, err)
	}
	if v, ok := tr.Lookup(k64(40)); ok {
		t.Fatalf("Lookup(40) = %d after its delete", v)
	}
	for _, k := range []uint64{10, 20, 30, 45, 50} {
		if v, ok := tr.Lookup(k64(k)); !ok || v != k {
			t.Fatalf("Lookup(%d) = %d, %v", k, v, ok)
		}
	}
}

// TestReadPairsHighKeyWithItsSibling: a split stores the new sibling,
// then the high key, then highSet. An image that pairs a high key with a
// sibling stored before it sends a probe at or past the new high key to
// the old sibling, past the node that now holds the probe's range, and an
// insert routed that way lands in a leaf that does not cover its key.
// Here one writer stores (sibling, high key i) pairs in the split's order
// while readers image the node: every image's sibling must have been
// stored at the step of its high key or a later one.
func TestReadPairsHighKeyWithItsSibling(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	tr := newInt()
	n := tr.newNode(true, 0)
	// A ring of siblings, each labelled with the last step that stored
	// it: a reused sibling only looks newer, so no image is misjudged.
	ring := make([]*node, 64)
	stepOf := make(map[*node]*atomic.Uint64, len(ring)) // read-only while readers run
	for i := range ring {
		ring[i] = tr.newNode(true, 0)
		stepOf[ring[i]] = new(atomic.Uint64)
	}
	var done atomic.Bool
	var torn atomic.Int64 // 1 + the high key of a torn image
	var ready, wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		ready.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			ready.Done()
			var img image
			for !done.Load() {
				tr.read(n, nil, &img)
				if img.highSet && (img.sibling == nil || stepOf[img.sibling].Load() < img.high) {
					torn.Store(int64(img.high) + 1)
				}
			}
		}()
	}
	ready.Wait()
	for i := uint64(1); i <= 200_000 && torn.Load() == 0; i++ {
		s := ring[i%uint64(len(ring))]
		stepOf[s].Store(i)
		n.sibling.Store(s)
		n.high.Store(i)
		n.highSet.Store(true)
	}
	done.Store(true)
	wg.Wait()
	if h := torn.Load(); h != 0 {
		t.Fatalf("an image paired high key %d with a sibling stored before it", h-1)
	}
}
