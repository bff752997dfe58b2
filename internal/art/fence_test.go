package art

import (
	"bytes"
	"testing"

	"repro/internal/crash"
	"repro/internal/pmem"
)

// key8 is the 8-byte key whose first seven bytes are zero and whose last
// is b: every seeded root node below branches on it.
func key8(b byte) []byte { return []byte{0, 0, 0, 0, 0, 0, 0, b} }

// seedRoot publishes, durably, a root node of kind k whose children are
// the leaves of key8(0) … key8(n-1): the state a shape's insert starts
// from, including states (a Node16 under five entries) no sequence of
// inserts reaches.
func seedRoot(idx *Index, k kind, n int) *header {
	es := make([]entry, n)
	for i := range es {
		l := idx.newLeaf(key8(byte(i)), uint64(i))
		idx.persistAll(l.hdr())
		es[i] = entry{byte(i), l.hdr()}
	}
	nn := idx.buildNode(k, 7, make([]byte, 7), es)
	idx.persistAll(nn)
	idx.heap.Fence()
	idx.setChildPersist(nil, 0, nn, "")
	idx.count.Store(int64(n))
	return nn
}

// TestFenceContract pins the persistence sequence of every insert shape:
// its exact clwb and fence counts, no line left unflushed, no dry fence
// and no clean write-back. Every insert takes two fences — one after
// everything its commit store exposes is written back, one after the
// commit — except a prefix split, whose two steps are each a commit,
// and an update, whose store is its own commit.
func TestFenceContract(t *testing.T) {
	for _, c := range []struct {
		name        string
		setup       func(idx *Index)
		key         []byte // what the measured insert writes
		clwb, fence uint64
	}{
		// leaf, then the root pointer
		{"root leaf", func(*Index) {}, key8(0), 2, 2},
		// the value's line
		{"in-place update", func(idx *Index) { mustInsert(t, idx, key8(0), 0) }, key8(0), 1, 1},
		// leaf and Node4, then the root pointer
		{"leaf split", func(idx *Index) { mustInsert(t, idx, key8(0), 0) }, key8(1), 3, 2},
		// leaf, then line 0 (key byte, child and count)
		{"Node4 append", func(idx *Index) { seedRoot(idx, kNode4, 2) }, key8(2), 2, 2},
		{"Node16 append, slot < 4", func(idx *Index) { seedRoot(idx, kNode16, 2) }, key8(2), 2, 2},
		// leaf and the child slot's line, then line 0
		{"Node16 append, slot >= 4", func(idx *Index) { seedRoot(idx, kNode16, 5) }, key8(5), 3, 2},
		// leaf, child slot and count, then the index byte
		{"Node48 append", func(idx *Index) { seedRoot(idx, kNode48, 5) }, key8(5), 4, 2},
		// leaf, then the child pointer
		{"Node256 insert", func(idx *Index) { seedRoot(idx, kNode256, 5) }, key8(5), 2, 2},
		{"Node4 slot reuse", func(idx *Index) { seedRoot(idx, kNode4, 3); mustDelete(t, idx, key8(1)) }, key8(1), 2, 2},
		{"Node48 slot reuse", func(idx *Index) { seedRoot(idx, kNode48, 20); mustDelete(t, idx, key8(1)) }, key8(1), 2, 2},
		// leaf and the new node (3, 11 and 33 lines), then the root pointer
		{"grow Node4 to Node16", func(idx *Index) { seedRoot(idx, kNode4, 4) }, key8(4), 5, 2},
		{"grow Node16 to Node48", func(idx *Index) { seedRoot(idx, kNode16, 16) }, key8(16), 13, 2},
		{"grow Node48 to Node256", func(idx *Index) { seedRoot(idx, kNode48, 48) }, key8(48), 35, 2},
		// new Node4 and leaf, then the parent pointer (step 1), then the
		// old node's shortened prefix (step 2)
		{"prefix split", func(idx *Index) { seedRoot(idx, kNode4, 2) }, []byte{0, 0, 0, 1, 0, 0, 0, 0}, 4, 3},
		// leaf, then the root pointer that drops the emptied root
		{"emptied node replaced", func(idx *Index) {
			for _, b := range []byte{0, 1} {
				mustInsert(t, idx, append(bytes.Repeat([]byte{'e'}, 10), b), 0)
			}
			for _, b := range []byte{0, 1} {
				mustDelete(t, idx, append(bytes.Repeat([]byte{'e'}, 10), b))
			}
		}, key8(0), 2, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			heap := pmem.New(pmem.Options{Track: true})
			defer heap.Release()
			idx := New(heap)
			c.setup(idx)
			tr := heap.Tracker()
			before, dry, clean := heap.Stats(), tr.DryFences(), tr.CleanWriteBacks()
			mustInsert(t, idx, c.key, 1000)
			d := heap.Stats().Sub(before)
			if d.Clwb != c.clwb || d.Fence != c.fence {
				t.Errorf("%d clwb, %d fences; want %d, %d", d.Clwb, d.Fence, c.clwb, c.fence)
			}
			if v := tr.Check(); len(v) != 0 {
				t.Errorf("left unpersisted lines: %v", v)
			}
			if n := tr.DryFences() - dry; n != 0 {
				t.Errorf("%d dry fences", n)
			}
			if n := tr.CleanWriteBacks() - clean; n != 0 {
				t.Errorf("%d clean write-backs", n)
			}
			if v, ok := idx.Lookup(c.key); !ok || v != 1000 {
				t.Errorf("Lookup = %d,%v after the insert", v, ok)
			}
		})
	}
}

func mustDelete(t testing.TB, idx *Index, key []byte) {
	t.Helper()
	if ok, err := idx.Delete(key); !ok || err != nil {
		t.Fatalf("Delete(%x) = %v, %v", key, ok, err)
	}
}

// TestNode48CountDurableBeforeIndexByte pins the Node48 append order: at
// the crash site between the two fences the child slot and the count are
// stored, written back and fenced, and the committing index byte is not
// yet stored. (Index byte first would let a crash leave a durable index
// byte over a stale count, and the next append overwrite a live child.)
func TestNode48CountDurableBeforeIndexByte(t *testing.T) {
	heap := pmem.New(pmem.Options{Track: true})
	idx := New(heap)
	n := seedRoot(idx, kNode48, 5)
	heap.SetInjector(crash.NewAtSite("art.insert.appended", 1))
	if err := idx.Insert(key8(5), 5); !crash.IsCrash(err) {
		t.Fatalf("insert did not crash at art.insert.appended: %v", err)
	}
	if got := n.count.Load(); got != 6 {
		t.Fatalf("count = %d at the crash, want 6", got)
	}
	if s := n.n48().index.Get(5); s != 0 {
		t.Fatalf("index byte = %d at the crash, want 0 (not yet stored)", s)
	}
	if v := heap.Tracker().Check(); len(v) != 0 {
		t.Fatalf("lines not durable at the crash: %v", v)
	}
}

// TestNode48OrphanedSlot: the worst crash image of a Node48 append — the
// count advanced over a filled slot whose index byte never landed — is
// harmless. The orphan stays invisible, the next append takes the slot
// after it, and a grow drops it.
func TestNode48OrphanedSlot(t *testing.T) {
	idx := newIdx()
	n := seedRoot(idx, kNode48, 5)
	nd := n.n48()
	orphan := idx.newLeaf(key8(9), 9)
	nd.children[5].Store(orphan.hdr())
	n.count.Store(6)
	check := func(when string, live int) {
		t.Helper()
		for b := 0; b < 100; b++ {
			v, ok := idx.Lookup(key8(byte(b)))
			if want := b < live; ok != want || ok && v != uint64(b) {
				t.Fatalf("%s: Lookup(%d) = %d,%v", when, b, v, ok)
			}
		}
		var got []byte
		idx.Scan(nil, 1000, func(k []byte, _ uint64) bool { got = append(got, k[7]); return true })
		if len(got) != live {
			t.Fatalf("%s: scan saw %d keys, want %d: %v", when, len(got), live, got)
		}
		for i, b := range got {
			if int(b) != i {
				t.Fatalf("%s: scan saw %v", when, got)
			}
		}
	}
	check("orphan in place", 5)
	for b := 5; b < 10; b++ {
		mustInsert(t, idx, key8(byte(b)), uint64(b))
	}
	if s := nd.index.Get(5); s != 7 {
		t.Fatalf("key 5 took slot %d, want 6: the append after an orphan skips it", int(s)-1)
	}
	check("appended past the orphan", 10)
	// 47 live entries and the orphan fill the node; the next insert grows
	// it, carrying only the live ones.
	for b := 10; b < 48; b++ {
		mustInsert(t, idx, key8(byte(b)), uint64(b))
	}
	if r := idx.root.Load(); r == n || r.kind != kNode48 || r.count.Load() != 48 {
		t.Fatalf("root after the grow: kind %d count %d, want a fresh Node48 of 48", r.kind, r.count.Load())
	}
	check("grown", 48)
	mustInsert(t, idx, key8(48), 48)
	check("grown to Node256", 49)
}

// TestRecoverRevivesRetiredNode: inside a fence group an op's trailing
// fence is elided, so a grow's root swap can still be unfenced when the
// next op crashes. The revert image then restores the root pointer to
// the Node48 the grow retired — a node still marked obsolete, which
// every later insert would restart on until ErrStalled. Recover must
// clear the mark: a node reachable after recovery is live.
func TestRecoverRevivesRetiredNode(t *testing.T) {
	heap := pmem.New(pmem.Options{Shadow: true})
	defer heap.Release()
	idx := New(heap)
	old := seedRoot(idx, kNode48, 48)
	heap.BeginFenceGroup()
	mustInsert(t, idx, key8(48), 48) // grows the root into a Node256
	heap.GroupOpBoundary()
	heap.SetInjector(crash.NewAtSite("art.insert.leafready", 1))
	if err := idx.Insert(key8(49), 49); !crash.IsCrash(err) {
		t.Fatalf("insert into the Node256 did not crash at art.insert.leafready: %v", err)
	}
	heap.SetInjector(nil)
	heap.PowerCycle(pmem.PolicyRevert, 1)
	if err := idx.Recover(); err != nil {
		t.Fatal(err)
	}
	if idx.root.Load() != old {
		t.Fatal("the revert image did not restore the retired Node48 as root")
	}
	mustInsert(t, idx, key8(50), 50)
	for b := 0; b < 51; b++ {
		v, ok := idx.Lookup(key8(byte(b)))
		if want := b < 48 || b == 50; ok != want || ok && v != uint64(b) {
			t.Fatalf("Lookup(%d) = %d,%v after recovery", b, v, ok)
		}
	}
}
