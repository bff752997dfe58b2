package shard

import (
	"bytes"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/crash"
	"repro/internal/keys"
	"repro/internal/pmem"
)

// countingIndex wraps an ordered index and counts every entry the
// front-end's merge takes out of it through its iterator.
type countingIndex struct {
	core.OrderedIndex
	pulled *atomic.Int64
}

func (c countingIndex) NewIterator() core.Iterator {
	return countingIter{c.OrderedIndex.NewIterator(), c.pulled}
}

type countingIter struct {
	core.Iterator
	pulled *atomic.Int64
}

func (c countingIter) Next() ([]byte, uint64, bool) {
	k, v, ok := c.Iterator.Next()
	if ok {
		c.pulled.Add(1)
	}
	return k, v, ok
}

// TestMergedScanPullBound: a count-n merged scan over H shards takes at
// most n + H entries out of the indexes — one head per shard to seed the
// merge, one replacement per entry emitted, and none after the last.
func TestMergedScanPullBound(t *testing.T) {
	const h, load = 4, 5_000
	var pulled atomic.Int64
	m, err := NewOrderedWith(func(heap *pmem.Heap) (core.OrderedIndex, error) {
		idx, err := core.NewOrdered("P-ART", heap, keys.YCSBString)
		return countingIndex{idx, &pulled}, err
	}, Options{Shards: h})
	if err != nil {
		t.Fatal(err)
	}
	gen := keys.NewGenerator(keys.YCSBString)
	for id := uint64(0); id < load; id++ {
		if err := m.Insert(gen.Key(id), id); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []int{1, 2, 10, 51, 100, 1_000} {
		for _, id := range []uint64{0, 17, load / 2} {
			pulled.Store(0)
			got := m.Scan(gen.Key(id), n, func([]byte, uint64) bool { return true })
			if got < 1 || got > n {
				t.Fatalf("scan(%d) from key %d visited %d", n, id, got)
			}
			if p := pulled.Load(); p > int64(got+h) {
				t.Errorf("scan(%d) from key %d visited %d entries but pulled %d from the shards, want <= %d",
					n, id, got, p, got+h)
			}
		}
	}
	// The pull cursor obeys the same bound.
	pulled.Store(0)
	cur := m.Cursor(gen.Key(3))
	for i := 0; i < 51; i++ {
		if _, _, ok := cur.Next(); !ok {
			t.Fatalf("cursor exhausted at %d", i)
		}
	}
	if p := pulled.Load(); p > 51+h {
		t.Errorf("51 cursor entries pulled %d from the shards, want <= %d", p, 51+h)
	}
}

// TestMergedScanDuplicateHeads: during a handoff window and until the
// residue sweep, a key sits on two shards. The merge must emit it once,
// with the value of the shard the routing table names — over P-ART and
// over memIndex's sorted-slice iterator, and wherever in the heap the
// two copies meet.
func TestMergedScanDuplicateHeads(t *testing.T) {
	const h, n = 4, 300
	factories := map[string]func(*pmem.Heap) (core.OrderedIndex, error){
		"P-ART": func(heap *pmem.Heap) (core.OrderedIndex, error) {
			return core.NewOrdered("P-ART", heap, keys.RandInt)
		},
		"memIndex": memFactory,
	}
	for name, factory := range factories {
		t.Run(name, func(t *testing.T) {
			m, err := NewOrderedWith(factory, Options{Shards: h})
			if err != nil {
				t.Fatal(err)
			}
			// Duplicates are resolved once a window has ever opened (see
			// TestMergeFastPathRule): move one slot of the empty front-end.
			if err := m.MigrateSlots(0, 1, m.SlotsOf(0)[:1], 0); err != nil {
				t.Fatal(err)
			}
			gen := keys.NewGenerator(keys.RandInt)
			for id := uint64(0); id < n; id++ {
				k := gen.Key(id)
				if err := m.Insert(k, id); err != nil {
					t.Fatal(err)
				}
				// A stale copy on a shard that does not own the key, as a
				// shadow apply or an unswept donor would leave it.
				if id%3 != 0 {
					other := (m.Route(k) + 1 + int(id)%(h-1)) % h
					if err := m.Shard(other).Insert(k, id+1_000_000); err != nil {
						t.Fatal(err)
					}
				}
			}
			want := make([]entry, 0, n)
			for id := uint64(0); id < n; id++ {
				want = append(want, entry{gen.Key(id), id})
			}
			sort.Slice(want, func(i, j int) bool { return bytes.Compare(want[i].key, want[j].key) < 0 })
			entriesEqual(t, "scan", want, collect(m, nil, 0))
			entriesEqual(t, "bounded scan", want[:40], collect(m, nil, 40))
			mid := want[n/2].key
			entriesEqual(t, "mid-key scan", want[n/2:], collect(m, mid, 0))
			var got []entry
			for cur := m.Cursor(nil); ; {
				k, v, ok := cur.Next()
				if !ok {
					break
				}
				got = append(got, entry{append([]byte(nil), k...), v})
			}
			entriesEqual(t, "cursor", want, got)
		})
	}
}

// TestMergeFastPathRule pins when scans pay for a migration's traces:
// never on a front-end whose table is as it was born, always once a
// window has opened — flipped or aborted. A hash-routed merge resolves
// duplicate heads only then, and a range-routed cursor drains shards
// one after another only until then.
func TestMergeFastPathRule(t *testing.T) {
	dedups := func(m *Ordered) bool { return m.Cursor(nil).owner != nil }
	for _, abort := range []bool{false, true} {
		m := newReshardOrdered(t, 4, nil, false)
		if dedups(m) {
			t.Fatal("fresh hash front-end resolves duplicate heads")
		}
		if abort {
			// A crash at the first copy batch; the donor needs keys to copy.
			m.Heap(1).SetInjector(crash.NewAtSite(SiteCopyApplied, 1))
			gen := keys.NewGenerator(keys.RandInt)
			for id := uint64(0); id < 64; id++ {
				if err := m.Insert(gen.Key(id), id); err != nil {
					t.Fatal(err)
				}
			}
		}
		err := m.MigrateSlots(0, 1, m.SlotsOf(0), 0)
		if aborted := crash.IsCrash(err); aborted != abort || (err != nil && !aborted) {
			t.Fatalf("abort=%v: MigrateSlots = %v", abort, err)
		}
		if !dedups(m) {
			t.Fatalf("abort=%v: merge skips duplicate resolution after a window opened", abort)
		}
		m.Release()
	}

	r := newReshardOrdered(t, 4, RangePartition{}, false)
	defer r.Release()
	if c := r.Cursor(nil); len(c.rest) != 3 || c.owner != nil {
		t.Fatalf("fresh range front-end: cursor opened the first shard and holds %d unopened, owner %v; want the sequential path (3 unopened)", len(c.rest), c.owner != nil)
	}
	slots := r.SlotsOf(0)
	if err := r.MigrateSlots(0, 1, slots[len(slots)/2:], 0); err != nil {
		t.Fatal(err)
	}
	if c := r.Cursor(nil); len(c.rest) != 0 || c.owner == nil {
		t.Fatalf("range front-end after a migration: %d unopened shards, owner %v; want a deduplicating merge", len(c.rest), c.owner != nil)
	}
}

// TestMergedScanSteadyStateAllocs: the merge state of Ordered.Scan is
// pooled and P-ART's iterators hand out leaf keys without copying, so
// once warm a merged scan allocates (next to) nothing — the bound allows
// for the pool shedding an entry now and then, as it does under -race.
// An unpooled scan costs 7 allocations.
func TestMergedScanSteadyStateAllocs(t *testing.T) {
	const load = 20_000
	m, err := NewOrdered("P-ART", keys.YCSBString, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	gen := keys.NewGenerator(keys.YCSBString)
	for id := uint64(0); id < load; id++ {
		if err := m.Insert(gen.Key(id), id); err != nil {
			t.Fatal(err)
		}
	}
	starts := make([][]byte, 64)
	for i := range starts {
		starts[i] = gen.Key(uint64(i) * 311 % load)
	}
	visit := func([]byte, uint64) bool { return true }
	i := 0
	scan := func() {
		if m.Scan(starts[i%len(starts)], 51, visit) == 0 {
			t.Fatal("empty scan")
		}
		i++
	}
	scan() // warm the pool
	if allocs := testing.AllocsPerRun(200, scan); allocs > 2 {
		t.Fatalf("steady-state merged scan allocates %.0f objects, want <= 2", allocs)
	}
}

// The stale* wrappers make every enumeration of an index report values
// no shard ever held, standing in for a donor walk that read its
// entries arbitrarily long ago: staleOrdered through its iterator,
// staleHash through Range.
type (
	staleOrdered struct{ core.OrderedIndex }
	staleIter    struct{ core.Iterator }
	staleHash    struct{ core.HashIndex }
)

func (s staleOrdered) NewIterator() core.Iterator {
	return staleIter{s.OrderedIndex.NewIterator()}
}

func (s staleIter) Next() ([]byte, uint64, bool) {
	k, _, ok := s.Iterator.Next()
	return k, 0xdead, ok
}

func (s staleHash) Range(fn func(k, v uint64) bool) {
	s.HashIndex.(core.HashRanger).Range(func(k, _ uint64) bool { return fn(k, 0xdead) })
}

// TestCopyBatchReadsUnderTheLock pins the lost-update fix at its root,
// without needing a lucky interleaving, for both key kinds: whatever
// value the donor walk saw when it read a key, the copy commits the
// value the donor holds at the time the batch runs, and skips keys
// deleted in between.
func TestCopyBatchReadsUnderTheLock(t *testing.T) {
	ordered := func(name string) func(*testing.T) {
		return func(t *testing.T) {
			m, err := NewOrderedWith(func(h *pmem.Heap) (core.OrderedIndex, error) {
				idx, err := core.NewOrdered(name, h, keys.RandInt)
				return staleOrdered{idx}, err
			}, Options{Shards: 2})
			if err != nil {
				t.Fatal(err)
			}
			copyBatchReadsUnderTheLock(t, &m.frontend, keys.NewGenerator(keys.RandInt).Key)
		}
	}
	t.Run("P-ART", ordered("P-ART"))
	t.Run("FAST & FAIR", ordered("FAST & FAIR"))
	t.Run("P-CLHT", func(t *testing.T) {
		m, err := NewHashWith(func(h *pmem.Heap) (core.HashIndex, error) {
			idx, err := core.NewHash("P-CLHT", h)
			return staleHash{idx}, err
		}, Options{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		copyBatchReadsUnderTheLock(t, &m.frontend, hashKey)
	})
}

// copyBatchReadsUnderTheLock is the test's body over either key kind;
// key maps a dense id to the kind's key.
func copyBatchReadsUnderTheLock[K any](t *testing.T, m *frontend[K], key func(id uint64) K) {
	var moved []uint64 // ids living on shard 0, the donor
	for id := uint64(0); len(moved) < 40; id++ {
		if k := key(id); m.Route(k) == 0 {
			if err := m.Insert(k, id); err != nil {
				t.Fatal(err)
			}
			moved = append(moved, id)
		}
	}
	// Open a window over all of the donor's slots by hand and open the
	// donor walk before the writes below happen.
	t0 := m.rt.Load()
	mg, err := windowForSlots(t0, 0, 1, m.SlotsOf(0))
	if err != nil {
		t.Fatal(err)
	}
	wt := t0.withWindow(mg)
	m.rt.Store(wt)
	walk, err := m.walk(wt, mg)
	if err != nil {
		t.Fatal(err)
	}
	// Double-applied writes that land after the walk opened and before
	// the copy runs: an update and a delete.
	upd, del := moved[3], moved[7]
	if err := m.Update(key(upd), 777); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Delete(key(del)); err != nil {
		t.Fatal(err)
	}
	for done := false; !done; {
		if done, err = m.copyBatch(wt, mg, walk, 16); err != nil {
			t.Fatal(err)
		}
	}
	rec := m.Shard(1)
	for _, id := range moved {
		v, ok := rec.Lookup(key(id))
		switch {
		case id == del:
			if ok {
				t.Fatalf("deleted key %d resurrected on the recipient with %d", id, v)
			}
		case id == upd:
			if !ok || v != 777 {
				t.Fatalf("updated key %d on the recipient = %d, %v; want 777", id, v, ok)
			}
		case !ok || v != id:
			t.Fatalf("key %d on the recipient = %d, %v; want %d", id, v, ok, id)
		}
	}
	m.rt.Store(wt.withoutWindow())
}
