package shard

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/crash"
	"repro/internal/group"
	"repro/internal/keys"
	"repro/internal/pmem"
	"repro/internal/ycsb"
)

// newReshardOrdered builds a sharded P-ART front-end (shadow heaps so
// crash tests can power-cycle).
func newReshardOrdered(t *testing.T, h int, part Partitioner, shadow bool) *Ordered {
	t.Helper()
	m, err := NewOrdered("P-ART", keys.RandInt, Options{
		Shards:      h,
		Partitioner: part,
		Heap:        pmem.Options{Shadow: shadow},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// closedForm is the placement contract of a fresh H-shard table, the
// arithmetic the stateless partitioners used to compute: point % H for
// unordered tables, ⌊point·H/2^64⌋ for ordered ones.
func closedForm(point uint64, h int, ranged bool) int {
	if !ranged {
		return int(point % uint64(h))
	}
	hi, _ := bits.Mul64(point, uint64(h))
	return int(hi)
}

// TestTableRoutingMatchesPartitioner: a fresh front-end must place every
// key where the closed form says, for both slot functions and many shard
// counts — the table is the partitioner mapping, not a new one.
func TestTableRoutingMatchesPartitioner(t *testing.T) {
	gen := keys.NewGenerator(keys.RandInt)
	sgen := keys.NewGenerator(keys.YCSBString)
	for _, part := range []Partitioner{HashPartition{}, RangePartition{}} {
		for _, h := range []int{1, 2, 3, 4, 7, 8, 16} {
			m, err := NewOrdered("P-ART", keys.RandInt, Options{Shards: h, Partitioner: part})
			if err != nil {
				t.Fatal(err)
			}
			check := func(key []byte) {
				want := closedForm(part.Point(key), h, part.OrderPreserving())
				if got := m.Route(key); got != want {
					t.Fatalf("%s h=%d key %x: table routes %d, closed form %d", part.Name(), h, key, got, want)
				}
			}
			for id := uint64(0); id < 20_000; id++ {
				check(gen.Key(id))
				check(sgen.Key(id))
			}
			// The points either side of every equal-slice boundary
			// ⌈i·2^64/H⌉: random keys never land close enough to see an
			// edge off by one.
			for i := uint64(1); i < uint64(h); i++ {
				edge, r := bits.Div64(i, 0, uint64(h))
				if r != 0 {
					edge++
				}
				check(keys.EncodeUint64(edge - 1))
				check(keys.EncodeUint64(edge))
			}
			m.Release()
		}
	}
}

// TestTableRoutingMatchesPartitioner64: same for the unordered
// front-end's slot table.
func TestTableRoutingMatchesPartitioner64(t *testing.T) {
	for _, h := range []int{1, 2, 3, 5, 8, 16} {
		m, err := NewHash("P-CLHT", Options{Shards: h})
		if err != nil {
			t.Fatal(err)
		}
		for id := uint64(0); id < 50_000; id++ {
			key := id * 0x9e3779b97f4a7c15
			want := closedForm(HashPartition64{}.Point(key), h, false)
			if got := m.Route(key); got != want {
				t.Fatalf("h=%d key %#x: table routes %d, closed form %d", h, key, got, want)
			}
		}
		m.Release()
	}
}

// checkOrderedContent verifies every expected key is readable with its
// expected value and that a merged scan yields exactly the expected keys
// in strictly ascending order (deduplicating any migration residue).
func checkOrderedContent(t *testing.T, m *Ordered, gen *keys.Generator, want map[uint64]uint64) {
	t.Helper()
	for id, v := range want {
		got, ok, err := m.LookupChecked(gen.Key(id))
		if err != nil || !ok || got != v {
			t.Fatalf("key %d: Lookup = %d, %v, %v; want %d", id, got, ok, err, v)
		}
	}
	seen := 0
	var prev []byte
	m.Scan(nil, len(want)+16, func(k []byte, v uint64) bool {
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Fatalf("scan out of order or duplicate: %x after %x", k, prev)
		}
		prev = append(prev[:0], k...)
		seen++
		return true
	})
	if seen != len(want) {
		t.Fatalf("scan saw %d unique keys, want %d", seen, len(want))
	}
}

// checkStatsConserved asserts the exact cross-shard conservation law:
// the front-end total equals the field-wise sum of per-shard stats.
func checkStatsConserved(t *testing.T, total pmem.Stats, per []pmem.Stats) {
	t.Helper()
	var sum pmem.Stats
	for _, s := range per {
		sum = sum.Add(s)
	}
	if sum != total {
		t.Fatalf("Stats not conserved: total %+v, shard sum %+v", total, sum)
	}
}

// TestMigrateSlotsMovesKeys: migrate half of shard 0's slots to shard 1
// under no traffic; every key stays readable, the merged scan is
// duplicate-free, routing agrees with shard placement, Stats conserve,
// and the donor's residue is gone (Len is exact).
func TestMigrateSlotsMovesKeys(t *testing.T) {
	const n, h = 4_000, 4
	m := newReshardOrdered(t, h, HashPartition{}, false)
	defer m.Release()
	gen := keys.NewGenerator(keys.RandInt)
	want := make(map[uint64]uint64, n)
	for id := uint64(0); id < n; id++ {
		if err := m.Insert(gen.Key(id), id); err != nil {
			t.Fatal(err)
		}
		want[id] = id
	}
	donorLen := m.Shard(0).Len()
	slots := m.SlotsOf(0)
	moved := slots[:len(slots)/2]
	if err := m.MigrateSlots(0, 1, moved, 64); err != nil {
		t.Fatal(err)
	}
	if v := m.rt.Load().version; v == 0 {
		t.Fatal("table version did not advance across flip")
	}
	for _, j := range moved {
		for _, owned := range m.SlotsOf(0) {
			if owned == j {
				t.Fatalf("slot %d still owned by donor after flip", j)
			}
		}
	}
	if got := m.Shard(0).Len(); got >= donorLen {
		t.Fatalf("donor Len %d not reduced from %d (residue not swept?)", got, donorLen)
	}
	if got := m.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	checkOrderedContent(t, m, gen, want)
	checkStatsConserved(t, m.Stats(), m.ShardStats())

	// Every key must live on exactly the shard the flipped table routes
	// it to.
	for id := uint64(0); id < n; id += 13 {
		key := gen.Key(id)
		s := m.Route(key)
		if _, ok := m.Shard(s).Lookup(key); !ok {
			t.Fatalf("key %d routed to shard %d but absent there", id, s)
		}
	}
}

// TestMigrateSlotsOnRangeMovesKeys: range-partitioned front-end, move
// the upper half of shard 0's slots — the upper half of its key range —
// to the last shard.
func TestMigrateSlotsOnRangeMovesKeys(t *testing.T) {
	const n, h = 4_000, 4
	m := newReshardOrdered(t, h, RangePartition{}, false)
	defer m.Release()
	gen := keys.NewGenerator(keys.RandInt)
	want := make(map[uint64]uint64, n)
	for id := uint64(0); id < n; id++ {
		if err := m.Insert(gen.Key(id), id); err != nil {
			t.Fatal(err)
		}
		want[id] = id
	}
	slots := m.SlotsOf(0)
	if err := m.MigrateSlots(0, h-1, slots[len(slots)/2:], 64); err != nil {
		t.Fatal(err)
	}
	if got := m.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	checkOrderedContent(t, m, gen, want)
	checkStatsConserved(t, m.Stats(), m.ShardStats())
	lo := uint64(1) << 61 // shard 0's range is [0, 2^62); its upper half moved
	for id := uint64(0); id < n; id += 7 {
		key := gen.Key(id)
		s, p := m.Route(key), RangePartition{}.Point(key)
		wantS := closedForm(p, h, true)
		if wantS == 0 && p >= lo {
			wantS = h - 1
		}
		if s != wantS {
			t.Fatalf("key %d (point %#x) routed to shard %d, want %d", id, p, s, wantS)
		}
		if _, ok := m.Shard(s).Lookup(key); !ok {
			t.Fatalf("key %d routed to shard %d but absent there", id, s)
		}
	}
}

// TestSlotPointsTileTheRing: an ordered table's slots cut the ring into
// contiguous arcs — each slot's lo follows the previous slot's hi, the
// first starts at 0 and the last ends at MaxUint64 — and both ends of
// every arc route to that slot.
func TestSlotPointsTileTheRing(t *testing.T) {
	for _, h := range []int{1, 2, 3, 5, 7, 8} {
		tab := newTable(h, true)
		s := len(tab.slots)
		next := uint64(0)
		for j := 0; j < s; j++ {
			lo, hi := slotPoints(j, s)
			if lo != next || hi < lo {
				t.Fatalf("h=%d slot %d = [%#x, %#x], want lo %#x and hi >= lo", h, j, lo, hi, next)
			}
			if tab.slot(lo) != j || tab.slot(hi) != j {
				t.Fatalf("h=%d slot %d = [%#x, %#x]: ends route to slots %d and %d", h, j, lo, hi, tab.slot(lo), tab.slot(hi))
			}
			next = hi + 1
		}
		if next != 0 {
			t.Fatalf("h=%d: the last slot ends at %#x, want MaxUint64", h, next-1)
		}
	}
}

// TestMigrateHashMovesKeys: unordered front-end slot migration via the
// HashRanger enumeration path.
func TestMigrateHashMovesKeys(t *testing.T) {
	const n, h = 4_000, 4
	m, err := NewHash("P-CLHT", Options{Shards: h})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	for id := uint64(1); id <= n; id++ {
		if err := m.Insert(id*0x9e3779b97f4a7c15, id); err != nil {
			t.Fatal(err)
		}
	}
	slots := m.SlotsOf(2)
	if err := m.MigrateSlots(2, 3, slots[:len(slots)/2], 64); err != nil {
		t.Fatal(err)
	}
	if got := m.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	for id := uint64(1); id <= n; id++ {
		key := id * 0x9e3779b97f4a7c15
		v, ok, err := m.LookupChecked(key)
		if err != nil || !ok || v != id {
			t.Fatalf("key %#x: Lookup = %d, %v, %v; want %d", key, v, ok, err, id)
		}
		if _, ok := m.Shard(m.Route(key)).Lookup(key); !ok {
			t.Fatalf("key %#x absent from its routed shard", key)
		}
	}
	checkStatsConserved(t, m.Stats(), m.ShardStats())
}

// hashKey is the uint64 key the hash-kind migration tests store id
// under (distinct per id, never the reserved key 0).
func hashKey(id uint64) uint64 { return (id + 1) * 0x9e3779b97f4a7c15 }

// TestMigrateUnderConcurrentWriters runs point writes from several
// goroutines while slots migrate between shards, then verifies every
// acknowledged final value — the double-applied handoff window must
// never lose or resurrect a write — on both instantiations of the
// front-end body. Run with -race.
func TestMigrateUnderConcurrentWriters(t *testing.T) {
	const h = 4
	t.Run("P-ART", func(t *testing.T) {
		m := newReshardOrdered(t, h, HashPartition{}, false)
		defer m.Release()
		total := migrateUnderWriters(t, &m.frontend, keys.NewGenerator(keys.RandInt).Key)
		// Scan must be duplicate-free and exactly sized.
		seen := 0
		var prev []byte
		m.Scan(nil, total+16, func(k []byte, v uint64) bool {
			if prev != nil && bytes.Compare(prev, k) >= 0 {
				t.Fatalf("scan out of order or duplicate after migration: %x", k)
			}
			prev = append(prev[:0], k...)
			seen++
			return true
		})
		if seen != total {
			t.Fatalf("scan saw %d unique keys, want %d", seen, total)
		}
	})
	t.Run("P-CLHT", func(t *testing.T) {
		m, err := NewHash("P-CLHT", Options{Shards: h})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Release()
		total := migrateUnderWriters(t, &m.frontend, hashKey)
		// No residue and no lost key: the moved keys live on exactly one
		// shard each.
		if got := m.Len(); got != total {
			t.Fatalf("Len = %d, want %d", got, total)
		}
	})
}

// migrateUnderWriters is TestMigrateUnderConcurrentWriters' body over
// either key kind; key maps a dense id to the kind's key. It returns
// the number of distinct keys written.
func migrateUnderWriters[K any](t *testing.T, m *frontend[K], key func(id uint64) K) int {
	const (
		writers = 4
		perW    = 1_500
		preload = 2_000
	)
	h := m.NumShards()
	// Preload so the donor has something to copy.
	for id := uint64(0); id < preload; id++ {
		if err := m.Insert(key(id), id); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				id := uint64(10_000 + w*perW + i)
				if err := m.Insert(key(id), id); err != nil {
					t.Errorf("insert %d: %v", id, err)
					return
				}
				if err := m.Update(key(id), id+1); err != nil {
					t.Errorf("update %d: %v", id, err)
					return
				}
				// Overwrite a preloaded (possibly migrating) key too.
				if err := m.Update(key(id%preload), id); err != nil {
					t.Errorf("update hot %d: %v", id%preload, err)
					return
				}
			}
		}(w)
	}

	// Migrate while the writers run: a few moves between distinct pairs.
	for mv := 0; mv < 4; mv++ {
		donor := mv % h
		recipient := (mv + 1) % h
		slots := m.SlotsOf(donor)
		if len(slots) < 2 {
			continue
		}
		if err := m.MigrateSlots(donor, recipient, slots[:len(slots)/4+1], 32); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()

	// Every writer-owned key must hold its final value.
	for w := 0; w < writers; w++ {
		for i := 0; i < perW; i++ {
			id := uint64(10_000 + w*perW + i)
			v, ok, err := m.LookupChecked(key(id))
			if err != nil || !ok || v != id+1 {
				t.Fatalf("key %d: Lookup = %d, %v, %v; want %d", id, v, ok, err, id+1)
			}
		}
	}
	// Every preloaded key must still be there, holding its preload value
	// or one a writer gave it (all of which are id modulo preload).
	for id := uint64(0); id < preload; id++ {
		v, ok, err := m.LookupChecked(key(id))
		if err != nil || !ok || v%preload != id {
			t.Fatalf("preloaded key %d: Lookup = %d, %v, %v", id, v, ok, err)
		}
	}
	checkStatsConserved(t, m.Stats(), m.ShardStats())
	return preload + writers*perW
}

// TestMigrateCrashAtCopyAborts: a crash injected at reshard.copy.applied
// (on the recipient) aborts the migration — the donor keeps ownership,
// no acknowledged key is lost, and recovery replays only the recipient.
func TestMigrateCrashAtCopyAborts(t *testing.T) {
	const n, h = 2_000, 4
	m := newReshardOrdered(t, h, HashPartition{}, true)
	defer m.Release()
	gen := keys.NewGenerator(keys.RandInt)
	want := make(map[uint64]uint64, n)
	for id := uint64(0); id < n; id++ {
		if err := m.Insert(gen.Key(id), id); err != nil {
			t.Fatal(err)
		}
		want[id] = id
	}
	m.Heap(1).SetInjector(crash.NewAtSite(SiteCopyApplied, 2))
	slots := m.SlotsOf(0)
	err := m.MigrateSlots(0, 1, slots[:len(slots)/2], 64)
	if !crash.IsCrash(err) {
		t.Fatalf("Migrate error = %v, want crash", err)
	}
	if got := m.SlotsOf(0); len(got) != len(slots) {
		t.Fatalf("donor owns %d slots after aborted migration, want unchanged %d", len(got), len(slots))
	}
	if m.rt.Load().mig != nil {
		t.Fatal("handoff window left open after abort")
	}
	m.Heap(1).PowerCycle(pmem.PolicyTorn, 42)
	recovered, rerr := m.RecoverCrashed()
	if rerr != nil {
		t.Fatal(rerr)
	}
	if len(recovered) != 1 || recovered[0] != 1 {
		t.Fatalf("recovered %v, want [1]", recovered)
	}
	for i, c := range m.Recoveries() {
		if want := uint64(0); i == 1 {
			want = 1
		} else if c != want {
			t.Fatalf("shard %d replayed %d times, want %d (healthy shards must not replay)", i, c, want)
		}
	}
	checkOrderedContent(t, m, gen, want)

	// The aborted migration must be retryable to completion.
	if err := m.MigrateSlots(0, 1, slots[:len(slots)/2], 64); err != nil {
		t.Fatal(err)
	}
	checkOrderedContent(t, m, gen, want)
}

// TestCrashedRecipientIsDown: once a copy batch crashes on the recipient,
// the recipient is down until it restarts. A write routed to it fails as
// the crash without touching the index, so no fence of its makes the
// aborted batch's written-back lines durable: the revert image still
// holds none of the batch, nor the failed write.
func TestCrashedRecipientIsDown(t *testing.T) {
	const n, h = 2_000, 2
	m := newReshardOrdered(t, h, HashPartition{}, true)
	defer m.Release()
	gen := keys.NewGenerator(keys.RandInt)
	var donated []uint64
	for id := uint64(0); id < n; id++ {
		if err := m.Insert(gen.Key(id), id); err != nil {
			t.Fatal(err)
		}
		if m.Route(gen.Key(id)) == 0 {
			donated = append(donated, id)
		}
	}
	copied := func() (c int) {
		for _, id := range donated {
			if _, ok := m.Shard(1).Lookup(gen.Key(id)); ok {
				c++
			}
		}
		return c
	}
	m.Heap(1).SetInjector(crash.NewAtSite(group.SiteOpApplied, 1))
	slots := m.SlotsOf(0)
	if err := m.MigrateSlots(0, 1, slots[:len(slots)/2], 64); !crash.IsCrash(err) {
		t.Fatalf("Migrate error = %v, want crash", err)
	}
	if copied() == 0 {
		t.Fatal("the crashed copy batch applied nothing to the recipient")
	}
	late := uint64(n)
	for m.Route(gen.Key(late)) != 1 {
		late++
	}
	if err := m.Insert(gen.Key(late), late); !crash.IsCrash(err) {
		t.Fatalf("write to the crashed recipient = %v, want crash", err)
	}

	m.Heap(1).PowerCycle(pmem.PolicyRevert, 1)
	if _, err := m.RecoverCrashed(); err != nil {
		t.Fatal(err)
	}
	if c := copied(); c != 0 {
		t.Fatalf("revert image holds %d keys of the aborted copy batch: a fence after the crash made them durable", c)
	}
	if _, ok := m.Lookup(gen.Key(late)); ok {
		t.Fatalf("the failed write of id %d survived the revert image", late)
	}
	if err := m.Insert(gen.Key(late), late); err != nil {
		t.Fatalf("write after the restart: %v", err)
	}
}

// TestCopyBatchRejectedByCrashedRecipient: a migration copy batch, like
// every other group commit on a shard, is refused once the recipient's
// crash has fired. A writer's double-applied write or a shadow batch can
// crash the recipient while the copy runs on; a copy batch committed
// after that would reach the image the restart recovers.
func TestCopyBatchRejectedByCrashedRecipient(t *testing.T) {
	m := newReshardOrdered(t, 2, HashPartition{}, false)
	defer m.Release()
	m.Heap(1).SetInjector(crash.NewNth(1))
	fire := func() (err error) {
		defer crash.Catch(&err)
		m.Heap(1).CrashPoint("test.fire")
		return nil
	}
	if err := fire(); !crash.IsCrash(err) {
		t.Fatalf("firing shard 1's injector = %v, want crash", err)
	}
	gen := keys.NewGenerator(keys.RandInt)
	ops := []group.Op[[]byte]{{Key: gen.Key(1), Value: 1}, {Key: gen.Key(2), Value: 2}}
	if err := m.commitCopy(&migration{donor: 0, recipient: 1}, ops); !crash.IsCrash(err) {
		t.Fatalf("copy batch on the crashed recipient = %v, want crash", err)
	}
	if n := m.Shard(1).Len(); n != 0 {
		t.Fatalf("crashed recipient holds %d copied keys, want 0", n)
	}
}

// TestMigrateCrashAtFlipStands: a crash injected at
// reshard.flip.published (on the donor) leaves the flip in force — the
// recipient owns the keys, the skipped residue sweep costs capacity
// only, and recovery replays only the donor.
func TestMigrateCrashAtFlipStands(t *testing.T) {
	const n, h = 2_000, 4
	m := newReshardOrdered(t, h, HashPartition{}, true)
	defer m.Release()
	gen := keys.NewGenerator(keys.RandInt)
	want := make(map[uint64]uint64, n)
	for id := uint64(0); id < n; id++ {
		if err := m.Insert(gen.Key(id), id); err != nil {
			t.Fatal(err)
		}
		want[id] = id
	}
	ver := m.rt.Load().version

	m.Heap(0).SetInjector(crash.NewAtSite(SiteFlipPublished, 1))
	slots := m.SlotsOf(0)
	moved := slots[:len(slots)/2]
	err := m.MigrateSlots(0, 1, moved, 64)
	if !crash.IsCrash(err) {
		t.Fatalf("Migrate error = %v, want crash", err)
	}
	if got := m.rt.Load().version; got <= ver {
		t.Fatalf("table version %d after flip crash, want > %d (flip must stand)", got, ver)
	}
	for _, j := range moved {
		for _, owned := range m.SlotsOf(0) {
			if owned == j {
				t.Fatalf("slot %d still owned by donor after published flip", j)
			}
		}
	}
	m.Heap(0).PowerCycle(pmem.PolicyTorn, 7)
	recovered, rerr := m.RecoverCrashed()
	if rerr != nil {
		t.Fatal(rerr)
	}
	if len(recovered) != 1 || recovered[0] != 0 {
		t.Fatalf("recovered %v, want [0]", recovered)
	}
	// Donor residue survived (sweep skipped), so Len over-counts, but
	// the deduplicating scan and routed lookups must both be exact.
	checkOrderedContent(t, m, gen, want)
	checkStatsConserved(t, m.Stats(), m.ShardStats())
}

// TestRebalanceImprovesSkew: drive a zipfian(0.99) read workload at a
// hash-sharded front-end, then Rebalance; the measured per-shard load
// imbalance projected by the flipped table must improve at least 2×
// over the static hash assignment.
func TestRebalanceImprovesSkew(t *testing.T) {
	const (
		n   = 4_096
		h   = 8
		ops = 200_000
	)
	m := newReshardOrdered(t, h, HashPartition{}, false)
	defer m.Release()
	gen := keys.NewGenerator(keys.RandInt)
	for id := uint64(0); id < n; id++ {
		if err := m.Insert(gen.Key(id), id); err != nil {
			t.Fatal(err)
		}
	}
	sampler := ycsb.Zipfian{Theta: 0.99}.NewSampler(n, rand.New(rand.NewSource(1)))
	for i := 0; i < ops; i++ {
		m.Lookup(gen.Key(sampler.Next()))
	}

	rep, err := m.Rebalance(RebalanceOptions{Tolerance: 1.05})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Moves) == 0 {
		t.Fatal("rebalancer made no moves on a zipfian-skewed table")
	}
	t.Logf("imbalance %.3f -> %.3f in %d moves", rep.Before, rep.After, len(rep.Moves))
	if rep.Before < 1.3 {
		t.Fatalf("zipfian load produced imbalance %.3f; workload not skewed enough to test", rep.Before)
	}
	if excess, residual := rep.Before-1, rep.After-1; residual > excess/2 {
		t.Fatalf("rebalance improved excess imbalance only %.3f -> %.3f, want >= 2x", excess, residual)
	}
	// The moved keys must actually be served by their new shards.
	if got := m.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	for id := uint64(0); id < n; id++ {
		key := gen.Key(id)
		if _, ok := m.Shard(m.Route(key)).Lookup(key); !ok {
			t.Fatalf("key %d absent from its routed shard after rebalance", id)
		}
	}
}

// TestRebalanceRange: on a range front-end the planner moves the hot
// shard's measured hottest slots and so moves load off it.
func TestRebalanceRange(t *testing.T) {
	const n, h = 4_096, 4
	m := newReshardOrdered(t, h, RangePartition{}, false)
	defer m.Release()
	gen := keys.NewGenerator(keys.RandInt)
	for id := uint64(0); id < n; id++ {
		if err := m.Insert(gen.Key(id), id); err != nil {
			t.Fatal(err)
		}
	}
	// Hammer keys that land in shard 0's span (top bits 00).
	hot := 0
	for id := uint64(0); hot < 50_000; id++ {
		key := gen.Key(id % n)
		if m.Route(key) == 0 {
			m.Lookup(key)
			hot++
		}
	}
	rep, err := m.Rebalance(RebalanceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Moves) == 0 || len(rep.Moves[0].Slots) == 0 || rep.Moves[0].Donor != 0 {
		t.Fatalf("expected a slot move off shard 0, got %+v", rep.Moves)
	}
	if rep.After >= rep.Before {
		t.Fatalf("imbalance did not improve: %.3f -> %.3f", rep.Before, rep.After)
	}
	want := make(map[uint64]uint64, n)
	for id := uint64(0); id < n; id++ {
		want[id] = id
	}
	checkOrderedContent(t, m, gen, want)
}

// TestLoadReportEpochs: LoadReport returns per-epoch deltas that sum to
// the cumulative op counts, and Imbalance reflects a skewed stream.
func TestLoadReportEpochs(t *testing.T) {
	const h = 4
	m := newReshardOrdered(t, h, HashPartition{}, false)
	defer m.Release()
	gen := keys.NewGenerator(keys.RandInt)
	for id := uint64(0); id < 1_000; id++ {
		if err := m.Insert(gen.Key(id), id); err != nil {
			t.Fatal(err)
		}
	}
	r1 := m.LoadReport()
	if r1.Epoch != 1 {
		t.Fatalf("first epoch = %d, want 1", r1.Epoch)
	}
	if got := r1.TotalOps(); got != 1_000 {
		t.Fatalf("epoch 1 ops = %d, want 1000", got)
	}
	// Second epoch: hammer one key; the delta must isolate it.
	hotKey := gen.Key(3)
	for i := 0; i < 5_000; i++ {
		m.Lookup(hotKey)
	}
	r2 := m.LoadReport()
	if r2.Epoch != 2 {
		t.Fatalf("second epoch = %d, want 2", r2.Epoch)
	}
	if got := r2.TotalOps(); got != 5_000 {
		t.Fatalf("epoch 2 ops = %d, want 5000 (delta, not cumulative)", got)
	}
	if r2.Imbalance() < float64(h)*0.99 {
		t.Fatalf("single-key epoch imbalance = %.3f, want ~%d", r2.Imbalance(), h)
	}
	if got := r2.Loads[m.Route(hotKey)].Ops; got != 5_000 {
		t.Fatalf("hot shard's epoch 2 ops = %d, want 5000", got)
	}
}

// TestLoadReportFollowsOwnership: a shard's load is the load of the
// slots it owns at the report. Slots migrated mid-epoch bring their
// epoch count to the recipient without changing the total, on a hash
// front-end and on a range front-end alike; an H = 1 front-end reports every op
// under shard 0.
func TestLoadReportFollowsOwnership(t *testing.T) {
	const n, h = 2_000, 4
	gen := keys.NewGenerator(keys.RandInt)
	load := func(m *Ordered) {
		t.Helper()
		for id := uint64(0); id < n; id++ {
			if err := m.Insert(gen.Key(id), id); err != nil {
				t.Fatal(err)
			}
		}
		if got := m.LoadReport().TotalOps(); got != n {
			t.Fatalf("load epoch ops = %d, want %d", got, n)
		}
	}
	wantLoads := func(r LoadReport, want []uint64) {
		t.Helper()
		for s, l := range r.Loads {
			if l.Ops != want[s] {
				t.Fatalf("shard %d ops = %d, want %d (all: %+v, want %v)", s, l.Ops, want[s], r.Loads, want)
			}
		}
	}

	t.Run("slots", func(t *testing.T) {
		m := newReshardOrdered(t, h, HashPartition{}, false)
		defer m.Release()
		load(m)
		own := m.SlotsOf(0)
		moved := own[:len(own)/2]
		inMoved := make(map[uint64]bool, len(moved))
		for _, j := range moved {
			inMoved[uint64(j)] = true
		}
		want := make([]uint64, h)
		var movedOps uint64
		for id := uint64(0); id < n; id++ {
			key := gen.Key(id)
			m.Lookup(key)
			p := HashPartition{}.Point(key)
			if inMoved[p%(h*SlotsPerShard)] {
				want[1]++
				movedOps++
			} else {
				want[p%h]++
			}
		}
		if movedOps == 0 {
			t.Fatal("test setup: no lookup hit a moved slot")
		}
		if err := m.MigrateSlots(0, 1, moved, 64); err != nil {
			t.Fatal(err)
		}
		r := m.LoadReport()
		if got := r.TotalOps(); got != n {
			t.Fatalf("TotalOps = %d after migration, want %d", got, n)
		}
		wantLoads(r, want)
	})

	t.Run("range flip", func(t *testing.T) {
		m := newReshardOrdered(t, h, RangePartition{}, false)
		defer m.Release()
		load(m)
		lo := uint64(1) << 61 // shard 0's range is [0, 2^62); its upper half moves
		want := make([]uint64, h)
		lookup := func(id uint64) {
			key := gen.Key(id)
			m.Lookup(key)
			if p := (RangePartition{}).Point(key); p >= lo && p < 2*lo {
				want[h-1]++
			} else {
				want[closedForm(p, h, true)]++
			}
		}
		for id := uint64(0); id < n; id++ {
			lookup(id) // pre-flip ops of the epoch: counted where the flip leaves them
		}
		slots := m.SlotsOf(0)
		if err := m.MigrateSlots(0, h-1, slots[len(slots)/2:], 64); err != nil {
			t.Fatal(err)
		}
		for id := uint64(0); id < n; id += 3 {
			lookup(id)
		}
		r := m.LoadReport()
		if got, total := r.TotalOps(), uint64(n+(n+2)/3); got != total {
			t.Fatalf("TotalOps = %d, want %d (counts survive the flip)", got, total)
		}
		wantLoads(r, want)
	})

	t.Run("one shard", func(t *testing.T) {
		for _, part := range []Partitioner{HashPartition{}, RangePartition{}} {
			m := newReshardOrdered(t, 1, part, false)
			key := gen.Key(7)
			if err := m.Insert(key, 1); err != nil {
				t.Fatal(err)
			}
			m.Lookup(key)
			m.Route(key)
			if err := m.ApplyBatch([]group.Op[[]byte]{{Key: key, Value: 2, Update: true}, {Key: gen.Key(8), Value: 3}}, nil); err != nil {
				t.Fatal(err)
			}
			r := m.LoadReport()
			if len(r.Loads) != 1 || r.Loads[0].Ops != 5 {
				t.Fatalf("%s H=1 report = %+v, want 5 ops under shard 0", part.Name(), r.Loads)
			}
			m.Release()
		}
	})
}

// TestMigrateValidation: the migration entry points reject nonsense.
func TestMigrateValidation(t *testing.T) {
	m, err := NewOrdered("P-ART", keys.RandInt, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	cases := []error{
		m.MigrateSlots(0, 0, []int{0}, 0),       // donor == recipient
		m.MigrateSlots(0, 9, []int{0}, 0),       // recipient out of range
		m.MigrateSlots(0, 1, nil, 0),            // no slots
		m.MigrateSlots(0, 1, []int{1}, 0),       // slot owned by shard 1
		m.MigrateSlots(0, 1, []int{1 << 20}, 0), // slot out of range
	}
	for i, err := range cases {
		if err == nil {
			t.Fatalf("case %d: invalid migration accepted", i)
		}
	}

	r, err := NewOrdered("P-ART", keys.RandInt, Options{Shards: 4, Partitioner: RangePartition{}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Release()
	if err := r.MigrateSlots(0, 1, []int{SlotsPerShard - 1, SlotsPerShard}, 0); err == nil {
		t.Fatal("slots crossing into shard 1's range accepted")
	}
	if err := r.MigrateSlots(0, 1, nil, 0); err == nil {
		t.Fatal("empty slot set accepted")
	}
}

// TestRecoverCrashedParallel: crash several shards at once; the sweep
// recovers all of them, reports them in shard order, and replays no
// healthy shard.
func TestRecoverCrashedParallel(t *testing.T) {
	const n, h = 3_000, 8
	m, err := NewOrdered("P-ART", keys.RandInt, Options{Shards: h, Heap: pmem.Options{Shadow: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	gen := keys.NewGenerator(keys.RandInt)
	committed := make(map[uint64]uint64, n)
	for id := uint64(0); id < n; id++ {
		if err := m.Insert(gen.Key(id), id); err != nil {
			t.Fatal(err)
		}
		committed[id] = id
	}
	victims := []int{1, 4, 6}
	for _, s := range victims {
		m.Heap(s).SetInjector(crash.NewNth(5))
	}
	crashed := map[int]bool{}
	for id := uint64(n); id < n+50_000 && len(crashed) < len(victims); id++ {
		key := gen.Key(id)
		s := m.Route(key)
		if crashed[s] {
			continue
		}
		err := m.Insert(key, id)
		switch {
		case crash.IsCrash(err):
			crashed[s] = true
		case err != nil:
			t.Fatal(err)
		default:
			committed[id] = id
		}
	}
	if len(crashed) != len(victims) {
		t.Fatalf("crashed %v, want all of %v", crashed, victims)
	}
	for _, s := range victims {
		m.Heap(s).PowerCycle(pmem.PolicyRevert, int64(s))
	}
	recovered, rerr := m.RecoverCrashed()
	if rerr != nil {
		t.Fatal(rerr)
	}
	if fmt.Sprint(recovered) != fmt.Sprint(victims) {
		t.Fatalf("recovered %v, want %v (deterministic shard order)", recovered, victims)
	}
	for i, c := range m.Recoveries() {
		want := uint64(0)
		for _, s := range victims {
			if s == i {
				want = 1
			}
		}
		if c != want {
			t.Fatalf("shard %d replayed %d times, want %d", i, c, want)
		}
	}
	for id, v := range committed {
		got, ok, err := m.LookupChecked(gen.Key(id))
		if err != nil || !ok || got != v {
			t.Fatalf("acknowledged key %d: %d, %v, %v; want %d", id, got, ok, err, v)
		}
	}
}
