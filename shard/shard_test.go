package shard

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/crash"
	"repro/internal/keys"
	"repro/internal/pmem"
)

// TestPartitionerRoutesExactlyOnce: routing is total, in-range, and
// deterministic — every key maps to exactly one shard, every time.
func TestPartitionerRoutesExactlyOnce(t *testing.T) {
	gen := keys.NewGenerator(keys.RandInt)
	sgen := keys.NewGenerator(keys.YCSBString)
	for _, part := range []Partitioner{HashPartition{}, RangePartition{}} {
		for _, h := range []int{1, 2, 3, 4, 8} {
			tab := newTable(h, part.OrderPreserving())
			for id := uint64(0); id < 10_000; id++ {
				for _, key := range [][]byte{gen.Key(id), sgen.Key(id)} {
					s, _ := tab.locate(part.Point(key))
					if s < 0 || s >= h {
						t.Fatalf("%s: key %x with %d shards routed to %d", part.Name(), key, h, s)
					}
					if again, _ := tab.locate(part.Point(key)); again != s {
						t.Fatalf("%s: key %x routed to %d then %d", part.Name(), key, s, again)
					}
				}
			}
		}
	}
}

// TestPartitionerKeyInOneShard: after inserting through the front-end,
// each key is present in exactly one underlying shard index and the
// shard Lens sum to the key count.
func TestPartitionerKeyInOneShard(t *testing.T) {
	const n, h = 5_000, 4
	m, err := NewOrdered("P-ART", keys.RandInt, Options{Shards: h})
	if err != nil {
		t.Fatal(err)
	}
	gen := keys.NewGenerator(keys.RandInt)
	for id := uint64(0); id < n; id++ {
		if err := m.Insert(gen.Key(id), id); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	for id := uint64(0); id < n; id += 97 {
		key := gen.Key(id)
		holders := 0
		for i := 0; i < h; i++ {
			if _, ok := m.Shard(i).Lookup(key); ok {
				holders++
			}
		}
		if holders != 1 {
			t.Fatalf("key %d present in %d shards, want exactly 1", id, holders)
		}
	}
}

// TestHashBalance: uniform keys spread within tolerance of the ideal
// per-shard share under the default hash partitioner, for both key
// kinds.
func TestHashBalance(t *testing.T) {
	const n, h = 100_000, 8
	for _, kind := range []keys.Kind{keys.RandInt, keys.YCSBString} {
		gen := keys.NewGenerator(kind)
		var counts [h]int
		tab := newTable(h, false)
		for id := uint64(0); id < n; id++ {
			s, _ := tab.locate(HashPartition{}.Point(gen.Key(id)))
			counts[s]++
		}
		ideal := n / h
		for i, c := range counts {
			if c < ideal*9/10 || c > ideal*11/10 {
				t.Errorf("%s: shard %d holds %d keys, outside ±10%% of ideal %d (counts %v)",
					kind, i, c, ideal, counts)
			}
		}
	}
}

// TestRangePartitionMonotonic: the range partitioner is order-preserving
// over the key space, so a scan's key order never moves backwards across
// shard boundaries.
func TestRangePartitionMonotonic(t *testing.T) {
	const h = 8
	prev := -1
	var prevKey []byte
	tab := newTable(h, true)
	for v := uint64(0); v < 1<<16; v += 257 {
		key := keys.EncodeUint64(v << 48)
		s, _ := tab.locate(RangePartition{}.Point(key))
		if s < prev {
			t.Fatalf("key %x in shard %d after key %x in shard %d", key, s, prevKey, prev)
		}
		prev, prevKey = s, key
	}
	if prev != h-1 {
		t.Fatalf("largest keys reached shard %d, want %d", prev, h-1)
	}
}

// TestShardedMatchesUnsharded: the H-shard front-end is observationally
// equivalent to one index — lookups, deletes, and globally ordered merged
// scans agree — under both partitioners.
func TestShardedMatchesUnsharded(t *testing.T) {
	const n = 4_000
	for _, part := range []Partitioner{HashPartition{}, RangePartition{}} {
		t.Run(part.Name(), func(t *testing.T) {
			gen := keys.NewGenerator(keys.RandInt)
			single, err := NewOrdered("P-ART", keys.RandInt, Options{Shards: 1})
			if err != nil {
				t.Fatal(err)
			}
			sharded, err := NewOrdered("P-ART", keys.RandInt, Options{Shards: 4, Partitioner: part})
			if err != nil {
				t.Fatal(err)
			}
			for id := uint64(0); id < n; id++ {
				k := gen.Key(id)
				if err := single.Insert(k, id); err != nil {
					t.Fatal(err)
				}
				if err := sharded.Insert(k, id); err != nil {
					t.Fatal(err)
				}
			}
			// Delete a stride through both.
			for id := uint64(0); id < n; id += 11 {
				k := gen.Key(id)
				if _, err := single.Delete(k); err != nil {
					t.Fatal(err)
				}
				ok, err := sharded.Delete(k)
				if err != nil || !ok {
					t.Fatalf("sharded delete id %d: %v %v", id, ok, err)
				}
			}
			if single.Len() != sharded.Len() {
				t.Fatalf("Len: single %d, sharded %d", single.Len(), sharded.Len())
			}
			for id := uint64(0); id < n; id++ {
				k := gen.Key(id)
				v1, ok1 := single.Lookup(k)
				v2, ok2 := sharded.Lookup(k)
				if v1 != v2 || ok1 != ok2 {
					t.Fatalf("lookup id %d: single (%d,%v), sharded (%d,%v)", id, v1, ok1, v2, ok2)
				}
			}
			// Merged scans must agree in content and order, bounded and not.
			for _, count := range []int{50, 0} {
				var want, got []uint64
				var wantKeys, gotKeys [][]byte
				single.Scan(nil, count, func(k []byte, v uint64) bool {
					want = append(want, v)
					wantKeys = append(wantKeys, append([]byte(nil), k...))
					return true
				})
				sharded.Scan(nil, count, func(k []byte, v uint64) bool {
					got = append(got, v)
					gotKeys = append(gotKeys, append([]byte(nil), k...))
					return true
				})
				if len(want) != len(got) {
					t.Fatalf("scan(count=%d): single %d entries, sharded %d", count, len(want), len(got))
				}
				for i := range want {
					if want[i] != got[i] || !bytes.Equal(wantKeys[i], gotKeys[i]) {
						t.Fatalf("scan(count=%d) entry %d: single (%x,%d), sharded (%x,%d)",
							count, i, wantKeys[i], want[i], gotKeys[i], got[i])
					}
				}
				for i := 1; i < len(gotKeys); i++ {
					if bytes.Compare(gotKeys[i-1], gotKeys[i]) >= 0 {
						t.Fatalf("merged scan out of order at %d: %x >= %x", i, gotKeys[i-1], gotKeys[i])
					}
				}
			}
			// A key on which fn returns false is not counted as visited —
			// the merged path must agree with the single index.
			for _, stop := range []int{0, 3} {
				visit := func(m *Ordered) int {
					seen := 0
					return m.Scan(nil, 0, func([]byte, uint64) bool {
						if seen == stop {
							return false
						}
						seen++
						return true
					})
				}
				if a, b := visit(single), visit(sharded); a != b || a != stop {
					t.Fatalf("early-stop scan after %d: single visited %d, sharded %d", stop, a, b)
				}
			}
		})
	}
}

// TestStatsConservation reuses the conservation idiom of pmem's
// TestStatsConservationConcurrent across shards: a concurrent hammer
// with known per-shard op counts must aggregate to exact serial
// expectations, and the aggregate Stats must equal the field-wise sum
// of ShardStats bit-exactly.
func TestStatsConservation(t *testing.T) {
	const (
		h    = 8
		gPer = 4
		ops  = 20_000
		size = 100 // 2 lines -> 2 clwb per Persist
	)
	m, err := NewOrdered("P-ART", keys.RandInt, Options{Shards: h})
	if err != nil {
		t.Fatal(err)
	}
	// Index construction itself allocates (root nodes); measure deltas
	// from this baseline.
	aggBase := m.Stats()
	perBase := m.ShardStats()
	var wg sync.WaitGroup
	for i := 0; i < h; i++ {
		heap := m.Heap(i)
		for g := 0; g < gPer; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < ops; j++ {
					o := heap.Alloc(size)
					heap.Persist(o, 0, size)
					heap.Fence()
				}
			}()
		}
	}
	wg.Wait()
	agg := m.Stats().Sub(aggBase)
	per := m.ShardStats()
	for i := range per {
		per[i] = per[i].Sub(perBase[i])
	}
	var sum pmem.Stats
	for _, p := range per {
		sum = sum.Add(p)
	}
	if agg != sum {
		t.Fatalf("aggregate %+v != sum of shard stats %+v", agg, sum)
	}
	perShard := uint64(gPer * ops)
	for i, p := range per {
		if p.Clwb != 2*perShard || p.Fence != perShard || p.Allocs != perShard || p.AllocBytes != perShard*size {
			t.Fatalf("shard %d stats %+v do not match serial expectations", i, p)
		}
	}
	n := uint64(h) * perShard
	if agg.Clwb != 2*n || agg.Fence != n || agg.Allocs != n || agg.AllocBytes != n*size {
		t.Fatalf("aggregate %+v does not match serial expectations for %d ops", agg, n)
	}
}

// TestCrashInOneShardRecoversOnlyThatShard is the per-shard recovery
// invariant: a crash injected into shard k is recovered by replaying
// shard k alone; the other shards keep serving reads and writes with no
// replay, and no committed key is lost.
func TestCrashInOneShardRecoversOnlyThatShard(t *testing.T) {
	const (
		h      = 4
		target = 2
		loadN  = 2_000
	)
	m, err := NewOrdered("P-ART", keys.RandInt, Options{Shards: h})
	if err != nil {
		t.Fatal(err)
	}
	gen := keys.NewGenerator(keys.RandInt)
	committed := make(map[uint64]uint64)
	for id := uint64(0); id < loadN; id++ {
		if err := m.Insert(gen.Key(id), id); err != nil {
			t.Fatal(err)
		}
		committed[id] = id
	}

	// Arm only shard `target` and write into it until the crash fires.
	m.Heap(target).SetInjector(crash.NewNth(10))
	crashed := false
	for id := uint64(loadN); id < loadN+10_000 && !crashed; id++ {
		if m.Owner(gen.Key(id)) != target {
			continue
		}
		err := m.Insert(gen.Key(id), id)
		switch {
		case crash.IsCrash(err):
			crashed = true
		case err != nil:
			t.Fatal(err)
		default:
			committed[id] = id
		}
	}
	if !crashed {
		t.Fatal("injector never fired in target shard")
	}

	// The other shards accept writes while shard `target` is down.
	for id := uint64(20_000); id < 22_000; id++ {
		if m.Owner(gen.Key(id)) == target {
			continue
		}
		if err := m.Insert(gen.Key(id), id); err != nil {
			t.Fatalf("insert to healthy shard failed while shard %d was crashed: %v", target, err)
		}
		committed[id] = id
	}

	recovered, err := m.RecoverCrashed()
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 || recovered[0] != target {
		t.Fatalf("RecoverCrashed replayed shards %v, want [%d]", recovered, target)
	}
	for i, n := range m.Recoveries() {
		want := uint64(0)
		if i == target {
			want = 1
		}
		if n != want {
			t.Fatalf("shard %d replayed %d times, want %d (recoveries %v)", i, n, want, m.Recoveries())
		}
	}

	// No committed key lost, and the recovered shard accepts writes again.
	for id, v := range committed {
		if got, ok := m.Lookup(gen.Key(id)); !ok || got != v {
			t.Fatalf("committed key %d lost after per-shard recovery: got %d,%v", id, got, ok)
		}
	}
	for id := uint64(30_000); id < 31_000; id++ {
		if err := m.Insert(gen.Key(id), id); err != nil {
			t.Fatalf("insert after recovery: %v", err)
		}
	}
}

// TestHashFrontEnd: the sharded unordered front-end routes, conserves
// Len, and recovers per shard.
func TestHashFrontEnd(t *testing.T) {
	const n, h = 10_000, 4
	m, err := NewHash("P-CLHT", Options{Shards: h})
	if err != nil {
		t.Fatal(err)
	}
	gen := keys.NewGenerator(keys.RandInt)
	for id := uint64(0); id < n; id++ {
		k := gen.Uint64(id) | 1
		if err := m.Insert(k, id); err != nil {
			t.Fatal(err)
		}
	}
	if m.Len() != n {
		t.Fatalf("Len = %d, want %d", m.Len(), n)
	}
	for id := uint64(0); id < n; id++ {
		k := gen.Uint64(id) | 1
		if v, ok := m.Lookup(k); !ok || v != id {
			t.Fatalf("lookup %d: got %d,%v", id, v, ok)
		}
		holders := 0
		for i := 0; i < h; i++ {
			if _, ok := m.Shard(i).Lookup(k); ok {
				holders++
			}
		}
		if holders != 1 {
			t.Fatalf("key %d present in %d shards", id, holders)
		}
	}
	if err := m.Recover(); err != nil {
		t.Fatal(err)
	}
	for _, c := range m.Recoveries() {
		if c != 1 {
			t.Fatalf("full Recover counts %v, want all 1", m.Recoveries())
		}
	}
}

// TestShardedUpdateRoutes: Update routes to the owning shard (same
// shard as the original insert), rewrites in place, and leaves the
// cross-shard Len unchanged.
func TestShardedUpdateRoutes(t *testing.T) {
	m, err := NewOrdered("P-ART", keys.RandInt, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	gen := keys.NewGenerator(keys.RandInt)
	const n = 500
	for i := uint64(0); i < n; i++ {
		if err := m.Insert(gen.Key(i), i); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < n; i++ {
		if err := m.Update(gen.Key(i), i+7_000_000); err != nil {
			t.Fatal(err)
		}
	}
	if m.Len() != n {
		t.Fatalf("updates grew cross-shard Len to %d, want %d", m.Len(), n)
	}
	for i := uint64(0); i < n; i++ {
		if v, ok := m.Lookup(gen.Key(i)); !ok || v != i+7_000_000 {
			t.Fatalf("lookup %d after update = %d,%v", i, v, ok)
		}
	}

	h, err := NewHash("P-CLHT", Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	for i := uint64(1); i <= n; i++ {
		if err := h.Insert(i, i); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(1); i <= n; i++ {
		if err := h.Update(i, i+7_000_000); err != nil {
			t.Fatal(err)
		}
	}
	if h.Len() != n {
		t.Fatalf("hash updates grew cross-shard Len to %d, want %d", h.Len(), n)
	}
	for i := uint64(1); i <= n; i++ {
		if v, ok := h.Lookup(i); !ok || v != i+7_000_000 {
			t.Fatalf("hash lookup %d after update = %d,%v", i, v, ok)
		}
	}
}

// TestNewOrderedUnknownName surfaces the registry error with the shard
// index attached.
func TestNewOrderedUnknownName(t *testing.T) {
	if _, err := NewOrdered("no-such-index", keys.RandInt, Options{Shards: 2}); err == nil {
		t.Fatal("want error for unknown index name")
	}
	if _, err := NewHash("no-such-index", Options{Shards: 2}); err == nil {
		t.Fatal("want error for unknown index name")
	}
}

// TestFrontEndImplementsCoreInterfaces pins the drop-in property the
// harness relies on.
func TestFrontEndImplementsCoreInterfaces(t *testing.T) {
	var _ core.OrderedIndex = (*Ordered)(nil)
	var _ core.HashIndex = (*Hash)(nil)
}

// TestEveryIndexSharded smoke-tests the front-end over the full registry.
func TestEveryIndexSharded(t *testing.T) {
	gen := keys.NewGenerator(keys.RandInt)
	for _, name := range core.OrderedNames {
		m, err := NewOrdered(name, keys.RandInt, Options{Shards: 3})
		if err != nil {
			t.Fatal(err)
		}
		for id := uint64(0); id < 500; id++ {
			if err := m.Insert(gen.Key(id), id); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		for id := uint64(0); id < 500; id++ {
			if v, ok := m.Lookup(gen.Key(id)); !ok || v != id {
				t.Fatalf("%s: lookup %d got %d,%v", name, id, v, ok)
			}
		}
		if got := m.Scan(nil, 100, func([]byte, uint64) bool { return true }); got != 100 {
			t.Fatalf("%s: scan visited %d, want 100", name, got)
		}
	}
	for _, name := range core.HashNames {
		m, err := NewHash(name, Options{Shards: 3})
		if err != nil {
			t.Fatal(err)
		}
		for id := uint64(0); id < 500; id++ {
			if err := m.Insert(gen.Uint64(id)|1, id); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		for id := uint64(0); id < 500; id++ {
			if v, ok := m.Lookup(gen.Uint64(id) | 1); !ok || v != id {
				t.Fatalf("%s: lookup %d got %d,%v", name, id, v, ok)
			}
		}
	}
}

func ExampleOrdered() {
	m, err := NewOrdered("P-ART", keys.RandInt, Options{Shards: 4})
	if err != nil {
		panic(err)
	}
	gen := keys.NewGenerator(keys.RandInt)
	for id := uint64(0); id < 1000; id++ {
		if err := m.Insert(gen.Key(id), id); err != nil {
			panic(err)
		}
	}
	fmt.Println(m.NumShards(), m.Len(), m.PartitionerName())
	// Output: 4 1000 hash
}
