package recipe_test

import (
	"testing"

	recipe "repro"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/keys"
	"repro/internal/pmem"
	"repro/internal/ycsb"
	"repro/shard"
)

// TestPublicAPIRoundTrip exercises the exported surface the examples use.
func TestPublicAPIRoundTrip(t *testing.T) {
	heap := recipe.NewHeap()
	idx, err := recipe.NewOrdered("P-ART", heap, recipe.YCSBString)
	if err != nil {
		t.Fatal(err)
	}
	gen := keys.NewGenerator(keys.YCSBString)
	for i := uint64(0); i < 2000; i++ {
		if err := idx.Insert(gen.Key(i), i); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 2000; i++ {
		if v, ok := idx.Lookup(gen.Key(i)); !ok || v != i {
			t.Fatalf("lookup %d = %d,%v", i, v, ok)
		}
	}
	if heap.Stats().Clwb == 0 {
		t.Fatal("no clwb counted — persistence placements missing")
	}
}

// TestAllIndexesThroughPublicAPI runs a small YCSB A against every index
// on a shard front-end.
func TestAllIndexesThroughPublicAPI(t *testing.T) {
	for _, name := range core.OrderedNames {
		m, err := shard.NewOrdered(name, keys.RandInt, shard.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := harness.Run(name, harness.ShardedOrdered(m, keys.RandInt), harness.WritePath{}, ycsb.A, 3000, 3000, 4, 7, true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.MopsPerSec() <= 0 {
			t.Fatalf("%s: zero throughput", name)
		}
	}
	for _, name := range core.HashNames {
		m, err := shard.NewHash(name, shard.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := harness.Run(name, harness.ShardedHash(m), harness.WritePath{}, ycsb.A, 3000, 3000, 4, 7, true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.MopsPerSec() <= 0 {
			t.Fatalf("%s: zero throughput", name)
		}
	}
}

// TestCrashRecoveryAllRecipeIndexes is the §7.5 headline at test scale:
// every RECIPE-converted index survives its crash campaign.
func TestCrashRecoveryAllRecipeIndexes(t *testing.T) {
	for _, name := range []string{"P-ART", "P-HOT", "P-BwTree", "P-Masstree", "P-CLHT"} {
		t.Run(name, func(t *testing.T) {
			rep := harness.CrashCampaign(name, harness.ByName(name, keys.RandInt), 25, 2000, 2000, 4)
			if !rep.Pass() {
				t.Fatalf("crash campaign failed: %s", rep)
			}
			if rep.Fired() == 0 {
				t.Fatal("campaign never crashed; vacuous")
			}
		})
	}
}

// TestDurabilityAllRecipeIndexes: §5 flush coverage of construction,
// inserts and updates for all conversions and the four PM baselines.
func TestDurabilityAllRecipeIndexes(t *testing.T) {
	for _, name := range append(append(append([]string(nil), core.OrderedNames...), "WOART"), core.HashNames...) {
		rep := harness.Durability(name, harness.ByName(name, keys.YCSBString), 800)
		if !rep.Pass() {
			t.Fatalf("durability failed: %s", rep)
		}
	}
}

// TestOrderedIndexesAgreeUnderYCSB cross-checks all five ordered indexes
// against one another: identical workloads must leave identical logical
// contents.
func TestOrderedIndexesAgreeUnderYCSB(t *testing.T) {
	const loadN, opN = 2000, 2000
	contents := map[string]map[uint64]uint64{}
	for _, name := range core.OrderedNames {
		idx, err := shard.NewOrdered(name, keys.RandInt, shard.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := harness.Run(name, harness.ShardedOrdered(idx, keys.RandInt), harness.WritePath{}, ycsb.A, loadN, opN, 1, 9, true); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := map[uint64]uint64{}
		idx.Scan(nil, 0, func(k []byte, v uint64) bool {
			got[keys.DecodeUint64(k)] = v
			return true
		})
		contents[name] = got
	}
	ref := contents[core.OrderedNames[0]]
	for name, got := range contents {
		if len(got) != len(ref) {
			t.Fatalf("%s holds %d keys, reference holds %d", name, len(got), len(ref))
		}
		for k, v := range ref {
			if got[k] != v {
				t.Fatalf("%s disagrees on key %d: %d vs %d", name, k, got[k], v)
			}
		}
	}
}

func TestWorkloadByName(t *testing.T) {
	w, err := ycsb.ByName("E")
	if err != nil || w.ScanPct != 95 {
		t.Fatalf("ByName(E) = %+v, %v", w, err)
	}
	if _, err := ycsb.ByName("Q"); err == nil {
		t.Fatal("bogus workload accepted")
	}
	if len(ycsb.All) != 5 {
		t.Fatal("expected 5 workloads")
	}
}

// TestStreamingScanPublicAPI pins the exported streaming scan surface:
// the shard package's Cursor, a bare index's own iterator, and the
// per-site durability campaign.
func TestStreamingScanPublicAPI(t *testing.T) {
	m, err := shard.NewOrdered("P-ART", keys.RandInt, shard.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	gen := keys.NewGenerator(keys.RandInt)
	for id := uint64(0); id < 500; id++ {
		if err := m.Insert(gen.Key(id), id); err != nil {
			t.Fatal(err)
		}
	}
	var want []uint64
	m.Scan(nil, 0, func(_ []byte, v uint64) bool {
		want = append(want, v)
		return true
	})
	if len(want) != 500 {
		t.Fatalf("scan visited %d, want 500", len(want))
	}
	cur := m.Cursor(nil)
	for i := 0; ; i++ {
		_, v, ok := cur.Next()
		if !ok {
			if i != len(want) {
				t.Fatalf("cursor ended at %d, want %d", i, len(want))
			}
			break
		}
		if v != want[i] {
			t.Fatalf("cursor entry %d = %d, want %d", i, v, want[i])
		}
	}

	heap := recipe.NewHeap()
	idx, err := recipe.NewOrdered("FAST & FAIR", heap, recipe.RandInt)
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(0); id < 100; id++ {
		if err := idx.Insert(gen.Key(id), id); err != nil {
			t.Fatal(err)
		}
	}
	n, it := 0, idx.NewIterator()
	for it.Seek(nil); ; n++ {
		if _, _, ok := it.Next(); !ok {
			break
		}
	}
	if n != 100 {
		t.Fatalf("iterator yielded %d entries, want 100", n)
	}

	rep := harness.SiteCampaign("P-ART", harness.ByName("P-ART", keys.RandInt), harness.WritePath{}, pmem.PolicyIntact, 0, 600, 50, 2)
	if len(rep.Sites) == 0 || !rep.Pass() {
		t.Fatalf("per-site campaign: %s", rep.String())
	}
}
