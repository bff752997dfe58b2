package recipe_test

import (
	"strings"
	"testing"

	recipe "repro"
	"repro/internal/harness"
	"repro/internal/keys"
	"repro/internal/pmem"
	"repro/internal/ycsb"
)

// TestPublicAPIRoundTrip exercises the exported surface the examples use.
func TestPublicAPIRoundTrip(t *testing.T) {
	heap := recipe.NewHeap()
	idx, err := recipe.NewOrdered("P-ART", heap, recipe.YCSBString)
	if err != nil {
		t.Fatal(err)
	}
	gen := recipe.NewKeyGenerator(recipe.YCSBString)
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

// TestAllIndexesThroughPublicAPI runs a small YCSB A against every index.
func TestAllIndexesThroughPublicAPI(t *testing.T) {
	for _, name := range recipe.OrderedNames() {
		m, err := recipe.NewShardedOrdered(name, recipe.RandInt, recipe.ShardOptions{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := recipe.RunWorkload(name, recipe.ShardedOrderedTarget(m, recipe.RandInt), recipe.WritePath{}, ycsb.A, 3000, 3000, 4, 7)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.MopsPerSec() <= 0 {
			t.Fatalf("%s: zero throughput", name)
		}
	}
	for _, name := range recipe.HashNames() {
		m, err := recipe.NewShardedHash(name, recipe.ShardOptions{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := recipe.RunWorkload(name, recipe.ShardedHashTarget(m), recipe.WritePath{}, ycsb.A, 3000, 3000, 4, 7)
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
			rep := harness.CrashCampaign(name, recipe.IndexByName(name, recipe.RandInt), 25, 2000, 2000, 4)
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
	for _, name := range append(append(recipe.OrderedNames(), "WOART"), recipe.HashNames()...) {
		rep := harness.Durability(name, recipe.IndexByName(name, recipe.YCSBString), 800)
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
	for _, name := range recipe.OrderedNames() {
		idx, err := recipe.NewShardedOrdered(name, recipe.RandInt, recipe.ShardOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := recipe.RunWorkload(name, recipe.ShardedOrderedTarget(idx, recipe.RandInt), recipe.WritePath{}, ycsb.A, loadN, opN, 1, 9); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := map[uint64]uint64{}
		idx.Scan(nil, 0, func(k []byte, v uint64) bool {
			got[keys.DecodeUint64(k)] = v
			return true
		})
		contents[name] = got
	}
	ref := contents[recipe.OrderedNames()[0]]
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

func TestTablesRender(t *testing.T) {
	if !strings.Contains(recipe.Table1(), "Masstree") {
		t.Fatal("Table1 incomplete")
	}
	if !strings.Contains(recipe.Table2(), "#3") {
		t.Fatal("Table2 incomplete")
	}
	if !strings.Contains(recipe.Table3(), "Threaded conversations") {
		t.Fatal("Table3 incomplete")
	}
}

func TestWorkloadByName(t *testing.T) {
	w, err := recipe.WorkloadByName("E")
	if err != nil || w.ScanPct != 95 {
		t.Fatalf("WorkloadByName(E) = %+v, %v", w, err)
	}
	if _, err := recipe.WorkloadByName("Q"); err == nil {
		t.Fatal("bogus workload accepted")
	}
	if len(recipe.Workloads()) != 5 {
		t.Fatal("expected 5 workloads")
	}
}

// TestStreamingScanPublicAPI pins the exported streaming scan surface:
// the sharded Cursor, a bare index's own iterator, and the per-site
// durability campaign re-exports.
func TestStreamingScanPublicAPI(t *testing.T) {
	m, err := recipe.NewShardedOrdered("P-ART", recipe.RandInt,
		recipe.ShardOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	gen := recipe.NewKeyGenerator(recipe.RandInt)
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

	rep := recipe.SiteCampaign("P-ART", recipe.IndexByName("P-ART", recipe.RandInt), recipe.WritePath{}, pmem.PolicyIntact, 0, 600, 50, 2)
	if len(rep.Sites) == 0 || !rep.Pass() {
		t.Fatalf("per-site campaign: %s", rep.String())
	}
}
