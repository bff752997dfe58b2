package harness

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/keys"
	"repro/internal/pmem"
	"repro/internal/ycsb"
	"repro/shard"
)

// The two write paths at the sizes the tests drive them: the batched
// path with a group of 8.
var (
	syncPath    = WritePath{}
	batchedPath = WritePath{Batch: 8}
)

// paths names the two write paths for table-driven tests.
var paths = []struct {
	name string
	path WritePath
}{{"sync", syncPath}, {"batched", batchedPath}}

// plain builds the named registry index on a fresh fast heap.
func plain(name string, kind keys.Kind) (*pmem.Heap, *Target) {
	t := ByName(name, kind)(pmem.Options{})
	return t.heaps[0], t
}

func shardedOrdered(t *testing.T, name string, shards int) *shard.Ordered {
	t.Helper()
	m, err := shard.NewOrdered(name, keys.RandInt, shard.Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Release)
	return m
}

func shardedHash(t *testing.T, name string, shards int) *shard.Hash {
	t.Helper()
	m, err := shard.NewHash(name, shard.Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Release)
	return m
}

func TestRunOrderedAllWorkloads(t *testing.T) {
	for _, w := range ycsb.All {
		_, target := plain("P-ART", keys.RandInt)
		res, err := Run("P-ART", target, syncPath, w, 5000, 5000, 4, 1, true)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if res.Ops != 5000 {
			t.Fatalf("%s ops = %d", w.Name, res.Ops)
		}
		if res.MopsPerSec() <= 0 {
			t.Fatalf("%s throughput = %v", w.Name, res.MopsPerSec())
		}
		if w.InsertPct > 0 && res.Inserts == 0 {
			t.Fatalf("%s recorded no inserts", w.Name)
		}
		if w.InsertPct > 0 && res.ClwbPerInsert() <= 0 {
			t.Fatalf("%s clwb/insert = %v", w.Name, res.ClwbPerInsert())
		}
	}
}

// TestRunConservationDF executes the update-bearing workloads D and F
// on every index class, multi-threaded, and asserts harness-level op
// conservation: the per-kind executed counts equal the plan's per-kind
// counts, per thread and in aggregate (reads + updates + RMWs +
// inserts + scans == opcount). The race lane runs this under -race, so
// the update/RMW execution paths are exercised concurrently.
func TestRunConservationDF(t *testing.T) {
	const loadN, opN, threads = 3000, 6000, 4
	for _, w := range []ycsb.Workload{ycsb.D, ycsb.F} {
		plan := ycsb.Generate(w, loadN, opN, threads, 1)
		for ti, ops := range plan.Threads {
			var perThread [ycsb.NumOpKinds]int
			for _, op := range ops {
				perThread[op.Kind]++
			}
			sum := 0
			for _, c := range perThread {
				sum += c
			}
			if sum != len(ops) {
				t.Fatalf("%s thread %d: kind counts sum to %d, stream has %d ops", w.Name, ti, sum, len(ops))
			}
		}
		for _, name := range []string{"P-ART", "FAST & FAIR", "P-CLHT"} {
			heap, target := plain(name, keys.RandInt)
			res, err := Run(name, target, syncPath, w, loadN, opN, threads, 1, true)
			heap.Release()
			if err != nil {
				t.Fatalf("%s/%s: %v", name, w.Name, err)
			}
			if res.Counts != plan.Counts {
				t.Fatalf("%s/%s: executed counts %v != plan counts %v", name, w.Name, res.Counts, plan.Counts)
			}
			sum := 0
			for _, c := range res.Counts {
				sum += c
			}
			if sum != res.Ops {
				t.Fatalf("%s/%s: counts sum %d != Ops %d", name, w.Name, sum, res.Ops)
			}
		}
	}
}

// TestRunUpdatesInPlace: workload F must not grow the index — every
// write is an in-place rewrite of a loaded key, unlike the paper's
// fresh-key update model.
func TestRunUpdatesInPlace(t *testing.T) {
	const loadN = 2000
	idx := shardedOrdered(t, "P-Masstree", 1)
	if _, err := Run("P-Masstree", ShardedOrdered(idx, keys.RandInt), syncPath, ycsb.F, loadN, 4000, 4, 1, true); err != nil {
		t.Fatal(err)
	}
	if n := idx.Len(); n != loadN {
		t.Fatalf("workload F grew the index to %d keys, want %d (in-place updates)", n, loadN)
	}
	// Tagged values decode back to the key's identifier.
	gen := keys.NewGenerator(keys.RandInt)
	for id := uint64(0); id < loadN; id += 97 {
		v, ok := idx.Lookup(gen.Key(id))
		if !ok || valueID(v) != id {
			t.Fatalf("id %d: got %d,%v after RMW traffic", id, v, ok)
		}
	}
}

// TestRunSharded drives every paper workload plus D and F through the
// sharded front-end (which is both the index and the counter source)
// and checks that the aggregate Stats delta conserves against the
// per-shard deltas exactly.
func TestRunSharded(t *testing.T) {
	for _, w := range append(append([]ycsb.Workload{}, ycsb.All...), ycsb.D, ycsb.F) {
		m := shardedOrdered(t, "P-ART", 8)
		before := m.ShardStats()
		aggBefore := m.Stats()
		res, err := Run("P-ART", ShardedOrdered(m, keys.RandInt), syncPath, w, 5000, 5000, 4, 1, true)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if res.Ops != 5000 {
			t.Fatalf("%s ops = %d", w.Name, res.Ops)
		}
		if w.ReadPct > 0 && res.Counts[ycsb.OpRead] == 0 {
			t.Fatalf("%s executed no reads", w.Name)
		}
		var sum pmem.Stats
		for i, p := range m.ShardStats() {
			sum = sum.Add(p.Sub(before[i]))
		}
		if agg := m.Stats().Sub(aggBefore); agg != sum {
			t.Fatalf("%s: aggregate delta %+v != sum of shard deltas %+v", w.Name, agg, sum)
		}
	}
}

// TestRunHash: the unordered adaptor runs A on one heap and sharded,
// and rejects scan workloads on every path.
func TestRunHash(t *testing.T) {
	_, target := plain("P-CLHT", keys.RandInt)
	res, err := Run("P-CLHT", target, syncPath, ycsb.A, 5000, 5000, 4, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.FencePerInsert() <= 0 {
		t.Fatal("no fences per insert recorded")
	}
	sharded := ShardedHash(shardedHash(t, "P-CLHT", 4))
	if res, err = Run("P-CLHT", sharded, syncPath, ycsb.A, 5000, 5000, 4, 1, true); err != nil || res.Ops != 5000 {
		t.Fatalf("sharded: ops = %d, err = %v", res.Ops, err)
	}
	for _, p := range paths {
		if _, err := Run("P-CLHT", sharded, p.path, ycsb.E, 100, 100, 1, 1, false); err == nil {
			t.Fatalf("%s: workload E accepted by the unordered runner", p.name)
		}
		if _, err := Attribute(sharded, p.path, ycsb.E, 100, 100, 1); err == nil {
			t.Fatalf("%s: workload E accepted by the unordered attribution pass", p.name)
		}
	}
}

// TestRunPhaseWithoutLoad: a measured phase against an already
// populated index draws its targets from the stated population and
// inserts past it.
func TestRunPhaseWithoutLoad(t *testing.T) {
	m := shardedOrdered(t, "P-ART", 2)
	target := ShardedOrdered(m, keys.RandInt)
	if _, err := Run("P-ART", target, syncPath, ycsb.A, 1000, 0, 2, 1, true); err != nil {
		t.Fatal(err)
	}
	pre, err := Run("P-ART", target, syncPath, ycsb.D, 1000, 1000, 2, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run("P-ART", target, syncPath, ycsb.D, 1000+pre.Inserts, 1000, 2, 8, false); err != nil {
		t.Fatal(err)
	}
	if m.Len() <= 1000+pre.Inserts {
		t.Fatalf("second phase inserted nothing: Len %d", m.Len())
	}
}

// TestQueuedPathsRun: the batched run loop executes write-heavy A and
// RMW-heavy F on both front-ends, covers the full plan, and pays fewer
// fences than the sync loop at the same seed.
func TestQueuedPathsRun(t *testing.T) {
	const loadN, opN, threads, seed = 512, 1024, 2, 42
	fronts := []struct {
		name   string
		target func() *Target
	}{
		{"P-ART", func() *Target { return ShardedOrdered(shardedOrdered(t, "P-ART", 2), keys.RandInt) }},
		{"P-CLHT", func() *Target { return ShardedHash(shardedHash(t, "P-CLHT", 2)) }},
	}
	for _, f := range fronts {
		for _, w := range []ycsb.Workload{ycsb.A, ycsb.F} {
			base, err := Run(f.name, f.target(), syncPath, w, loadN, opN, threads, seed, true)
			if err != nil {
				t.Fatal(err)
			}
			label := f.name + "/" + w.Name
			res, err := Run(f.name, f.target(), batchedPath, w, loadN, opN, threads, seed, true)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if res.Ops != base.Ops || res.Counts != base.Counts {
				t.Fatalf("%s plan diverged: ops %d vs %d, counts %v vs %v",
					label, res.Ops, base.Ops, res.Counts, base.Counts)
			}
			if res.Stats.Fence >= base.Stats.Fence {
				t.Errorf("%s fences = %d, want < sync %d", label, res.Stats.Fence, base.Stats.Fence)
			}
		}
	}
}

// TestPathParity: at the same seed and one thread, the batched path
// leaves the same dataset as the sync path — exact values on D (no
// in-place writes), equal identifiers under the value tags on F (a
// queued RMW may read the pre-pending value).
func TestPathParity(t *testing.T) {
	const loadN, opN = 400, 800
	gen := keys.NewGenerator(keys.RandInt)
	for _, c := range []struct {
		w     ycsb.Workload
		seed  int64
		exact bool
	}{{ycsb.D, 7, true}, {ycsb.F, 11, false}} {
		plan := ycsb.Generate(c.w, loadN, opN, 1, c.seed)
		ref := shardedOrdered(t, "P-ART", 2)
		if _, err := Run("P-ART", ShardedOrdered(ref, keys.RandInt), syncPath, c.w, loadN, opN, 1, c.seed, true); err != nil {
			t.Fatal(err)
		}
		for _, p := range paths[1:] {
			m := shardedOrdered(t, "P-ART", 2)
			if _, err := Run("P-ART", ShardedOrdered(m, keys.RandInt), p.path, c.w, loadN, opN, 1, c.seed, true); err != nil {
				t.Fatalf("%s/%s: %v", c.w.Name, p.name, err)
			}
			if ref.Len() != m.Len() {
				t.Fatalf("%s/%s: Len sync %d, %s %d", c.w.Name, p.name, ref.Len(), p.name, m.Len())
			}
			for id := uint64(0); id < uint64(loadN+plan.Inserts); id++ {
				va, oka := ref.Lookup(gen.Key(id))
				vb, okb := m.Lookup(gen.Key(id))
				if !c.exact {
					va, vb = valueID(va), valueID(vb)
				}
				if oka != okb || va != vb {
					t.Fatalf("%s/%s id %d: sync (%d,%v) != (%d,%v)", c.w.Name, p.name, id, va, oka, vb, okb)
				}
			}
		}
	}
}

// TestAttributeConserves: on both write paths the per-op-kind counter
// deltas of an attribution pass sum bit-exactly to the aggregate delta
// with the full plan counted — on the update-bearing D and F plus A,
// per op and at group sizes that exercise mid-queue flushes and
// never-full queues, on both front-ends.
func TestAttributeConserves(t *testing.T) {
	const loadN, opN, seed = 400, 800, 42
	check := func(label string, a Attribution, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !a.Conserves() {
			t.Errorf("%s: per-kind deltas do not conserve against total %+v", label, a.Total)
		}
		ops := 0
		for _, k := range a.Kinds {
			ops += k.Ops
		}
		if ops != opN {
			t.Errorf("%s: attributed ops = %d, want %d", label, ops, opN)
		}
	}
	for _, batch := range []int{1, 8, 64} {
		for _, w := range []ycsb.Workload{ycsb.D, ycsb.F, ycsb.A} {
			a, err := Attribute(ShardedOrdered(shardedOrdered(t, "P-ART", 2), keys.RandInt), WritePath{Batch: batch}, w, loadN, opN, seed)
			check(fmt.Sprintf("P-ART/%s/batch=%d", w.Name, batch), a, err)
		}
	}
	for _, p := range paths {
		a, err := Attribute(ShardedHash(shardedHash(t, "P-CLHT", 2)), p.path, ycsb.F, loadN, opN, seed)
		check("P-CLHT/"+p.name+"/F", a, err)
		if a.Kinds[ycsb.OpRMW].Ops == 0 {
			t.Errorf("P-CLHT/%s: workload F attributed no RMW ops", p.name)
		}
	}
}

// TestAttributeSplitsKinds: on a single heap, update/RMW ops charge
// fewer clwb than fresh inserts on a B+-tree (no node allocation on
// the rewrite path), and every write kind of the mix gets its share.
func TestAttributeSplitsKinds(t *testing.T) {
	heap, target := plain("FAST & FAIR", keys.RandInt)
	defer heap.Release()
	w := ycsb.Workload{Name: "mix", InsertPct: 25, ReadPct: 25, UpdatePct: 25, RMWPct: 25,
		Dist: ycsb.Zipfian{Theta: 0.99}}
	a, err := Attribute(target, syncPath, w, 3000, 4000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Conserves() {
		t.Fatalf("per-kind deltas do not sum to aggregate: %+v", a)
	}
	for _, k := range []ycsb.OpKind{ycsb.OpInsert, ycsb.OpUpdate, ycsb.OpRMW} {
		if a.Kinds[k].Ops == 0 || a.Kinds[k].Stats.Clwb == 0 {
			t.Fatalf("%v: no ops or no clwb attributed (%+v)", k, a.Kinds[k])
		}
	}
	if a.ClwbPer(ycsb.OpUpdate) >= a.ClwbPer(ycsb.OpInsert) {
		t.Fatalf("clwb/update (%v) should be below clwb/insert (%v) on FAST & FAIR",
			a.ClwbPer(ycsb.OpUpdate), a.ClwbPer(ycsb.OpInsert))
	}

	hheap, htarget := plain("P-CLHT", keys.RandInt)
	defer hheap.Release()
	ha, err := Attribute(htarget, syncPath, ycsb.F, 3000, 4000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !ha.Conserves() || ha.Kinds[ycsb.OpRMW].Ops == 0 {
		t.Fatalf("single-heap hash attribution: conserves=%v, RMW ops=%d", ha.Conserves(), ha.Kinds[ycsb.OpRMW].Ops)
	}
}

// TestCrashCampaignPasses is the §7.5 headline at test scale: every
// RECIPE-converted index survives its crash campaign.
func TestCrashCampaignPasses(t *testing.T) {
	for _, name := range []string{"P-ART", "P-HOT", "P-BwTree", "P-Masstree", "P-CLHT"} {
		t.Run(name, func(t *testing.T) {
			rep := CrashCampaign(name, ByName(name, keys.RandInt), 25, 2000, 2000, 4)
			if !rep.Pass() || !strings.Contains(rep.String(), "PASS") {
				t.Fatalf("crash campaign failed: %s", rep)
			}
			if rep.Fired() == 0 {
				t.Fatal("no crash state actually crashed; campaign vacuous")
			}
		})
	}
}

// TestCrashCampaignShardedPasses: the per-shard campaign must lose no
// keys, arm the shards in rotation and never replay a healthy shard.
func TestCrashCampaignShardedPasses(t *testing.T) {
	rep := CrashCampaign("P-ART", Sharded("P-ART", keys.RandInt, 4, nil), 12, 4000, 2000, 4)
	if !rep.Pass() {
		t.Fatalf("sharded campaign failed: %s", rep)
	}
	if rep.Fired() == 0 {
		t.Fatal("campaign never crashed; injector not exercising shards")
	}
	for s, row := range rep.Sites {
		if row.Host != s%4 || (row.Fired && len(row.Replays) != 4) {
			t.Fatalf("%s: host %d, replays %v; want host %d of 4 shards", row.Site, row.Host, row.Replays, s%4)
		}
		for i, n := range row.Replays {
			if i != row.Host && n != 0 {
				t.Fatalf("%s: healthy shard %d replayed %d times: %s", row.Site, i, n, rep)
			}
		}
	}
}

// TestDurabilityReports: the conversions and the four PM baselines pass
// the §5 durability test — flush coverage of construction, inserts and
// in-place rewrites; the Faithful modes fail it at construction (the
// §7.5 unpersisted-initial-allocation finding), which the trial counts
// before its post phase.
func TestDurabilityReports(t *testing.T) {
	for _, name := range campaignIndexes {
		rep := Durability(name, ByName(name, keys.YCSBString), 800)
		if !rep.Pass() || !strings.Contains(rep.String(), "PASS") {
			t.Fatalf("%s durability failed: %s", name, rep)
		}
	}
	for name, build := range map[string]Build{"FF-faithful": FaithfulFF, "CCEH-faithful": FaithfulCCEH} {
		if rep := Durability(name, build, 500); rep.Pass() || rep.Sites[0].RecoveryViolations == 0 {
			t.Fatalf("%s: negative control passed: %s", name, rep)
		}
	}
}

func TestResultMetricsZeroSafe(t *testing.T) {
	var r Result
	if r.MopsPerSec() != 0 || r.ClwbPerInsert() != 0 || r.FencePerInsert() != 0 || r.LLCMissPerOp() != 0 {
		t.Fatal("zero Result should produce zero metrics")
	}
}
