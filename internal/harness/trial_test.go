package harness

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/clht"
	"repro/internal/core"
	"repro/internal/crash"
	"repro/internal/group"
	"repro/internal/keys"
	"repro/internal/levelhash"
	"repro/internal/pmem"
	"repro/shard"
)

// campaignIndexes are the nine indexes the campaign matrices cover —
// the Fig 4 five plus WOART, then the hash tables, matching
// cmd/campaign.
var campaignIndexes = []string{"P-ART", "P-HOT", "P-BwTree", "P-Masstree", "FAST & FAIR", "WOART", "P-CLHT", "CCEH", "Level Hashing"}

// extraSites are the crash sites a write path adds to the index's own:
// a campaign through the path must discover each and fire at it.
func extraSites(p WritePath) []string {
	if p.Batch > 1 {
		return []string{group.SiteOpApplied, group.SiteCommitFenced}
	}
	return nil
}

// checkSwept asserts a campaign's rows include every site in want,
// fired.
func checkSwept(t *testing.T, fired map[string]bool, want []string) {
	t.Helper()
	for _, site := range want {
		if f, ok := fired[site]; !ok {
			t.Errorf("campaign did not discover %s", site)
		} else if !f {
			t.Errorf("site %s discovered but never fired", site)
		}
	}
}

// TestLossyMatrix drives all 9 indexes through the per-site campaign on
// both write paths under all four images at small scale: zero LOST-ACK
// and zero CORRUPT outcomes anywhere — every acknowledged write
// survives, every unacknowledged one (the crashed op, the unflushed
// batch) is at worst atomically PARTIAL,
// even when unfenced write-backs are torn — zero flush-coverage
// violations after recovery and at every settled post-crash boundary,
// and the sweep crashes at every site the path itself adds. One more
// cell per path and image loads P-ART through an emptied long-prefix
// root and crashes at its replacement.
func TestLossyMatrix(t *testing.T) {
	const loadN, postN, seed = 60, 6, 42
	cell := func(t *testing.T, name string, build Build, p WritePath, policy pmem.Policy, extra []string) {
		rep := SiteCampaign(name, build, p, policy, seed, loadN, postN, 0)
		if len(rep.Sites) == 0 {
			t.Fatal("no crash sites discovered")
		}
		if rep.Fired() == 0 {
			t.Error("no site fired")
		}
		fired := map[string]bool{}
		for _, s := range rep.Sites {
			fired[s.Site] = s.Fired
			if !s.Pass() {
				t.Errorf("site %s: %v lostAcks=%d recoveryViol=%d opViol=%d detail=%s cycle=[%v]",
					s.Site, s.Outcome, s.LostAcks, s.RecoveryViolations, s.OpViolations, s.Detail, s.Cycle)
			}
		}
		checkSwept(t, fired, append(extraSites(p), extra...))
	}
	for _, p := range paths {
		for _, policy := range pmem.Policies {
			for _, name := range campaignIndexes {
				t.Run(p.name+"/"+name+"/"+policy.String(), func(t *testing.T) {
					cell(t, name, ByName(name, keys.RandInt), p.path, policy, nil)
				})
			}
			t.Run(p.name+"/P-ART emptied root/"+policy.String(), func(t *testing.T) {
				cell(t, "P-ART", emptiedART, p.path, policy, []string{"art.emptied.replaced"})
			})
		}
	}
}

// emptiedART builds P-ART over YCSB string keys on a root that deletes
// emptied: two keys sharing 23 bytes went in and out again, so the root
// holds a prefix past the seven stored bytes and no leaf to read it from.
// The load's first insert replaces it.
func emptiedART(o pmem.Options) *Target {
	m, err := shard.NewOrderedWith(func(heap *pmem.Heap) (core.OrderedIndex, error) {
		idx, err := core.NewOrdered("P-ART", heap, keys.YCSBString)
		if err != nil {
			return nil, err
		}
		shared := []byte("user9999999999999999999")
		for _, last := range []byte("01") {
			if err := idx.Insert(append(shared, last), 1); err != nil {
				return nil, err
			}
		}
		for _, last := range []byte("01") {
			if ok, err := idx.Delete(append(shared, last)); !ok || err != nil {
				return nil, fmt.Errorf("delete: %v, %v", ok, err)
			}
		}
		return idx, nil
	}, shard.Options{Heap: o})
	if err != nil {
		panic(err)
	}
	return ShardedOrdered(m, keys.YCSBString)
}

// TestSiteCampaignFiresEverySite runs the intact-image sweep on both
// write paths for an ordered and an unordered index at a larger load:
// sites are found in name order, the deterministic load fires at every
// one (the path's own boundary sites included), and the converted index
// recovers with full flush coverage at each settled boundary.
func TestSiteCampaignFiresEverySite(t *testing.T) {
	for _, p := range paths {
		for _, name := range []string{"P-ART", "P-CLHT"} {
			t.Run(p.name+"/"+name, func(t *testing.T) {
				rep := SiteCampaign(name, ByName(name, keys.RandInt), p.path, pmem.PolicyIntact, 0, 1200, 200, 4)
				if len(rep.Sites) == 0 {
					t.Fatal("no crash sites discovered")
				}
				if rep.Fired() != len(rep.Sites) {
					t.Fatalf("fired at %d of %d sites; the deterministic load must revisit every discovered site",
						rep.Fired(), len(rep.Sites))
				}
				if !rep.Pass() {
					t.Fatalf("campaign failed: %s", rep)
				}
				fired := map[string]bool{}
				for i, s := range rep.Sites {
					fired[s.Site] = s.Fired
					if i > 0 && rep.Sites[i-1].Site >= s.Site {
						t.Fatalf("sites out of order: %q before %q", rep.Sites[i-1].Site, s.Site)
					}
				}
				checkSwept(t, fired, extraSites(p.path))
			})
		}
	}
}

// hashWith builds a one-shard hash front-end over the table idx makes:
// a table sized to reach sites the registry's default size never does.
func hashWith(idx func(*pmem.Heap) core.HashIndex) Build {
	return func(o pmem.Options) *Target {
		m, err := shard.NewHashWith(func(h *pmem.Heap) (core.HashIndex, error) { return idx(h), nil }, shard.Options{Heap: o})
		if err != nil {
			panic(err)
		}
		return ShardedHash(m)
	}
}

// visitRow is one index's load for the enumeration and the necessity
// sweep (necessity_test.go): its build, the load and post-crash insert
// counts, the crash-site visits the load makes at least, and sites it
// must reach.
type visitRow struct {
	name                 string
	build                Build
	loadN, postN, states int
	sites                []string
}

// visitRows keep the load, key kind and post-crash insert count of the
// loop each replaced in its index's package (WOART had none): the tiny
// P-CLHT and Level Hashing tables chain, double and reclaim.
var visitRows = []visitRow{
	{"P-ART", ByName("P-ART", keys.RandInt), 400, 100, 800, nil},
	{"FAST & FAIR", ByName("FAST & FAIR", keys.RandInt), 600, 100, 1313, nil},
	{"P-HOT", ByName("P-HOT", keys.YCSBString), 400, 80, 835, nil},
	{"P-Masstree", ByName("P-Masstree", keys.YCSBString), 400, 100, 975, nil},
	{"WOART", ByName("WOART", keys.RandInt), 400, 80, 515, nil},
	{"CCEH", ByName("CCEH", keys.RandInt), 800, 50, 1600, nil},
	{"Level Hashing", hashWith(func(h *pmem.Heap) core.HashIndex { return levelhash.NewWithBuckets(h, 4) }), 1500, 40, 3014, nil},
	{"P-CLHT", hashWith(func(h *pmem.Heap) core.HashIndex { return clht.NewWithBuckets(h, 2) }), 300, 50, 729,
		[]string{"clht.rehash.built", "clht.rehash.swap", "clht.insert.reclaim", "clht.insert.overflow.init", "clht.insert.overflow.link"}},
}

// TestCrashAtEveryVisit is §5's enumeration through the one trial: a
// discovery load counts the crash-site visits an uncrashed load makes,
// then one trial per visit crashes there (crash.NewNth), restarts from
// the intact image and runs every check of the trial, one writer. Where
// SiteCampaign crashes at each site's first visit only, this crashes at
// every later one too — the 21st split of a leaf as well as the first.
// A row needs at least states visits and the named sites among them.
func TestCrashAtEveryVisit(t *testing.T) {
	for _, row := range visitRows {
		t.Run(row.name, func(t *testing.T) {
			inj := crash.NewNth(0) // counts visits, never fires
			d := row.build(pmem.Options{Injector: inj})
			if err := load(d, syncPath, 0, row.loadN, false, hooks{}, nil); err != nil {
				t.Fatal(err)
			}
			d.release()
			visits := int(inj.Visits())
			if visits < row.states {
				t.Fatalf("load visits %d crash states, want at least %d", visits, row.states)
			}
			for _, site := range row.sites {
				if inj.Sites()[site] == 0 {
					t.Errorf("load never reaches %s", site)
				}
			}
			p := protocol{build: row.build, policy: pmem.PolicyIntact, loadN: row.loadN, postN: row.postN, writers: 1}
			rep := p.campaign(row.name, 0, visits, 0, func(i int) (string, *crash.Injector, int) {
				return fmt.Sprintf("visit %d", i+1), crash.NewNth(int64(i + 1)), 0
			})
			if rep.Fired() != visits {
				t.Errorf("fired %d of %d visits", rep.Fired(), visits)
			}
			for _, s := range rep.Sites {
				if !s.Pass() {
					t.Errorf("%s: %v lostAcks=%d recoveryViol=%d opViol=%d detail=%s", s.Site, s.Outcome, s.LostAcks, s.RecoveryViolations, s.OpViolations, s.Detail)
				}
			}
			t.Logf("%d states", visits)
		})
	}
}

// TestSiteCampaignCCEHSplits: a load of 5,000 takes CCEH through
// segment splits (2,000 inserts do not reach the first), and 2,000
// post-crash inserts split the segment a crash at cceh.split.repointed
// left half split. Every acknowledged write survives under every
// image.
func TestSiteCampaignCCEHSplits(t *testing.T) {
	for _, policy := range pmem.Policies {
		rep := SiteCampaign("CCEH", ByName("CCEH", keys.RandInt), syncPath, policy, 42, 5000, 2000, 0)
		fired := map[string]bool{}
		for _, s := range rep.Sites {
			fired[s.Site] = s.Fired
		}
		checkSwept(t, fired, []string{"cceh.split.repointed"})
		if !rep.Pass() {
			t.Errorf("%v: %s", policy, rep)
		}
	}
}

// TestSiteCampaignDetectsStall: Faithful CCEH's torn directory doubling
// makes recovery stall at exactly one site, which the sweep hits
// deterministically even when the crash loses nothing — the negative
// control `campaign sites` prints.
func TestSiteCampaignDetectsStall(t *testing.T) {
	rep := SiteCampaign("CCEH-faithful", FaithfulCCEH, syncPath, pmem.PolicyIntact, 0, 5000, 20, 0)
	for _, s := range rep.Sites {
		if s.Outcome == OutcomeCorrupt && s.Site != "cceh.double.swapped" {
			t.Errorf("CORRUPT at %s (%s), want only cceh.double.swapped", s.Site, s.Detail)
		}
	}
	if rep.Count(OutcomeCorrupt) != 1 || rep.Pass() {
		t.Fatalf("%d CORRUPT sites: %s", rep.Count(OutcomeCorrupt), rep)
	}
}

// TestSiteCampaignDeterministicAcrossWorkers and TestLossyDeterministic:
// the same seed yields the identical report — every torn coin flip's
// consequences and every violation count included — for any worker
// count, on both write paths.
func TestSiteCampaignDeterministicAcrossWorkers(t *testing.T) {
	checkDeterministic(t, pmem.PolicyIntact)
}

func TestLossyDeterministic(t *testing.T) { checkDeterministic(t, pmem.PolicyTorn) }

func checkDeterministic(t *testing.T, policy pmem.Policy) {
	const loadN, postN, seed = 200, 20, 7
	for _, p := range paths {
		run := func(workers int) CampaignReport {
			return SiteCampaign("P-Masstree", ByName("P-Masstree", keys.RandInt), p.path, policy, seed, loadN, postN, workers)
		}
		if a, b := run(1), run(8); !reflect.DeepEqual(a, b) {
			t.Fatalf("%s %v campaign not deterministic:\n%+v\n%+v", p.name, policy, a, b)
		}
	}
}

// TestLossyDetectsMissingPersist is the negative control: the intact
// image can never observe Faithful mode's missing initial-allocation
// persist as data loss, but the revert image must — the never-persisted
// root pointer zero-fills and acknowledged writes vanish.
func TestLossyDetectsMissingPersist(t *testing.T) {
	rep := SiteCampaign("FF-faithful", FaithfulFF, syncPath, pmem.PolicyRevert, 42, 60, 4, 0)
	if rep.Fired() == 0 {
		t.Fatal("no crash site fired")
	}
	if rep.Pass() {
		t.Fatalf("campaign failed to flag the known durability bug:\n%s", rep)
	}
	if rep.Count(OutcomeLostAck)+rep.Count(OutcomeCorrupt) == 0 {
		t.Fatalf("no LOST-ACK/CORRUPT outcome recorded: %s", rep)
	}
}

// TestLossyMultiCycle crashes, power-cycles, recovers — then rearms the
// injector, crashes the recovered index again, and cycles a second
// time. Acknowledged writes must survive both generations; a stale
// one-shot injector state would silently skip the second crash.
func TestLossyMultiCycle(t *testing.T) {
	heap := pmem.New(pmem.Options{Shadow: true})
	defer heap.Release()
	idx, err := core.NewOrdered("P-ART", heap, keys.RandInt)
	if err != nil {
		t.Fatal(err)
	}
	gen := keys.NewGenerator(keys.RandInt)

	committed := make([]uint64, 0, 128)
	crashLoad := func(inj *crash.Injector, lo, n int) bool {
		heap.SetInjector(inj)
		defer heap.SetInjector(nil)
		for i := lo; i < lo+n; i++ {
			if err := idx.Insert(gen.Key(uint64(i)), uint64(i)); err != nil {
				if crash.IsCrash(err) {
					return true
				}
				t.Fatalf("insert %d: %v", i, err)
			}
			committed = append(committed, uint64(i))
		}
		return false
	}
	verify := func(gen2 string) {
		for _, id := range committed {
			k := gen.Key(id)
			if v, ok := idx.Lookup(k); !ok || v != id {
				t.Fatalf("%s: acknowledged id %d lost (ok=%v v=%d)", gen2, id, ok, v)
			}
		}
	}

	inj := crash.NewNth(40)
	if !crashLoad(inj, 0, 60) {
		t.Fatal("first crash did not fire")
	}
	heap.PowerCycle(pmem.PolicyTorn, 1)
	if err := idx.Recover(); err != nil {
		t.Fatalf("first recovery: %v", err)
	}
	verify("after first cycle")

	// Same injector object, rearmed for the second generation.
	inj.Rearm()
	if !crashLoad(inj, 100, 60) {
		t.Fatal("second crash did not fire after Rearm")
	}
	heap.PowerCycle(pmem.PolicyTorn, 2)
	if err := idx.Recover(); err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	verify("after second cycle")

	// And the index still accepts writes.
	if err := idx.Insert(gen.Key(999_999), 999_999); err != nil {
		t.Fatalf("post-cycle insert: %v", err)
	}
	if v, ok := idx.Lookup(gen.Key(999_999)); !ok || v != 999_999 {
		t.Fatalf("post-cycle readback: ok=%v v=%d", ok, v)
	}
}
