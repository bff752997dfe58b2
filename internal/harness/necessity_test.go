package harness

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/crash"
	"repro/internal/keys"
	"repro/internal/pmem"
)

// necessityGolden holds the necessity sweep's outcomes, one row per crash
// site that follows a heap verb: what the checks find under each restart
// image once the verb's persistence is gone. DESIGN §Table 1 cites it.
const necessityGolden = "testdata/necessity.txt"

// TestEveryBlockIsNeeded is the necessity sweep. A heap verb
// (pmem.Heap.Commit, FenceAt) names the crash site that follows the
// block it persists, so crash.NewDropping can take one block's
// persistence out by name. For every site of every index a churn load
// reaches, and under each of the four images, one trial drops the block
// and crashes at the first site visit after the first acknowledged
// operation that went through it, then records what the checks found:
// the trial's worst outcome if it is LOST-ACK or CORRUPT, else TRACKER
// if only flush coverage failed, else none.
//
// A site the insert load reaches runs the one crash trial. The one
// trial never rewrites before its crash and never deletes, so a site
// that only a rewrite or a delete reaches runs churnTrial instead. The
// outcomes must equal the golden file; a change in any row fails the
// test with the new table.
func TestEveryBlockIsNeeded(t *testing.T) {
	// The visitRows loads, then loads that reach the sites they miss:
	// prefix splits on string keys, a root leaf's delete, P-ART's
	// emptied root, inner splits, the Condition #3 repairs of a torn
	// split, CCEH's splits and doublings, and P-BwTree's later mapping
	// chunks. A site runs on the first row that reaches it.
	artS, mtS := ByName("P-ART", keys.YCSBString), ByName("P-Masstree", keys.YCSBString)
	ff := ByName("FAST & FAIR", keys.RandInt)
	rows := append(visitRows[:len(visitRows):len(visitRows)],
		visitRow{name: "P-ART", build: artS, loadN: 400, postN: 40},
		visitRow{name: "P-ART", build: artS, loadN: 1, postN: 1}, // the root leaf's delete
		visitRow{name: "P-ART", build: emptiedART, loadN: 10, postN: 10},
		visitRow{name: "P-ART", build: torn(artS, "art.split.installed"), loadN: 400, postN: 40},
		visitRow{name: "FAST & FAIR", build: ff, loadN: 1000, postN: 40},
		visitRow{name: "FAST & FAIR", build: torn(ff, "ff.split.linked"), loadN: 2000, postN: 40},
		visitRow{name: "FAST & FAIR", build: torn(ff, "ff.isplit.linked"), loadN: 4000, postN: 40},
		visitRow{name: "P-HOT", build: ByName("P-HOT", keys.YCSBString), loadN: 1, postN: 1},
		visitRow{name: "P-Masstree", build: torn(mtS, "mt.split.linked"), loadN: 2000, postN: 40},
		visitRow{name: "P-Masstree", build: torn(mtS, "mt.isplit.linked"), loadN: 4000, postN: 40},
		visitRow{name: "WOART", build: ByName("WOART", keys.YCSBString), loadN: 400, postN: 40},
		visitRow{name: "CCEH", build: ByName("CCEH", keys.RandInt), loadN: 3000, postN: 40},
		visitRow{name: "P-BwTree", build: ByName("P-BwTree", keys.RandInt), loadN: 8000, postN: 40})
	type cell struct {
		row    visitRow
		site   string
		n      int64 // the crash visit
		churn  bool  // only a rewrite or delete reaches the site
		policy pmem.Policy
	}
	var cells []cell
	seen := map[string]bool{}
	for _, row := range rows {
		sites, inserts := firstBoundaries(row.build, row.loadN)
		for _, site := range sortedKeys(sites) {
			if seen[site] {
				continue
			}
			seen[site] = true
			b := sites[site]
			for _, policy := range pmem.Policies {
				cells = append(cells, cell{row, site, b + 1, b >= inserts, policy})
			}
		}
	}
	const seed = 42
	outcome := make([]string, len(cells))
	forEachTrial(len(cells), 0, func(i int) {
		c := cells[i]
		inj := crash.NewDropping(c.site, c.n)
		// The block stays dropped after the restart, as it would in code
		// without it, so the post phase's flush coverage can see it; the
		// injector that stands in for the spent one never crashes.
		build := func(o pmem.Options) *Target {
			t := c.row.build(o)
			restart := t.recover
			t.recover = func() ([]uint64, error) {
				defer t.heaps[0].SetInjector(crash.NewDropping(c.site, 0))
				return restart()
			}
			return t
		}
		var r SiteReport
		if c.churn {
			r = churnTrial(build, c.policy, c.row.loadN, c.row.postN, inj, siteSeed(seed, c.site))
		} else {
			p := protocol{build: build, path: syncPath, policy: c.policy, loadN: c.row.loadN, postN: c.row.postN, writers: 1}
			r = p.trial(c.site, inj, 0, siteSeed(seed, c.site))
		}
		switch {
		case inj.Dropped() == 0:
			outcome[i] = "" // a bare crash point: no verb precedes the site
		case !r.Fired:
			outcome[i] = "UNFIRED"
		case r.Outcome >= OutcomeLostAck:
			outcome[i] = r.Outcome.String()
		case r.RecoveryViolations+r.OpViolations > 0:
			outcome[i] = "TRACKER"
		default:
			outcome[i] = "none"
		}
	})

	var b strings.Builder
	b.WriteString("# Generated by TestEveryBlockIsNeeded (internal/harness/necessity_test.go).\n")
	b.WriteString("# For each crash site that follows a heap verb, with the verb's persistence\n")
	b.WriteString("# dropped, under each restart image: the worst outcome (LOST-ACK, CORRUPT),\n")
	b.WriteString("# else TRACKER (flush coverage only), else none (a blind spot). churn = only\n")
	b.WriteString("# a rewrite or a delete reaches the site.\n")
	fmt.Fprintf(&b, "%-14s %-30s %-9s %-9s %-9s %-9s %s\n", "# index", "site", "intact", "revert", "keep", "torn", "load")
	totals := map[string]int{}
	for i := 0; i < len(cells); i += len(pmem.Policies) {
		row := outcome[i : i+len(pmem.Policies)]
		if row[0] == "" {
			continue
		}
		c := cells[i]
		load := "insert"
		if c.churn {
			load = "churn"
		}
		fmt.Fprintf(&b, "%-14s %-30s %-9s %-9s %-9s %-9s %s\n", strings.ReplaceAll(c.row.name, " ", "_"), c.site, row[0], row[1], row[2], row[3], load)
		for _, o := range row {
			totals[o]++
			if o == "UNFIRED" {
				t.Errorf("%s %s: the crash after the dropped block never fired", c.row.name, c.site)
			}
		}
	}
	got := b.String()
	want, err := os.ReadFile(necessityGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("necessity table changed; %s should read:\n%s", necessityGolden, got)
	}
	t.Logf("outcomes over %d site×image trials: %v", len(cells), totals)
}

// firstBoundaries runs build's churn load (churnOps) uncrashed with a
// counting injector and returns, for each site it passes, the visit
// count at the end of the first operation that passed it, and the visit
// count at the end of the insert phase.
func firstBoundaries(build Build, n int) (first map[string]int64, inserts int64) {
	inj := crash.NewNth(0)
	t := build(pmem.Options{Injector: inj})
	defer t.release()
	first = map[string]int64{}
	s := t.session()
	for i, op := range churnOps(0, n) {
		if _, err := op.apply(s); err != nil {
			panic(err)
		}
		for site := range inj.Sites() {
			if _, ok := first[site]; !ok {
				first[site] = inj.Visits()
			}
		}
		if i == n-1 {
			inserts = inj.Visits()
		}
	}
	return first, inserts
}

func sortedKeys(m map[string]int64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// churnOp is one write of a churn load: an insert of id (value id), a
// rewrite (value id|UpdateBit) or a delete.
type churnOp struct {
	id              uint64
	rewrite, delete bool
}

// churnOps is the churn load over ids [lo, lo+n): insert every id, then
// rewrite every third, delete every fifth and insert those again. Its
// insert phase is the one trial's load.
func churnOps(lo uint64, n int) []churnOp {
	var ops []churnOp
	for i := 0; i < n; i++ {
		ops = append(ops, churnOp{id: lo + uint64(i)})
	}
	for i := 0; i < n; i += 3 {
		ops = append(ops, churnOp{id: lo + uint64(i), rewrite: true})
	}
	for i := 0; i < n; i += 5 {
		ops = append(ops, churnOp{id: lo + uint64(i), delete: true})
	}
	for i := 0; i < n; i += 5 {
		ops = append(ops, churnOp{id: lo + uint64(i)})
	}
	return ops
}

// tornBase is the first identifier a torn build loads: apart from the
// trial's ids and the post phase's.
const tornBase = 3_000_000

// torn builds with build, then tears one structure modification: it
// loads ids from tornBase until a crash at site's first visit fires,
// and restarts in place. Writes through the torn node then run the
// repair that completes it. The trial's model holds none of the torn
// load's ids, so its merged-scan count is not checked.
func torn(build Build, site string) Build {
	return func(o pmem.Options) *Target {
		t := build(o)
		t.mergedScan = nil
		inj := crash.NewAtSite(site, 1)
		t.heaps[0].SetInjector(inj)
		_ = load(t, syncPath, tornBase, 100_000, false, hooks{}, inj)
		if _, err := t.recover(); err != nil || !inj.Fired() {
			panic(fmt.Sprintf("torn %s: fired %v, recovery %v", site, inj.Fired(), err))
		}
		t.heaps[0].SetInjector(o.Injector)
		return t
	}
}

// state is what an id reads back: absent, or present with v.
type state struct {
	v  uint64
	ok bool
}

// apply runs op through s and returns the state it leaves its id in.
func (op churnOp) apply(s session) (state, error) {
	switch {
	case op.delete:
		ok, err := s.delete(op.id)
		if err == nil && !ok {
			err = fmt.Errorf("delete %d: absent", op.id)
		}
		return state{}, err
	case op.rewrite:
		return state{op.id | UpdateBit, true}, s.write(op.id, op.id|UpdateBit, true)
	}
	return state{op.id, true}, s.write(op.id, op.id, false)
}

// churnTrial is the one trial's protocol over a churn load, for the
// blocks only a rewrite or a delete reaches: build on fresh heaps, arm
// inj and run the churn over ids [0, n) until the crash; restart from
// policy's image and recover; every id must read back as its
// acknowledged operations left it — the crashed operation's id as it
// was before or after that operation — and a post phase churns postN
// fresh ids, counting the lines left dirty or unfenced at every
// boundary and reading every one back.
func churnTrial(build Build, policy pmem.Policy, n, postN int, inj *crash.Injector, seed int64) SiteReport {
	r := SiteReport{Site: "churn"}
	t := build(pmem.Options{Track: true, Shadow: policy != pmem.PolicyIntact})
	defer t.release()
	heap := t.heaps[0]
	heap.SetInjector(inj)
	s := t.session()
	acked := map[uint64]state{}
	var crashed churnOp
	var after state // what the crashed operation would have left
	for _, op := range churnOps(0, n) {
		next, err := op.apply(s)
		if crash.IsCrash(err) {
			crashed, after = op, next
			break
		}
		if err != nil {
			r.fail(OutcomeCorrupt, err.Error())
			return r
		}
		acked[op.id] = next
	}
	if r.Fired = inj.Fired(); !r.Fired {
		return r
	}
	r.Cycle = heap.PowerCycle(policy, seed)
	if err := guard(func() (err error) { r.Replays, err = t.recover(); return err }); err != nil {
		r.fail(OutcomeCorrupt, fmt.Sprintf("recovery failed: %v", err))
		return r
	}
	r.RecoveryViolations = t.violations()
	// check reads id back: it must be in state want or alt. Any other
	// state it has held is a lost acknowledgement; anything else is
	// corrupt.
	check := func(phase string, id uint64, want, alt state) {
		err := guard(func() error {
			v, ok := s.lookup(id)
			switch got := (state{v, ok}); {
			case got == want || got == alt:
			case !ok || v == id || v == id|UpdateBit:
				r.LostAcks++
				r.fail(OutcomeLostAck, fmt.Sprintf("%s: id %d reads %+v, want %+v", phase, id, got, want))
			default:
				r.fail(OutcomeCorrupt, fmt.Sprintf("%s: id %d reads %d", phase, id, v))
			}
			return nil
		})
		if err != nil {
			r.fail(OutcomeCorrupt, fmt.Sprintf("%s: %v", phase, err))
		}
	}
	before := acked[crashed.id] // absent if the crashed operation inserted it
	for id, w := range acked {
		if id != crashed.id {
			check("readback", id, w, w)
		}
	}
	check("in-flight", crashed.id, before, after)
	posted := map[uint64]state{}
	for _, op := range churnOps(postBase, postN) {
		next, err := op.apply(s)
		if err != nil {
			r.fail(OutcomeCorrupt, fmt.Sprintf("post phase: %v", err))
			return r
		}
		posted[op.id] = next
		r.OpViolations += t.violations()
	}
	for id, w := range posted {
		check("post-ops readback", id, w, w)
	}
	return r
}
