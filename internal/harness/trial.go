// Per-crash-site campaigns: the §5 crash methodology, one trial per
// crash site, under a failure model chosen by value (pmem.Policy).
//
// Every trial follows one protocol, whatever the write path and the
// image: build the index on a fresh Shadow heap, arm a crash at the
// site's first visit, load identifiers [0, loadN) through one
// generation of the path, then restart and check everything a restart
// can get wrong:
//
//  1. Power-cycle the heap under the policy (Heap.PowerCycle).
//     PolicyIntact is the §5 image: every store stays visible, so a
//     missing persist can only show as a tracker violation. The lossy
//     images lose what never reached a clwb+fence, and revert, keep or
//     tear what was written back but not fenced.
//  2. Recover, counting the lines recovery leaves dirty or unfenced.
//  3. Read back every acknowledged id exactly, and every unacknowledged
//     one exact-or-absent.
//  4. Drive postN inserts through fresh generations, one ack unit each,
//     counting the lines left dirty or unfenced at every settled
//     boundary: the repair paths' flush coverage.
//  5. Re-read everything acknowledged, the post-crash inserts included.
//
// Outcomes per trial: CLEAN — every check passed; PARTIAL — an
// unacknowledged write vanished (acceptable under any failure model,
// reported for visibility); LOST-ACK — an acknowledged write is
// missing: the path acknowledged before the commit was durable, a real
// crash-consistency bug; CORRUPT — recovery or post-crash traffic
// panics or errors, or readback returns values never written.
//
// Loads run single-threaded (shadow capture is a single-writer testing
// mode). Trials are independent heaps fanned out over a worker pool and
// collected in site order, and every torn coin flip derives from the
// campaign seed and the site name, so a report is identical for any
// worker count.
package harness

import (
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/commit"
	"repro/internal/crash"
	"repro/internal/pmem"
)

// postBase is the first identifier of post-crash traffic: fresh ids
// continue the interrupted load, driving writers across (and through)
// whatever torn state the crash left behind.
const postBase = 1_000_000

// load drives identifiers [lo, lo+n) through one fresh generation of
// path and settles it. It stops at the first failure — nothing runs on
// a dead machine — leaving whatever a queued path still holds
// unaccepted.
func load(t *Target, path WritePath, lo uint64, n int, h hooks) error {
	g := path.open(t, h)
	defer g.end()
	w := g.writer(t.session())
	for id := lo; id < lo+uint64(n); id++ {
		if err := w.write(id, id, false); err != nil {
			return fmt.Errorf("insert %d: %w", id, err)
		}
	}
	return w.settle()
}

// discoverSites runs one untracked load with a never-firing injector
// (probability zero, which still records site visits) and returns every
// crash site it passed through, sorted by name: the index's own sites,
// plus the group.* boundary sites on the queued paths and the commit.*
// drain-loop sites on the Async path.
func discoverSites(build Build, path WritePath, loadN int) []string {
	inj := crash.NewProbabilistic(0, 1)
	heap := pmem.New(pmem.Options{Injector: inj})
	defer heap.Release()
	_ = load(build(heap), path, 0, loadN, hooks{}) // a failing load still visited its sites
	m := inj.Sites()
	sites := make([]string, 0, len(m))
	for s := range m {
		sites = append(sites, s)
	}
	sort.Strings(sites)
	return sites
}

// forEachSite fans body out over a pool of workers (< 1 selects
// GOMAXPROCS). Each body(i) writes only its own result slot, so the
// collected output is in site order no matter which worker ran it.
func forEachSite(n, workers int, body func(i int)) {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				body(i)
			}
		}()
	}
	wg.Wait()
}

// crashAt builds a trial target on a fresh Shadow heap with a crash
// armed at the site's first visit, loads it, disarms, and reports
// whether the crash fired. The injector — not an error return — says
// so: on the Async path the crash happens on the committer's goroutine.
func crashAt(site string, build Build, path WritePath, loadN int, h hooks) (heap *pmem.Heap, t *Target, fired bool) {
	heap = pmem.New(pmem.Options{Shadow: true})
	t = build(heap)
	heap.SetInjector(crash.NewAtSite(site, 1))
	_ = load(t, path, 0, loadN, h) // the crash is the expected failure; h.resolved models the rest
	fired = heap.Injector().Fired()
	heap.SetInjector(nil)
	return heap, t, fired
}

// violations counts the lines the heap's tracker holds dirty or
// unfenced at a boundary, resetting a dirty tracker so one violation is
// not recounted at every later boundary.
func violations(heap *pmem.Heap) int {
	v := len(heap.Tracker().Check())
	if v != 0 {
		heap.Tracker().Reset()
	}
	return v
}

// LossyOutcome classifies one crash trial, ordered by severity.
type LossyOutcome int

const (
	// OutcomeClean: all acknowledged data survived, unacknowledged writes
	// completed or were atomically absent, post-crash traffic clean.
	OutcomeClean LossyOutcome = iota
	// OutcomePartial: an unacknowledged in-flight write vanished.
	OutcomePartial
	// OutcomeLostAck: an acknowledged write is missing or wrong.
	OutcomeLostAck
	// OutcomeCorrupt: recovery/readback/post-crash traffic failed.
	OutcomeCorrupt
)

func (o LossyOutcome) String() string {
	switch o {
	case OutcomeClean:
		return "CLEAN"
	case OutcomePartial:
		return "PARTIAL"
	case OutcomeLostAck:
		return "LOST-ACK"
	case OutcomeCorrupt:
		return "CORRUPT"
	default:
		return fmt.Sprintf("LossyOutcome(%d)", int(o))
	}
}

// Verdict is a trial's worst observation on the outcome scale.
type Verdict struct {
	// Outcome is the worst observation.
	Outcome LossyOutcome
	// LostAcks counts acknowledged writes missing after recovery.
	LostAcks int
	// Detail describes the first failure of the worst kind (empty for
	// CLEAN/PARTIAL).
	Detail string
}

func (v *Verdict) fail(o LossyOutcome, detail string) {
	if o > v.Outcome {
		v.Outcome, v.Detail = o, detail
	}
}

// guard runs f, converting a panic into an error — a power-cycled image
// can be arbitrarily damaged, and a recovery or readback that panics is
// a CORRUPT outcome, not a test crash.
func guard(f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return f()
}

// readback is the full-dataset verifier: every acknowledged identifier
// must read back with its exact value. It reports false if the index
// panicked under the lookups.
func (v *Verdict) readback(phase string, lookup func(uint64) (uint64, bool), acked []uint64) bool {
	err := guard(func() error {
		for _, id := range acked {
			got, ok := lookup(id)
			switch {
			case !ok:
				v.LostAcks++
				v.fail(OutcomeLostAck, fmt.Sprintf("%s: acknowledged id %d missing", phase, id))
			case got != id:
				v.LostAcks++
				v.fail(OutcomeCorrupt, fmt.Sprintf("%s: id %d read back %d", phase, id, got))
			}
		}
		return nil
	})
	if err != nil {
		v.fail(OutcomeCorrupt, fmt.Sprintf("%s %v", phase, err))
	}
	return err == nil
}

// SiteReport is one crash trial's row: a crash site of a single-heap
// campaign, or a (site, host shard) pair of a reshard campaign.
type SiteReport struct {
	// Site is the crash-site name (e.g. "art.split.installed").
	Site string
	// Fired reports whether the load reached the site and crashed there.
	// A deterministic single-threaded load revisits the sites the
	// discovery pass saw, so this is false only for sites that need a
	// different interleaving to re-arise.
	Fired bool
	Verdict
	// RecoveryViolations counts lines Recover left dirty or unfenced.
	RecoveryViolations int
	// OpViolations counts lines left dirty or unfenced at settled
	// post-crash boundaries — flush coverage of the repair paths.
	OpViolations int
	// Cycle is the power cycle's damage report.
	Cycle pmem.CycleReport
	// Host and Replays are set by reshard trials: the shard whose heap
	// the injector was armed on, and the per-shard recovery replay
	// counts afterwards, which must be zero everywhere but Host.
	Host    int
	Replays []uint64
}

// pass reports whether the trial found nothing: no lost or corrupt
// data, no flush-coverage violation, no replay of a healthy shard.
func (s SiteReport) pass() bool {
	if s.Outcome >= OutcomeLostAck || s.RecoveryViolations != 0 || s.OpViolations != 0 {
		return false
	}
	for i, c := range s.Replays {
		if c != 0 && !(i == s.Host && s.Fired) {
			return false
		}
	}
	return true
}

// CampaignReport summarises one index × policy crash campaign.
type CampaignReport struct {
	Index  string
	Policy pmem.Policy
	// Seed drove every trial's torn coin flips (combined per site).
	Seed int64
	// PostOps is the number of post-crash inserts verified per site.
	PostOps int
	// Sites holds one row per trial: per discovered crash site, sorted
	// by name, or per reshard sweep pair, in sweep order — either way
	// deterministic regardless of the worker count.
	Sites []SiteReport
}

// Fired counts sites whose trial actually crashed.
func (r CampaignReport) Fired() int {
	n := 0
	for _, s := range r.Sites {
		if s.Fired {
			n++
		}
	}
	return n
}

// Count returns the number of fired trials with the given outcome.
func (r CampaignReport) Count(o LossyOutcome) int {
	n := 0
	for _, s := range r.Sites {
		if s.Fired && s.Outcome == o {
			n++
		}
	}
	return n
}

// Pass reports whether every trial passed. PARTIAL outcomes are
// acceptable: the vanished write was never acknowledged.
func (r CampaignReport) Pass() bool {
	for _, s := range r.Sites {
		if !s.pass() {
			return false
		}
	}
	return true
}

func (r CampaignReport) String() string {
	recov, ops := 0, 0
	for _, s := range r.Sites {
		recov += s.RecoveryViolations
		ops += s.OpViolations
	}
	return fmt.Sprintf("%-12s policy=%-6s sites=%d fired=%d clean=%d partial=%d lostAck=%d corrupt=%d recoveryViol=%d opViol=%d  %s",
		r.Index, r.Policy, len(r.Sites), r.Fired(),
		r.Count(OutcomeClean), r.Count(OutcomePartial), r.Count(OutcomeLostAck), r.Count(OutcomeCorrupt),
		recov, ops, verdict(r.Pass()))
}

func verdict(pass bool) string {
	if pass {
		return "PASS"
	}
	return "FAIL"
}

// siteSeed combines the campaign seed with the site name so each trial
// gets independent, reproducible torn coin flips.
func siteSeed(seed int64, site string) int64 {
	h := fnv.New64a()
	h.Write([]byte(site))
	return seed ^ int64(h.Sum64())
}

// SiteCampaign runs the per-crash-site campaign: discover every crash
// site a loadN-insert load through path passes through, then — one
// trial per site, fanned out over `workers` goroutines (< 1 selects
// GOMAXPROCS) — crash there, power-cycle under the policy and run the
// checks of the package comment, with postN post-crash inserts.
func SiteCampaign(name string, build Build, path WritePath, policy pmem.Policy, seed int64, loadN, postN, workers int) CampaignReport {
	sites := discoverSites(build, path, loadN)
	rep := CampaignReport{
		Index: name, Policy: policy, Seed: seed,
		PostOps: postN, Sites: make([]SiteReport, len(sites)),
	}
	forEachSite(len(sites), workers, func(i int) {
		rep.Sites[i] = trialAtSite(sites[i], build, path, policy, siteSeed(seed, sites[i]), loadN, postN)
	})
	return rep
}

func trialAtSite(site string, build Build, path WritePath, policy pmem.Policy, seed int64, loadN, postN int) SiteReport {
	r := SiteReport{Site: site}
	// The model: which accepted writes the path acknowledged, and which
	// it failed — the crashed op (Sync), the whole unflushed batch
	// (Batched), every error-resolved future (Async).
	var acked, unacked []uint64
	var pending error
	model := hooks{resolved: func(id uint64, err error) {
		switch {
		case err == nil:
			acked = append(acked, id)
		case errors.Is(err, commit.ErrPending):
			pending = fmt.Errorf("future for id %d unresolved after Close", id)
		default:
			unacked = append(unacked, id)
		}
	}}
	heap, t, fired := crashAt(site, build, path, loadN, model)
	defer heap.Release()
	if r.Fired = fired; !fired {
		return r
	}
	if pending != nil {
		// The path's own settle contract broke — as severe as a corrupt
		// image, and there is no model to verify one against.
		r.fail(OutcomeCorrupt, pending.Error())
		return r
	}

	// Restart: materialise the policy's image, then recover it exactly
	// as a restart would. From here on every boundary must be durable.
	r.Cycle = heap.PowerCycle(policy, seed)
	if err := guard(t.recover); err != nil {
		r.fail(OutcomeCorrupt, fmt.Sprintf("recovery failed: %v", err))
		return r
	}
	r.RecoveryViolations = violations(heap)
	s := t.session()
	if !r.readback("readback", s.lookup, acked) {
		return r
	}
	// An unacknowledged write may have completed (its commit store made
	// it out, or — at commit.ack.fenced — its whole batch was durable
	// and only the ack was lost) or vanished, but never with a wrong
	// value: each op's commit store is individually atomic.
	if err := guard(func() error {
		for _, id := range unacked {
			if v, ok := s.lookup(id); !ok {
				r.fail(OutcomePartial, "")
			} else if v != id {
				r.fail(OutcomeCorrupt, fmt.Sprintf("in-flight id %d read back %d", id, v))
			}
		}
		return nil
	}); err != nil {
		r.fail(OutcomeCorrupt, fmt.Sprintf("in-flight lookup %v", err))
		return r
	}

	// The recovered index must accept and retain new writes. One fresh
	// generation per ack unit (the load's died with the crash), so every
	// coverage check sits at a settled — on the Async path, quiesced —
	// boundary.
	for lo := 0; lo < postN; lo += path.unit() {
		first, n := uint64(postBase+lo), min(path.unit(), postN-lo)
		if err := guard(func() error { return load(t, path, first, n, hooks{}) }); err != nil {
			r.fail(OutcomeCorrupt, fmt.Sprintf("post-crash %v", err))
			return r
		}
		r.OpViolations += violations(heap)
		for id := first; id < first+uint64(n); id++ {
			acked = append(acked, id)
		}
	}
	// Post-crash writes must not damage recovered data, nor lose their
	// own.
	r.readback("post-ops readback", s.lookup, acked)
	return r
}
