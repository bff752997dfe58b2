// The crash trial. Recipe §5 states one testing contract: once an
// operation is acknowledged, every line it dirtied is written back and
// fenced, and a crash loses nothing acknowledged. The campaigns
// (campaign.go) differ only in where they crash — at every site, at
// probabilistic states, or nowhere — and every trial follows one
// protocol, whatever the write path, the image and the target:
//
//  1. Build the target on fresh heaps (Shadow for the lossy images,
//     Track otherwise), arm the crash on one of them, and load
//     identifiers [0, loadN) through the path, modelling which writes it acknowledged and which it failed. A
//     target's migration is a second actor: it starts once half the ids
//     are loaded and the crash is armed where the migration passes, so
//     the writers loading the rest write through the handoff window,
//     applying each write to a moving key on donor and recipient. Once
//     the crash fires the crashed shard is down — a write reaching it
//     fails unacknowledged — and the writers stop.
//  2. Power-cycle the crashed heap under the policy (Heap.PowerCycle).
//     PolicyIntact is the §5 image: every store stays visible, so a
//     missing persist can only show as a tracker violation. The lossy
//     images lose what never reached a clwb+fence, and revert, keep or
//     tear what was written back but not fenced.
//  3. Recover through RecoverCrashed, which replays the crashed shard
//     alone, counting the lines recovery leaves dirty or unfenced. A
//     trial with no crash armed skips steps 2 and 3 and counts what
//     construction and the load left instead.
//  4. Read back every acknowledged id exactly, and every unacknowledged
//     one exact-or-absent. An ordered target's merged scan must be
//     strictly ascending — migration residue is never counted twice —
//     and hold every acknowledged id and at most every unacknowledged
//     one besides.
//  5. The post phase: postN fresh inserts, each ack unit then rewritten
//     in place with UpdateBit set, one ack unit at a time, counting
//     the lines left dirty or unfenced at every settled boundary: the
//     repair paths' flush coverage. Concurrent post-phase workers
//     overlap their boundaries, so theirs is counted once they join. A
//     migration the crash aborted then runs again, to completion.
//  6. Repeat step 4's checks, the rewritten values included.
//
// Outcomes per trial: CLEAN — every check passed; PARTIAL — an
// unacknowledged write vanished (acceptable under any failure model,
// reported for visibility); LOST-ACK — an acknowledged write is
// missing: the path acknowledged before the commit was durable, a real
// crash-consistency bug; CORRUPT — recovery or post-crash traffic
// panics or errors, or readback returns values never written.
//
// Loads run single-threaded (shadow capture is a single-writer testing
// mode, and so is a fence group), except beside a migration: there the
// crash fires only in the migration, so the protocol's writers load
// through the Sync path concurrently — more than one only on the intact
// image, which captures nothing. Trials are independent heaps fanned
// out over a worker pool and collected in order, and every torn coin
// flip derives from the campaign seed and the trial's name, so a report
// with one post-phase worker is identical for any pool size.
package harness

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/crash"
	"repro/internal/pmem"
)

// postBase is the first identifier of post-crash traffic: fresh ids
// continue the interrupted load, driving writers across (and through)
// whatever torn state the crash left behind.
const postBase = 1_000_000

// load drives identifiers [lo, lo+n) through one writer of path and
// settles it: inserts storing the identifier, or in-place rewrites
// storing it with UpdateBit set. It stops at the first failure, or once
// halt has fired (nil never does) — nothing runs on a dead machine —
// leaving whatever the batched path still holds unaccepted.
func load(t *Target, path WritePath, lo uint64, n int, update bool, h hooks, halt *crash.Injector) error {
	w := path.writer(t, t.session(), h)
	for id := lo; id < lo+uint64(n) && !halt.Fired(); id++ {
		v := id
		if update {
			v |= UpdateBit
		}
		if err := w.write(id, v, update); err != nil {
			return fmt.Errorf("write %d: %w", id, err)
		}
	}
	return w.settle()
}

// forEachTrial fans body out over a pool of workers (< 1 selects
// GOMAXPROCS). Each body(i) writes only its own result slot, so the
// collected output is in trial order no matter which worker ran it.
func forEachTrial(n, workers int, body func(i int)) {
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
	return [...]string{"CLEAN", "PARTIAL", "LOST-ACK", "CORRUPT"}[o]
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
// must read back exactly, with tag ORed in (UpdateBit for rewritten
// ids, 0 for inserted ones). It reports false if the index panicked
// under the lookups.
func (v *Verdict) readback(phase string, lookup func(uint64) (uint64, bool), acked []uint64, tag uint64) bool {
	err := guard(func() error {
		for _, id := range acked {
			got, ok := lookup(id)
			switch {
			case !ok:
				v.LostAcks++
				v.fail(OutcomeLostAck, fmt.Sprintf("%s: acknowledged id %d missing", phase, id))
			case got != id|tag:
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

// inflight checks the unacknowledged ids. Each may have completed (its
// commit store made it out, or — at group.commit.fenced — its whole
// batch was durable and only the ack was lost) or vanished, but never
// with a wrong value: each op's commit store is individually atomic. It reports
// false if the index panicked under the lookups.
func (v *Verdict) inflight(phase string, lookup func(uint64) (uint64, bool), unacked []uint64) bool {
	err := guard(func() error {
		for _, id := range unacked {
			if got, ok := lookup(id); !ok {
				v.fail(OutcomePartial, "")
			} else if got != id {
				v.fail(OutcomeCorrupt, fmt.Sprintf("%s: id %d read back %d", phase, id, got))
			}
		}
		return nil
	})
	if err != nil {
		v.fail(OutcomeCorrupt, fmt.Sprintf("%s lookup %v", phase, err))
	}
	return err == nil
}

// scanned checks an ordered target's merged scan: strictly ascending,
// with at least every acknowledged id and at most every unacknowledged
// one besides. A hash target passes.
func (v *Verdict) scanned(phase string, t *Target, acked, unacked int) bool {
	if t.mergedScan == nil {
		return true
	}
	n := -1
	err := guard(func() error { n = t.mergedScan(); return nil })
	if err != nil || n < acked || n > acked+unacked {
		v.fail(OutcomeCorrupt, fmt.Sprintf("%s: merged scan of %d (-1: not strictly ascending; err %v), want %d to %d",
			phase, n, err, acked, acked+unacked))
		return false
	}
	return true
}

// SiteReport is one crash trial's row: a crash site or a crash state of
// a campaign, the no-crash trial of the §5 test, or a (site, host
// shard) pair of a reshard campaign.
type SiteReport struct {
	// Site names the trial: a crash-site name (e.g.
	// "art.split.installed"), "state 17", or "construction".
	Site string
	// Fired reports whether the armed crash fired, so the trial went on
	// past its load (a trial with no crash armed always does). A
	// deterministic single-threaded load revisits the sites the
	// discovery pass saw, so this is false only for sites that need a
	// different interleaving to re-arise.
	Fired bool
	Verdict
	// RecoveryViolations counts lines left dirty or unfenced when the
	// post phase begins: by Recover, or — with no crash armed — by
	// construction and the load.
	RecoveryViolations int
	// OpViolations counts lines left dirty or unfenced at settled
	// post-phase boundaries — flush coverage of the repair paths.
	OpViolations int
	// DryFences and CleanWriteBacks are the trial's persistence waste,
	// as pmem.Tracker counts it: fences that ordered no write-back, and
	// write-backs of lines that were not dirty. Waste is a cost, not a
	// durability failure, so Pass ignores both.
	DryFences, CleanWriteBacks uint64
	// Cycle is the power cycle's damage report.
	Cycle pmem.CycleReport
	// Host is the shard whose heap the crash was armed on, and Replays
	// the per-shard recovery replay counts after the restart (nil if
	// nothing restarted), which must be zero everywhere but Host, and not
	// zero on Host.
	Host    int
	Replays []uint64
}

// Pass reports whether the trial found nothing: no lost or corrupt
// data, no flush-coverage violation, no replay of a healthy shard and
// no crashed shard left unreplayed.
func (s SiteReport) Pass() bool {
	if s.Outcome >= OutcomeLostAck || s.RecoveryViolations != 0 || s.OpViolations != 0 {
		return false
	}
	for i, c := range s.Replays {
		if (c != 0) != (i == s.Host) {
			return false
		}
	}
	return true
}

// CampaignReport summarises one index × policy campaign.
type CampaignReport struct {
	Index  string
	Policy pmem.Policy
	// Seed drove every trial's torn coin flips (combined per trial).
	Seed int64
	// PostOps is the number of post-phase inserts verified per trial.
	PostOps int
	// Sites holds one row per trial, in campaign order — deterministic
	// regardless of the worker count.
	Sites []SiteReport
}

// Fired counts trials that went on past their load.
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
		if !s.Pass() {
			return false
		}
	}
	return true
}

func (r CampaignReport) String() string {
	recov, ops := 0, 0
	var dry, clean uint64
	for _, s := range r.Sites {
		recov += s.RecoveryViolations
		ops += s.OpViolations
		dry += s.DryFences
		clean += s.CleanWriteBacks
	}
	verdict := "FAIL"
	if r.Pass() {
		verdict = "PASS"
	}
	return fmt.Sprintf("%-12s policy=%-6s trials=%d fired=%d clean=%d partial=%d lostAck=%d corrupt=%d recoveryViol=%d opViol=%d ops=%d dryFence=%d cleanWB=%d  %s",
		r.Index, r.Policy, len(r.Sites), r.Fired(),
		r.Count(OutcomeClean), r.Count(OutcomePartial), r.Count(OutcomeLostAck), r.Count(OutcomeCorrupt),
		recov, ops, r.PostOps, dry, clean, verdict)
}

// protocol is what every trial of one campaign shares.
type protocol struct {
	build  Build
	path   WritePath
	policy pmem.Policy
	// loadN ids load before the restart; postN ids are inserted and
	// rewritten after it, on `writers` concurrent workers (> 1 only on
	// the Sync path: a fence group is single-writer). Beside a target's
	// migration the load runs on `writers` workers too.
	loadN, postN, writers int
}

// trial runs one trial named site: inj is armed on the heap of shard
// host mod the target's width in shards, and a nil inj arms nothing. seed drives the torn coin flips.
func (p protocol) trial(site string, inj *crash.Injector, host int, seed int64) SiteReport {
	r := SiteReport{Site: site}
	t := p.build(pmem.Options{Track: true, Shadow: p.policy != pmem.PolicyIntact})
	defer t.release()
	r.Host = host % len(t.heaps)
	heap := t.heaps[r.Host]
	// The model: which accepted writes the path acknowledged, and which
	// it failed — the crashed op (per-op), or the whole unflushed batch
	// (batched).
	var acked, unacked []uint64
	var mu sync.Mutex // concurrent writers beside a migration
	model := hooks{resolved: func(id uint64, err error) {
		mu.Lock()
		defer mu.Unlock()
		if err == nil {
			acked = append(acked, id)
		} else {
			unacked = append(unacked, id)
		}
	}}
	heap.SetInjector(inj)
	merr := p.loadArmed(t, inj, model)
	// The injector — not an error return — says whether the crash fired:
	// beside a migration it happens on the migration's goroutine.
	if r.Fired = inj == nil || inj.Fired(); !r.Fired {
		heap.SetInjector(nil)
		if merr != nil {
			r.fail(OutcomeCorrupt, fmt.Sprintf("migration failed without a crash: %v", merr))
		}
		return r
	}
	if t.migrate != nil && merr == nil {
		r.fail(OutcomeCorrupt, "migration acknowledged success despite the crash")
		return r
	}

	if inj != nil {
		// Restart: materialise the policy's image, then recover it exactly
		// as a restart would. From here on every boundary must be durable.
		r.Cycle = heap.PowerCycle(p.policy, seed)
		if err := guard(func() (err error) { r.Replays, err = t.recover(); return err }); err != nil {
			r.fail(OutcomeCorrupt, fmt.Sprintf("recovery failed: %v", err))
			return r
		}
	}
	r.RecoveryViolations = t.violations()
	s := t.session()
	if !r.readback("readback", s.lookup, acked, 0) || !r.inflight("in-flight", s.lookup, unacked) ||
		!r.scanned("readback", t, len(acked), len(unacked)) {
		return r
	}

	if err := p.post(t, &r); err != nil {
		r.fail(OutcomeCorrupt, fmt.Sprintf("post phase: %v", err))
		return r
	}
	// Post-crash writes must not damage recovered data, nor lose their
	// own.
	posted := make([]uint64, p.postN)
	for i := range posted {
		posted[i] = uint64(postBase + i)
	}
	_ = r.readback("post-ops readback", s.lookup, acked, 0) && r.readback("post-ops readback", s.lookup, posted, UpdateBit) &&
		r.inflight("post-ops in-flight", s.lookup, unacked) && r.scanned("post-ops readback", t, len(acked)+p.postN, len(unacked))
	for _, h := range t.heaps {
		r.DryFences += h.Tracker().DryFences()
		r.CleanWriteBacks += h.Tracker().CleanWriteBacks()
	}
	return r
}

// post runs the post phase: the recovered target must accept and keep
// new writes and in-place rewrites, and the target's migration, if it
// has one, must then run to completion. Each worker takes a contiguous
// share of the ids and settles once per ack unit, so with one worker
// every coverage check sits at a settled boundary.
func (p protocol) post(t *Target, r *SiteReport) error {
	unit := p.path.unit()
	err := p.fan(p.postN, func(lo, hi int) error {
		for ; lo < hi; lo += unit {
			first, n := uint64(postBase+lo), min(unit, hi-lo)
			for _, update := range []bool{false, true} {
				if err := guard(func() error { return load(t, p.path, first, n, update, hooks{}, nil) }); err != nil {
					return err
				}
				if p.writers == 1 {
					r.OpViolations += t.violations()
				}
			}
		}
		return nil
	})
	if err == nil && t.migrate != nil {
		// An aborted migration runs again to completion; a published
		// flip stands, and the retry has nothing left to move.
		if err = guard(t.migrate); err != nil {
			err = fmt.Errorf("retried migration: %w", err)
		}
	}
	if p.writers > 1 || t.migrate != nil {
		r.OpViolations += t.violations()
	}
	return err
}

// loadArmed is step 1: ids [0, loadN) into the armed crash inj,
// resolved through model. Beside a target's migration it loads half of
// them on the protocol's writers, then the rest while the migration
// runs, and returns the migration's error.
func (p protocol) loadArmed(t *Target, inj *crash.Injector, model hooks) (merr error) {
	if t.migrate == nil {
		_ = load(t, p.path, 0, p.loadN, false, model, nil) // a crash is the expected failure; the model resolves the rest
		return nil
	}
	writers := func(base, n int) {
		_ = p.fan(n, func(lo, hi int) error { return load(t, p.path, uint64(base+lo), hi-lo, false, model, inj) })
	}
	half := p.loadN / 2
	writers(0, half)
	done := make(chan struct{})
	go func() {
		defer close(done)
		merr = guard(t.migrate)
	}()
	writers(half, p.loadN-half)
	<-done
	return merr
}

// fan splits [0, n) into one contiguous share per writer and runs body
// on each share concurrently, joining the errors.
func (p protocol) fan(n int, body func(lo, hi int) error) error {
	share := (n + p.writers - 1) / p.writers
	errs := make([]error, p.writers)
	var wg sync.WaitGroup
	for w := range p.writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = body(min(w*share, n), min((w+1)*share, n))
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}
