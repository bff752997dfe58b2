// Crash-mid-migration campaigns: the lossy power-failure methodology
// and the per-site durability sweep, extended to the resharding
// protocol's crash sites (shard.SiteCopyApplied on the recipient,
// shard.SiteFlipPublished on the donor, and the group-commit sites a
// copy batch passes through on the recipient).
//
// Each trial builds a fresh sharded front-end, loads it, then runs a
// slot (or range) migration with a crash armed on the role-appropriate
// shard's heap. After the crash the trial power-cycles only that shard,
// runs the crashed-shard recovery sweep, and asserts the resharding
// invariants on top of the usual lossy verdicts:
//
//   - recovery replays exactly the crashed shard — a migration crash
//     must never force healthy shards through recovery;
//   - every acknowledged write reads back through the surviving routing
//     table (donor-authoritative after an abort, recipient-owned after
//     a published flip);
//   - the merged scan stays duplicate-free — migration residue on
//     either side of the handoff is deduplicated, not double-counted;
//   - an aborted migration is retryable to completion afterwards.
package harness

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/crash"
	"repro/internal/group"
	"repro/internal/keys"
	"repro/internal/pmem"
	"repro/shard"
)

// ReshardSiteReport is one (crash site, host shard) row in a reshard
// campaign.
type ReshardSiteReport struct {
	// Site is the crash-site name.
	Site string
	// Host is the shard whose heap the injector was armed on (the
	// recipient for copy-path sites, the donor for the flip site).
	Host int
	// Fired reports whether the migration reached the site and crashed.
	Fired bool
	Verdict
	// Replays is the per-shard recovery replay count after the trial;
	// Pass requires zeros everywhere but Host.
	Replays []uint64
	// RecoveryViolations and OpViolations are the flush-coverage
	// counters (always zero in lossy mode).
	RecoveryViolations int
	OpViolations       int
	// Cycle is the power cycle's damage report (lossy mode).
	Cycle pmem.CycleReport
}

// ReshardCampaignReport summarises one index × mode reshard campaign.
type ReshardCampaignReport struct {
	Index string
	// Mode is "lossy" or "durability".
	Mode string
	// Policy is the power-cycle policy (lossy mode).
	Policy pmem.Policy
	// Seed drove the torn coin flips (combined per site).
	Seed int64
	// Shards is the front-end width of every trial.
	Shards int
	// PostOps is the number of post-recovery inserts verified per site.
	PostOps int
	// Sites holds one row per (site, host) pair, in sweep order.
	Sites []ReshardSiteReport
}

// Fired counts trials that actually crashed.
func (r ReshardCampaignReport) Fired() int {
	n := 0
	for _, s := range r.Sites {
		if s.Fired {
			n++
		}
	}
	return n
}

// Pass reports whether no trial lost acknowledged data, corrupted the
// front-end, replayed a healthy shard, or (durability mode) left a line
// unflushed at a boundary.
func (r ReshardCampaignReport) Pass() bool {
	for _, s := range r.Sites {
		if s.Outcome == OutcomeLostAck || s.Outcome == OutcomeCorrupt {
			return false
		}
		if s.RecoveryViolations != 0 || s.OpViolations != 0 {
			return false
		}
		for i, c := range s.Replays {
			if i == s.Host && s.Fired {
				continue // the crashed shard's own replay
			}
			if c != 0 {
				return false
			}
		}
	}
	return true
}

func (r ReshardCampaignReport) String() string {
	return fmt.Sprintf("%-12s mode=%-10s policy=%-6s sites=%d fired=%d lostAck=%d corrupt=%d  %s",
		r.Index, r.Mode, r.Policy, len(r.Sites), r.Fired(),
		r.Count(OutcomeLostAck), r.Count(OutcomeCorrupt), verdict(r.Pass()))
}

// Count returns the number of fired trials with the given outcome.
func (r ReshardCampaignReport) Count(o LossyOutcome) int {
	n := 0
	for _, s := range r.Sites {
		if s.Fired && s.Outcome == o {
			n++
		}
	}
	return n
}

// reshardFront is what the sweep needs of a sharded front-end; both
// shard.Ordered and shard.Hash provide it.
type reshardFront interface {
	SlotsOf(s int) []int
	MigrateSlots(donor, recipient int, slots []int, batchSize int) error
	NumShards() int
	Heap(i int) *pmem.Heap
	PowerCycleShard(i int, p pmem.Policy, seed int64) pmem.CycleReport
	RecoverCrashed() ([]int, error)
	Recoveries() []uint64
	Release()
}

// reshardRig is one trial's front-end, addressed by dense identifier
// through the same adaptor as every other runner.
type reshardRig struct {
	reshardFront
	session
	migrate func() error // the armed migration (donorShard -> recipientShard)
	// uniqueScan counts the merged scan's entries, -1 if they are not
	// strictly ascending; nil on unordered front-ends.
	uniqueScan func() int
}

// The migration every trial crashes: half of shard 0's keys move to
// shard 1.
const donorShard, recipientShard = 0, 1

// reshardPair is one sweep entry: a crash site and which migration role
// hosts the injector.
type reshardPair struct {
	site    string
	onDonor bool
	// flips reports that a crash at this site lands after the flip
	// published (the migration stands); everywhere else it aborts.
	flips bool
}

// reshardPairs is the sweep: every crash boundary the migration
// protocol adds, plus the group-commit sites its copy batches pass
// through on the recipient.
var reshardPairs = []reshardPair{
	{site: group.SiteOpApplied},
	{site: group.SiteCommitFenced},
	{site: shard.SiteCopyApplied},
	{site: shard.SiteFlipPublished, onDonor: true, flips: true},
}

// newReshardRig builds one trial front-end of the named index (ordered
// or unordered, integer keys). ranged selects a range-partitioned
// ordered front-end migrating the upper half of the donor's span;
// otherwise half the donor's slots move.
func newReshardRig(name string, ranged bool, h int, heapOpts pmem.Options) (*reshardRig, error) {
	opts := shard.Options{Shards: h, Heap: heapOpts}
	rig := &reshardRig{}
	if slices.Contains(core.HashNames, name) {
		m, err := shard.NewHash(name, opts)
		if err != nil {
			return nil, err
		}
		rig.reshardFront, rig.session = m, ShardedHash(m).session()
	} else {
		if ranged {
			opts.Partitioner = shard.RangePartition{}
		}
		m, err := shard.NewOrdered(name, keys.RandInt, opts)
		if err != nil {
			return nil, err
		}
		rig.reshardFront, rig.session = m, ShardedOrdered(m, keys.RandInt).session()
		rig.uniqueScan = func() int {
			seen := 0
			var prev []byte
			m.Scan(nil, 0, func(k []byte, v uint64) bool {
				if prev != nil && string(prev) >= string(k) {
					seen = -1
					return false
				}
				prev = append(prev[:0], k...)
				seen++
				return true
			})
			return seen
		}
		if ranged {
			width := ^uint64(0)/uint64(h) + 1
			rig.migrate = func() error { return m.MigrateRange(donorShard, recipientShard, width/2, width-1, 32) }
		}
	}
	if rig.migrate == nil {
		rig.migrate = func() error {
			slots := rig.SlotsOf(donorShard)
			return rig.MigrateSlots(donorShard, recipientShard, slots[:len(slots)/2], 32)
		}
	}
	return rig, nil
}

// ReshardCampaign runs the crash-mid-migration campaign for the named
// index over every reshard sweep site, fanned out over `workers`
// goroutines. With lossy set, heaps run in Shadow mode and the crashed
// shard is power-cycled under policy (torn coin flips from seed);
// otherwise it is the flush-coverage variant: Track-mode heaps, no
// power loss, asserting that recovery, post-crash traffic and the retry
// leave every dirtied line flushed and fenced at operation boundaries
// on every shard (policy and seed are unused). ranged applies to
// ordered indexes only.
func ReshardCampaign(name string, ranged, lossy bool, policy pmem.Policy, seed int64, shards, loadN, postN, workers int) ReshardCampaignReport {
	rep := ReshardCampaignReport{
		Index: name, Mode: "durability", Shards: shards,
		PostOps: postN, Sites: make([]ReshardSiteReport, len(reshardPairs)),
	}
	heapOpts := pmem.Options{Track: true}
	if lossy {
		rep.Mode, rep.Policy, rep.Seed = "lossy", policy, seed
		heapOpts = pmem.Options{Shadow: true}
	}
	forEachSite(len(reshardPairs), workers, func(i int) {
		pair := reshardPairs[i]
		rig, err := newReshardRig(name, ranged, shards, heapOpts)
		if err != nil {
			rep.Sites[i].Site = pair.site
			rep.Sites[i].fail(OutcomeCorrupt, fmt.Sprintf("build: %v", err))
			return
		}
		defer rig.Release()
		rep.Sites[i] = reshardAtSite(rig, pair, lossy, policy, siteSeed(seed, pair.site), loadN, postN)
	})
	return rep
}

// reshardAtSite is one trial; see the package comment for the protocol
// and the invariants asserted.
func reshardAtSite(rig *reshardRig, pair reshardPair, lossy bool, policy pmem.Policy, seed int64, loadN, postN int) ReshardSiteReport {
	r := ReshardSiteReport{Site: pair.site, Host: recipientShard}
	if pair.onDonor {
		r.Host = donorShard
	}
	host := rig.Heap(r.Host)

	committed := make([]uint64, 0, loadN+postN)
	for id := uint64(0); id < uint64(loadN); id++ {
		if err := rig.write(id, id, false); err != nil {
			r.fail(OutcomeCorrupt, fmt.Sprintf("load insert %d: %v", id, err))
			return r
		}
		committed = append(committed, id)
	}

	// Arm the host shard and run the migration into the crash.
	inj := crash.NewAtSite(pair.site, 1)
	host.SetInjector(inj)
	merr := guard(rig.migrate)
	r.Fired = inj.Fired()
	if !r.Fired {
		host.SetInjector(nil)
		if merr != nil {
			r.fail(OutcomeCorrupt, fmt.Sprintf("migration failed without firing: %v", merr))
		}
		return r
	}
	if merr == nil {
		r.fail(OutcomeCorrupt, "migration acknowledged success despite an injected crash")
		return r
	}

	// Restart only the crashed shard: lossy mode materialises its
	// post-power-loss image first; durability mode adopts power-cycle
	// semantics on its flush tracker.
	if lossy {
		r.Cycle = rig.PowerCycleShard(r.Host, policy, seed)
	} else {
		host.Tracker().Reset()
	}
	recovered, rerr := rig.RecoverCrashed()
	r.Replays = rig.Recoveries()
	if rerr != nil {
		r.fail(OutcomeCorrupt, fmt.Sprintf("recovery: %v", rerr))
		return r
	}
	if len(recovered) != 1 || recovered[0] != r.Host {
		r.fail(OutcomeCorrupt, fmt.Sprintf("recovered %v, want [%d]", recovered, r.Host))
		return r
	}
	if !lossy {
		r.RecoveryViolations = violations(host)
	}
	// boundary sums flush-coverage violations over every shard's tracker
	// at an operation boundary.
	boundary := func() {
		for i := 0; !lossy && i < rig.NumShards(); i++ {
			r.OpViolations += violations(rig.Heap(i))
		}
	}

	// verify is the shared readback plus the resharding invariant on top:
	// the merged scan stays duplicate-free across the handoff.
	verify := func(phase string) bool {
		if !r.readback(phase, rig.lookup, committed) {
			return false
		}
		if rig.uniqueScan == nil {
			return true
		}
		var n int
		if err := guard(func() error { n = rig.uniqueScan(); return nil }); err != nil || n != len(committed) {
			r.fail(OutcomeCorrupt, fmt.Sprintf("%s: unique scan %d (err %v), want %d", phase, n, err, len(committed)))
			return false
		}
		return true
	}
	if !verify("readback") {
		return r
	}

	// The surviving routing table must keep serving writes.
	for i := 0; i < postN; i++ {
		id := uint64(postBase + i)
		if err := guard(func() error { return rig.write(id, id, false) }); err != nil {
			r.fail(OutcomeCorrupt, fmt.Sprintf("post-crash insert %d: %v", id, err))
			return r
		}
		boundary()
	}
	// From here on the post-crash inserts are acknowledged data too.
	for i := 0; i < postN; i++ {
		committed = append(committed, uint64(postBase+i))
	}

	// An aborted migration must be retryable to completion; a published
	// flip already stands, so there is nothing to redo.
	if !pair.flips {
		if err := guard(rig.migrate); err != nil {
			r.fail(OutcomeCorrupt, fmt.Sprintf("retry migration: %v", err))
			return r
		}
		boundary()
	}
	verify("final readback")
	return r
}
