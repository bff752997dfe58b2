// Crash-mid-migration campaigns: the per-site trial of trial.go,
// extended to the resharding protocol's crash sites
// (shard.SiteCopyApplied on the recipient, shard.SiteFlipPublished on
// the donor, and the group-commit sites a copy batch passes through on
// the recipient).
//
// Each trial builds a fresh sharded front-end on Shadow heaps, loads
// it, then runs a slot (or range) migration with a crash armed on the
// role-appropriate shard's heap. After the crash the trial power-cycles
// only that shard under the policy, runs the crashed-shard recovery
// sweep, and asserts the resharding invariants on top of the per-site
// trial's readback and flush coverage (on every shard):
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

// ReshardCampaignReport is a CampaignReport over the migration sweep:
// one row per (site, host shard) pair, in sweep order.
type ReshardCampaignReport struct {
	CampaignReport
	// Shards is the front-end width of every trial.
	Shards int
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
func newReshardRig(name string, ranged bool, h int) (*reshardRig, error) {
	opts := shard.Options{Shards: h, Heap: pmem.Options{Shadow: true}}
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
// goroutines, power-cycling the crashed shard under policy (torn coin
// flips from seed). ranged applies to ordered indexes only.
func ReshardCampaign(name string, ranged bool, policy pmem.Policy, seed int64, shards, loadN, postN, workers int) ReshardCampaignReport {
	rep := ReshardCampaignReport{Shards: shards, CampaignReport: CampaignReport{
		Index: name, Policy: policy, Seed: seed,
		PostOps: postN, Sites: make([]SiteReport, len(reshardPairs)),
	}}
	forEachSite(len(reshardPairs), workers, func(i int) {
		pair := reshardPairs[i]
		rig, err := newReshardRig(name, ranged, shards)
		if err != nil {
			rep.Sites[i].Site = pair.site
			rep.Sites[i].fail(OutcomeCorrupt, fmt.Sprintf("build: %v", err))
			return
		}
		defer rig.Release()
		rep.Sites[i] = reshardAtSite(rig, pair, policy, siteSeed(seed, pair.site), loadN, postN)
	})
	return rep
}

// reshardAtSite is one trial; see the package comment for the protocol
// and the invariants asserted.
func reshardAtSite(rig *reshardRig, pair reshardPair, policy pmem.Policy, seed int64, loadN, postN int) SiteReport {
	r := SiteReport{Site: pair.site, Host: recipientShard}
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

	// Restart only the crashed shard, from the policy's image.
	r.Cycle = rig.PowerCycleShard(r.Host, policy, seed)
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
	r.RecoveryViolations = violations(host)
	// boundary sums flush-coverage violations over every shard's tracker
	// at an operation boundary.
	boundary := func() {
		for i := 0; i < rig.NumShards(); i++ {
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

	// The surviving routing table must keep serving writes, and what it
	// acknowledges is committed data too.
	for i := 0; i < postN; i++ {
		id := uint64(postBase + i)
		if err := guard(func() error { return rig.write(id, id, false) }); err != nil {
			r.fail(OutcomeCorrupt, fmt.Sprintf("post-crash insert %d: %v", id, err))
			return r
		}
		boundary()
		committed = append(committed, id)
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
