package harness

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/pmem"
)

const (
	reshardShards = 4
	reshardLoadN  = 300
	reshardPostN  = 30
)

// reshardIndexes are the campaign indexes the reshard sweep covers:
// all of them, or the ordered ones.
func reshardIndexes(ordered bool) []string {
	var names []string
	for _, name := range campaignIndexes {
		if !ordered || !slices.Contains(core.HashNames, name) {
			names = append(names, name)
		}
	}
	return names
}

// sweepReshard runs the reshard campaign for each index under each
// policy at the given writer count, one seed per cell, and asserts every
// row fired and found nothing: zero LOST-ACK, zero CORRUPT, zero
// healthy-shard replays, zero flush-coverage violations.
func sweepReshard(t *testing.T, names []string, ranged bool, policies []pmem.Policy, writers int) {
	t.Helper()
	for _, name := range names {
		for _, policy := range policies {
			rep := ReshardCampaign(name, ranged, policy, 1, reshardShards, reshardLoadN, reshardPostN, writers, 0)
			for _, s := range rep.Sites {
				if !s.Fired || !s.Pass() {
					t.Errorf("%s/%v writers=%d site %s host %d: fired=%v %s lostAcks=%d recovViol=%d opViol=%d replays=%v detail=%s",
						name, policy, writers, s.Site, s.Host, s.Fired, s.Outcome, s.LostAcks, s.RecoveryViolations, s.OpViolations, s.Replays, s.Detail)
				}
			}
		}
	}
}

// TestReshardDurability: the §5 image over the reshard sites, every
// index on hash partitions, with one writer and with four in the
// handoff window — recovery and post-crash traffic must leave every
// dirtied line flushed and fenced at operation boundaries, on every
// shard, and lose nothing.
func TestReshardDurability(t *testing.T) {
	for _, writers := range []int{1, 4} {
		sweepReshard(t, reshardIndexes(false), false, []pmem.Policy{pmem.PolicyIntact}, writers)
	}
}

// TestReshardLossy sweeps every reshard crash site under the three
// lossy power-cycle images, every index on hash partitions, one writer
// in the handoff window: ordered donors are walked by cursor, hash
// donors from a key snapshot. Its P-HOT revert cell once ran out of
// memory: a crash inside a migration's group commit, restarted from the
// revert image, rolled back the pointer swap that had retired a node
// while the node kept its obsolete mark, and every later commit through
// it retried, allocating, without bound. Recover's new lock generation
// frees the marks and hot.ErrStalled bounds the retry; CI runs this
// test under an address-space cap, so a regression of either fails
// instead of exhausting the machine.
func TestReshardLossy(t *testing.T) {
	sweepReshard(t, reshardIndexes(false), false, []pmem.Policy{pmem.PolicyRevert, pmem.PolicyKeep, pmem.PolicyTorn}, 1)
}

// TestReshardLossyRange covers migration on a range front-end, whose
// donor walk is bounded by the moving slots' point interval, for every
// ordered index: one writer under all four images, four under the
// intact one.
func TestReshardLossyRange(t *testing.T) {
	sweepReshard(t, reshardIndexes(true), true, pmem.Policies, 1)
	sweepReshard(t, reshardIndexes(true), true, []pmem.Policy{pmem.PolicyIntact}, 4)
}
