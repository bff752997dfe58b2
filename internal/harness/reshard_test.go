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
// every one but P-BwTree, whose fixed 8 MB mapping table costs ~40 ms
// to build on a shadow heap — 16 builds per cell would triple this
// package's test time. P-BwTree passes all eight of its cells; run them
// with ReshardCampaign("P-BwTree", ranged, policy, ...) when its
// migration path changes.
func reshardIndexes(ordered bool) []string {
	var names []string
	for _, name := range campaignIndexes {
		if name != "P-BwTree" && (!ordered || !slices.Contains(core.HashNames, name)) {
			names = append(names, name)
		}
	}
	return names
}

// checkReshard asserts a reshard campaign fired at every sweep site and
// found nothing: zero LOST-ACK, zero CORRUPT, zero healthy-shard
// replays, zero flush-coverage violations.
func checkReshard(t *testing.T, rep ReshardCampaignReport) {
	t.Helper()
	if rep.Fired() != len(rep.Sites) {
		t.Errorf("%s/%v: only %d/%d sites fired", rep.Index, rep.Policy, rep.Fired(), len(rep.Sites))
	}
	if !rep.Pass() {
		for _, s := range rep.Sites {
			t.Errorf("%s/%v site %s host %d: %s lostAcks=%d recovViol=%d opViol=%d replays=%v detail=%s",
				rep.Index, rep.Policy, s.Site, s.Host, s.Outcome, s.LostAcks, s.RecoveryViolations, s.OpViolations, s.Replays, s.Detail)
		}
		t.Fatalf("%s/%v: reshard campaign failed", rep.Index, rep.Policy)
	}
}

// sweepReshard runs the reshard campaign for each index under each
// policy, one seed per cell.
func sweepReshard(t *testing.T, names []string, ranged bool, policies []pmem.Policy) {
	for _, name := range names {
		for _, policy := range policies {
			checkReshard(t, ReshardCampaign(name, ranged, policy, 1, reshardShards, reshardLoadN, reshardPostN, 0))
		}
	}
}

// TestReshardDurability: the §5 image over the reshard sites, every
// index on hash partitions — recovery and post-crash traffic must leave
// every dirtied line flushed and fenced at operation boundaries, on
// every shard, and lose nothing.
func TestReshardDurability(t *testing.T) {
	sweepReshard(t, reshardIndexes(false), false, []pmem.Policy{pmem.PolicyIntact})
}

// TestReshardLossy sweeps every reshard crash site under the three
// lossy power-cycle images, every index on hash partitions: ordered
// donors are walked by cursor, hash donors from a key snapshot. Its
// P-HOT revert cell is ROADMAP item 1's reproduction: a crash inside a
// migration's group commit, restarted from the revert image, rolled
// back the pointer swap that had retired a node while the node kept its
// obsolete mark, and the unbounded retry of every later commit through
// it allocated until the process ran out of memory. Recover's new lock
// generation frees the marks and hot.ErrStalled bounds the retry; CI
// runs this test under an address-space cap, so a regression of either
// fails instead of exhausting the machine.
func TestReshardLossy(t *testing.T) {
	sweepReshard(t, reshardIndexes(false), false, []pmem.Policy{pmem.PolicyRevert, pmem.PolicyKeep, pmem.PolicyTorn})
}

// TestReshardLossyRange covers the range-window migration path (span
// split and merge in the flipped table) for every ordered index, under
// all four images.
func TestReshardLossyRange(t *testing.T) {
	sweepReshard(t, reshardIndexes(true), true, pmem.Policies)
}
