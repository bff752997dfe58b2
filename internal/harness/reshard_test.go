package harness

import (
	"testing"

	"repro/internal/pmem"
)

const (
	reshardShards = 4
	reshardLoadN  = 300
	reshardPostN  = 30
)

// checkReshard asserts a reshard campaign fired at every sweep site and
// found nothing: zero LOST-ACK, zero CORRUPT, zero healthy-shard
// replays, zero flush-coverage violations.
func checkReshard(t *testing.T, rep ReshardCampaignReport) {
	t.Helper()
	t.Log(rep)
	if rep.Fired() != len(rep.Sites) {
		t.Errorf("%s/%v: only %d/%d sites fired", rep.Index, rep.Policy, rep.Fired(), len(rep.Sites))
	}
	if !rep.Pass() {
		for _, s := range rep.Sites {
			t.Errorf("%s/%v site %s host %d: %s lostAcks=%d recovViol=%d opViol=%d replays=%v detail=%s",
				rep.Index, rep.Policy, s.Site, s.Host, s.Outcome, s.LostAcks, s.RecoveryViolations, s.OpViolations, s.Replays, s.Detail)
		}
		t.Fatalf("%s/%v: reshard %s campaign failed", rep.Index, rep.Policy, rep.Mode)
	}
}

// TestReshardLossy sweeps every reshard crash site under all three
// power-cycle policies, for P-ART (the donor walked by ordered cursor)
// and P-CLHT (walked from a HashRanger key snapshot).
func TestReshardLossy(t *testing.T) {
	for _, policy := range pmem.Policies {
		checkReshard(t, ReshardCampaign("P-ART", false, true, policy, 1, reshardShards, reshardLoadN, reshardPostN, 0))
		checkReshard(t, ReshardCampaign("P-CLHT", false, true, policy, 2, reshardShards, reshardLoadN, reshardPostN, 0))
	}
}

// TestReshardLossyRange covers the range-window migration path (span
// split and merge in the flipped table) under the torn policy.
func TestReshardLossyRange(t *testing.T) {
	checkReshard(t, ReshardCampaign("P-ART", true, true, pmem.PolicyTorn, 3, reshardShards, reshardLoadN, reshardPostN, 0))
}

// TestReshardDurability: flush-coverage sweep over the reshard sites —
// recovery and post-crash traffic must leave every dirtied line flushed
// and fenced at operation boundaries, on every shard.
func TestReshardDurability(t *testing.T) {
	checkReshard(t, ReshardCampaign("P-ART", false, false, 0, 0, reshardShards, reshardLoadN, reshardPostN, 0))
	checkReshard(t, ReshardCampaign("P-CLHT", false, false, 0, 0, reshardShards, reshardLoadN, reshardPostN, 0))
}
