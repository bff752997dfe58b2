// The single-shard group-commit entry point for external committers:
// the async pipeline (internal/commit) routes each op itself (Route, in
// shard.go) and drains per-shard queues, so it needs to commit a
// pre-routed batch on one shard without re-partitioning. The quarantine
// and single-writer rules are the batch API's (batch.go): a quarantined
// shard rejects the whole batch with *ShardUnavailableError, and the
// commit goes through commitShard. Like the rest of the front-end body
// it is written once, over group.Op[K].
//
// Pre-routing pins a route at enqueue time, so an async pipeline whose
// ops straddle a routing-table flip can apply to the old owner. While a
// handoff window is open ApplyShard shadow-applies the covered ops to
// the recipient (so in-window traffic is migration-safe), but a flip
// retires the window — drain async pipelines before rebalancing.
package shard

import "repro/internal/group"

// ApplyShard applies ops — all of which must be owned by shard s (see
// Route) — as one group commit on that shard's heap. A quarantined
// shard returns *ShardUnavailableError without touching the index;
// otherwise the error is the group layer's (*group.Error on partial
// application). A nil return means every op is durable.
func (f *frontend[K]) ApplyShard(s int, ops []group.Op[K], obs group.Observer) error {
	if len(f.shards) > 1 {
		g := f.gate.enter()
		defer f.gate.exit(g)
		if t := f.rt.Load(); t.mig != nil && t.mig.donor == s {
			return f.applyDonor(t, ops, obs)
		}
	}
	if err := f.unavailable(s); err != nil {
		return err
	}
	return f.commitShard(s, ops, obs)
}

// applyDonor is ApplyShard against the migration donor while table t's
// handoff window is open: the donor commit stays authoritative, and the
// window-covered slice of the applied ops is shadow-applied to the
// recipient under the shared window lock, so copy batches cannot
// interleave.
func (f *frontend[K]) applyDonor(t *routeTable, ops []group.Op[K], obs group.Observer) error {
	mg := t.mig
	if err := f.unavailable(mg.donor); err != nil {
		return err
	}
	mg.mu.RLock()
	defer mg.mu.RUnlock()
	err := f.commitShard(mg.donor, ops, obs)
	var covered []group.Op[K]
	for _, op := range ops[:applied(len(ops), err)] {
		if mg.covers(f.part.Point(op.Key), t) {
			covered = append(covered, op)
		}
	}
	f.shadow(mg, covered)
	return err
}
