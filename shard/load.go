// Load accounting: epoch-windowed per-shard activity snapshots. Every
// routed operation bumps one striped counter — its routing slot's — so
// accounting adds no shared cache line to the hot path and never
// quiesces writers. A shard's load is the load of the slots it currently
// owns: LoadReport folds the per-slot deltas since the previous report
// by owner, the same fold Rebalance plans from (shardLoads), so the two
// are one measure.
package shard

import "sync"

// ShardLoad is one shard's activity during a report epoch (the window
// since the previous LoadReport call).
type ShardLoad struct {
	// Shard is the partition index.
	Shard int
	// Ops is the epoch's routed operations (point operations, batched
	// operations, async-pipeline commits) on the slots the shard owns
	// at the report: a slot migrated mid-epoch brings its whole epoch
	// count to the recipient.
	Ops uint64
	// Quarantined reports whether the shard was quarantined at snapshot
	// time; quarantined shards are excluded from Imbalance.
	Quarantined bool
}

// LoadReport is one epoch's cross-shard load snapshot.
type LoadReport struct {
	// Epoch numbers the report: the Nth LoadReport call on this
	// front-end, 1-based.
	Epoch uint64
	// Loads holds one entry per shard, in shard order.
	Loads []ShardLoad
}

// TotalOps sums the epoch's routed operations across all shards.
func (r LoadReport) TotalOps() uint64 {
	var t uint64
	for _, l := range r.Loads {
		t += l.Ops
	}
	return t
}

// Imbalance returns the epoch's load skew: the busiest serving shard's
// op count divided by the mean over serving shards. 1.0 is perfectly
// balanced; H is the worst case (all traffic on one of H shards). An
// epoch with no traffic reports 0.
func (r LoadReport) Imbalance() float64 {
	var total, max uint64
	n := 0
	for _, l := range r.Loads {
		if l.Quarantined {
			continue
		}
		total += l.Ops
		if l.Ops > max {
			max = l.Ops
		}
		n++
	}
	if total == 0 || n == 0 {
		return 0
	}
	mean := float64(total) / float64(n)
	return float64(max) / mean
}

// loadState is the epoch bookkeeping behind LoadReport: each slot
// counter's value at the previous report, so each report returns
// deltas. It lives behind a pointer on the frontend because it holds a
// mutex.
type loadState struct {
	mu    sync.Mutex
	epoch uint64
	last  []uint64
}

// LoadReport snapshots every shard's activity since the previous call
// (the first call reports since construction) and starts a new epoch.
// It is safe to call concurrently with operations; concurrent reports
// serialise against each other.
func (f *frontend[K]) LoadReport() LoadReport {
	ls := f.load
	ls.mu.Lock()
	defer ls.mu.Unlock()
	t := f.rt.Load()
	if ls.last == nil {
		ls.last = make([]uint64, len(t.ops))
	}
	ls.epoch++
	r := LoadReport{Epoch: ls.epoch, Loads: make([]ShardLoad, len(f.shards))}
	for i := range r.Loads {
		r.Loads[i] = ShardLoad{Shard: i, Quarantined: f.health[i].quarantined.Load()}
	}
	_, perSlot := shardLoads(t, len(f.shards))
	for j, o := range t.slots {
		r.Loads[o].Ops += perSlot[j] - ls.last[j]
	}
	ls.last = perSlot
	return r
}

// SlotsOf returns the routing slots currently owned by shard s.
func (f *frontend[K]) SlotsOf(s int) []int {
	var out []int
	for j, o := range f.rt.Load().slots {
		if int(o) == s {
			out = append(out, j)
		}
	}
	return out
}
