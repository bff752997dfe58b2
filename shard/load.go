// Load accounting: epoch-windowed per-shard activity snapshots that
// drive rebalancing decisions. Every routed operation bumps a striped
// per-shard counter and a striped per-slot counter, so accounting adds
// no shared cache line to the hot path and never quiesces writers;
// LoadReport turns the cumulative counters into rolling deltas since the
// previous report.
package shard

import "sync"

// ShardLoad is one shard's activity during a report epoch (the window
// since the previous LoadReport call).
type ShardLoad struct {
	// Shard is the partition index.
	Shard int
	// Ops is the number of operations routed to the shard: point
	// operations, batched operations, and async-pipeline enqueues.
	Ops uint64
	// Clwb and Fence are the shard heap's persist-instruction deltas —
	// the PM-side cost of the shard's traffic, which can diverge from Ops
	// under mixed workloads (inserts persist more lines than lookups).
	Clwb, Fence uint64
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

// MaxShard returns the busiest serving shard of the epoch (-1 when no
// shard served traffic).
func (r LoadReport) MaxShard() int {
	best, bestOps := -1, uint64(0)
	for _, l := range r.Loads {
		if l.Quarantined {
			continue
		}
		if best == -1 || l.Ops > bestOps {
			best, bestOps = l.Shard, l.Ops
		}
	}
	return best
}

// MinShard returns the least busy serving shard of the epoch (-1 when
// every shard is quarantined).
func (r LoadReport) MinShard() int {
	best := -1
	var bestOps uint64
	for _, l := range r.Loads {
		if l.Quarantined {
			continue
		}
		if best == -1 || l.Ops < bestOps {
			best, bestOps = l.Shard, l.Ops
		}
	}
	return best
}

// loadState is the epoch bookkeeping behind LoadReport: the cumulative
// counter values at the previous report, so each report returns deltas.
// It lives behind a pointer on the frontend because it holds a mutex.
type loadState struct {
	mu        sync.Mutex
	epoch     uint64
	lastOps   []uint64
	lastClwb  []uint64
	lastFence []uint64
}

// LoadReport snapshots every shard's activity since the previous call
// (the first call reports since construction) and starts a new epoch.
// It is safe to call concurrently with operations; concurrent reports
// serialise against each other.
func (f *frontend[K]) LoadReport() LoadReport {
	ls := f.load
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.lastOps == nil {
		ls.lastOps = make([]uint64, len(f.shards))
		ls.lastClwb = make([]uint64, len(f.shards))
		ls.lastFence = make([]uint64, len(f.shards))
	}
	ls.epoch++
	r := LoadReport{Epoch: ls.epoch, Loads: make([]ShardLoad, len(f.shards))}
	for i := range f.shards {
		ops := f.opCount[i].Load()
		st := f.shards[i].heap.Stats()
		r.Loads[i] = ShardLoad{
			Shard:       i,
			Ops:         ops - ls.lastOps[i],
			Clwb:        st.Clwb - ls.lastClwb[i],
			Fence:       st.Fence - ls.lastFence[i],
			Quarantined: f.health[i].quarantined.Load(),
		}
		ls.lastOps[i] = ops
		ls.lastClwb[i] = st.Clwb
		ls.lastFence[i] = st.Fence
	}
	return r
}

// OpCounts returns the cumulative routed-operation count per shard
// (LoadReport's counter before epoch differencing).
func (f *frontend[K]) OpCounts() []uint64 {
	out := make([]uint64, len(f.shards))
	for i := range f.shards {
		out[i] = f.opCount[i].Load()
	}
	return out
}

// TableVersion returns the published routing table's version: 0 at
// birth, stepping on every window open, abort, or flip.
func (f *frontend[K]) TableVersion() uint64 { return f.rt.Load().version }

// SlotLoads returns the cumulative routed-operation count per routing
// slot (hash tables) or per span (range tables). Slot counts feed the
// rebalancer's choice of which slice of a hot shard to move.
func (f *frontend[K]) SlotLoads() []uint64 {
	t := f.rt.Load()
	out := make([]uint64, len(t.ops))
	for i := range t.ops {
		out[i] = t.ops[i].Load()
	}
	return out
}

// SlotsOf returns the routing slots (hash tables) or span indices
// (range tables) currently owned by shard s.
func (f *frontend[K]) SlotsOf(s int) []int {
	var out []int
	for j, o := range f.rt.Load().owners() {
		if int(o) == s {
			out = append(out, j)
		}
	}
	return out
}
