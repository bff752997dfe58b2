// Routing tables: the versioned point → shard mapping, the single
// routing authority of a front-end with more than one shard.
//
// A front-end is born with table version 0, whose mapping is the closed
// form of its partitioner (point % H, or ⌊point·H/2^64⌋ when the
// partitioner preserves order). The fast path is one atomic pointer load
// plus an O(1) slot lookup, and rebalancing publishes a fresh immutable
// table rather than mutating the live one.
package shard

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/stripe"
)

// SlotsPerShard is the slot multiplier: a front-end with H shards
// carves the ring into S = H×SlotsPerShard slots, each independently
// assignable to a shard. More slots means finer-grained load moves (one
// slot ≈ 1/S of a uniform key population) at the cost of a larger
// table; 64 lets the rebalancer move ~1.5% load increments while the
// table stays a few cache lines.
const SlotsPerShard = 64

// routeTable is one immutable version of the routing function. Readers
// reach it through a single atomic pointer load; rebalancing builds a
// modified copy and publishes it, so no lock ever sits on the routed-op
// fast path. Only the per-slot ops counters (striped) and the migration
// window carry mutable state.
type routeTable struct {
	// version increments on every published change; the flip that
	// completes a migration is observable as a version step.
	version uint64

	// slots[j] is the owning shard of slot j.
	slots []uint32
	// ordered selects the slot function (slot): order-preserving for a
	// front-end whose partitioner is, so slot order is point order.
	ordered bool

	// ops counts routed operations per slot: the one load measure,
	// folded by owner for LoadReport and Rebalance, and the rebalancer's
	// "which slice of the donor is hot". The backing array is shared
	// across table versions, so counts survive republishing.
	ops []*stripe.Counter

	// mig, when non-nil, is the open handoff window: keys the migration
	// is moving double-apply to donor and recipient (see reshard.go).
	mig *migration
}

// slot returns point p's slot: p % S on an unordered table, and on an
// ordered one ⌊p·S/2^64⌋, which cuts the ring into S equal contiguous
// arcs in point order.
func (t *routeTable) slot(p uint64) int {
	if t.ordered {
		hi, _ := bits.Mul64(p, uint64(len(t.slots)))
		return int(hi)
	}
	return int(p % uint64(len(t.slots)))
}

// locate returns the owning shard for point p and the slot it hit (for
// load counting).
func (t *routeTable) locate(p uint64) (shard, slot int) {
	j := t.slot(p)
	return int(t.slots[j]), j
}

// slotPoints returns the inclusive point interval [lo, hi] of ordered
// slot j of s: the points p with ⌊p·s/2^64⌋ = j, from ⌈j·2^64/s⌉ up to
// one below the next slot's lo.
func slotPoints(j, s int) (lo, hi uint64) {
	edge := func(j int) uint64 {
		q, r := bits.Div64(uint64(j), 0, uint64(s))
		if r != 0 {
			q++
		}
		return q
	}
	lo, hi = edge(j), math.MaxUint64
	if j+1 < s {
		hi = edge(j+1) - 1
	}
	return lo, hi
}

// pristine reports whether t is still the initial mapping and has never
// opened a migration window (every transition steps the version). Only
// then does every key live on exactly one shard — merged scans skip
// duplicate resolution — and, on an ordered table, shard order equal key
// order: after a migration slot ownership is no longer monotonic.
func (t *routeTable) pristine() bool { return t.version == 0 && t.mig == nil }

// newTable builds the table a front-end with H shards is born with:
// S = H×SlotsPerShard slots, each with its own load counter. An
// unordered table starts at slots[j] = j % H; because H divides S,
// (p % S) % H == p % H, so it places point p on shard p % H. An ordered
// table starts at slots[j] = j / SlotsPerShard, so shard i owns the
// contiguous slots [64i, 64i+64) and places point p on shard ⌊p·H/2^64⌋:
// H equal contiguous ranges, in key order.
func newTable(shards int, ordered bool) *routeTable {
	s := shards * SlotsPerShard
	t := &routeTable{slots: make([]uint32, s), ordered: ordered, ops: make([]*stripe.Counter, s)}
	for j := range t.slots {
		owner := j % shards
		if ordered {
			owner = j / SlotsPerShard
		}
		t.slots[j], t.ops[j] = uint32(owner), stripe.NewCounter()
	}
	return t
}

// clone returns a copy of t sharing the ops backing array, ready to be
// modified and published as the next version.
func (t *routeTable) clone() *routeTable {
	return &routeTable{version: t.version, slots: append([]uint32(nil), t.slots...), ordered: t.ordered, ops: t.ops}
}

// migration is the open handoff window of one in-flight migration: the
// set of slots moving from donor to recipient. While the window is
// open, writes to covered keys double-apply — the donor stays
// authoritative and acknowledges, the recipient receives a shadow copy —
// so the copy stream cannot miss a concurrent update. mu orders copy
// batches against those writers: a copy batch holds mu exclusively
// across its read-donor + apply-recipient step, while writers hold it
// shared across their double-apply, so a copy batch can never overwrite
// a concurrent writer's fresher value with a stale read.
type migration struct {
	donor, recipient int

	// moving[j] reports whether slot j is in the window.
	moving []bool
	// lo and hi bound the points of the moving slots, both inclusive:
	// the point interval from the first moving slot to the last on an
	// ordered table, the whole ring otherwise. The donor walk starts at
	// lo and stops past hi.
	lo, hi uint64

	mu sync.RWMutex

	// failed is set by a writer whose shadow apply to the recipient
	// errored: the recipient copy is incomplete, so the migration must
	// abort instead of flipping.
	failed atomic.Bool
}

// covers reports whether point p (which must already route to the donor
// on the window table) is inside the handoff window.
func (mg *migration) covers(p uint64, t *routeTable) bool { return mg.moving[t.slot(p)] }

// withWindow returns the next table version: same mapping as t, with the
// migration window attached.
func (t *routeTable) withWindow(mg *migration) *routeTable {
	n := t.clone()
	n.version = t.version + 1
	n.mig = mg
	return n
}

// withoutWindow returns the next table version with the window closed
// and the mapping unchanged (migration aborted).
func (t *routeTable) withoutWindow() *routeTable {
	n := t.clone()
	n.version = t.version + 1
	n.mig = nil
	return n
}

// flipped returns the next table version with the window closed and the
// windowed slots reassigned to the recipient (migration complete).
func (t *routeTable) flipped(mg *migration) *routeTable {
	n := t.clone()
	n.version = t.version + 1
	n.mig = nil
	for j, mv := range mg.moving {
		if mv {
			n.slots[j] = uint32(mg.recipient)
		}
	}
	return n
}

// opGate is the RCU-style grace-period barrier between routed operations
// and table transitions. Every routed operation holds one of the gate's
// stripes in read mode for the operation's duration; drain acquires
// every stripe exclusively, so it returns only after all operations that
// began before the call — which may have routed on the previous table
// version — have finished. Stripes are padded and selected by the
// per-goroutine stripe key, so the fast path costs one uncontended
// RLock/RUnlock pair.
type opGate struct {
	stripes []gateStripe
}

// gateStripe pads each RWMutex (24 bytes) onto its own prefetch-paired
// 128-byte line so stripes never false-share.
type gateStripe struct {
	mu sync.RWMutex
	_  [104]byte
}

// gateStripes is the gate width: enough that 8+ worker goroutines rarely
// share a stripe, small enough that drain stays trivial.
const gateStripes = 8

func newOpGate() *opGate {
	return &opGate{stripes: make([]gateStripe, gateStripes)}
}

// enter takes a read slot; the returned stripe must be passed to exit.
func (g *opGate) enter() int {
	s := int(stripe.Key() % gateStripes)
	g.stripes[s].mu.RLock()
	return s
}

// exit releases the read slot taken by enter.
func (g *opGate) exit(s int) { g.stripes[s].mu.RUnlock() }

// drain waits for every operation that entered before the call to exit:
// the grace period after publishing a new table version.
func (g *opGate) drain() {
	for i := range g.stripes {
		g.stripes[i].mu.Lock()
		g.stripes[i].mu.Unlock()
	}
}
