// Routing tables: the versioned point → shard mapping, the single
// routing authority of a front-end with more than one shard.
//
// A front-end is born with table version 0, whose mapping is the closed
// form of its partitioner kind (newSlotTable: point % H; newRangeTable:
// point / ceil(2^64/H)). The fast path is one atomic pointer load plus
// an O(1) (hash) or O(log n) (range) lookup, and rebalancing publishes a
// fresh immutable table rather than mutating the live one.
package shard

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/stripe"
)

// SlotsPerShard is the consistent-hash slot multiplier: a hash-routed
// front-end with H shards carves the key space into H×SlotsPerShard
// slots, each independently assignable to a shard. More slots means
// finer-grained load moves (one slot ≈ 1/(H×SlotsPerShard) of a uniform
// key population) at the cost of a larger table; 64 lets the rebalancer
// move ~1.5% load increments while the table stays a few cache lines.
const SlotsPerShard = 64

// Table kinds: how a routeTable turns a point into a shard.
const (
	// kindSlots: consistent-hash slots. slot = point % len(slots),
	// shard = slots[slot]. Used by hash partitioners.
	kindSlots = iota
	// kindRange: contiguous spans. shard = owner[i] for the first span i
	// with point <= bounds[i]. Used by order-preserving partitioners.
	kindRange
)

// routeTable is one immutable version of the routing function. Readers
// reach it through a single atomic pointer load; rebalancing builds a
// modified copy and publishes it, so no lock ever sits on the routed-op
// fast path. Only the per-slot ops counters (striped) and the migration
// window carry mutable state.
type routeTable struct {
	// version increments on every published change; the flip that
	// completes a migration is observable as a version step.
	version uint64
	kind    int

	// kindSlots state: slots[j] = owning shard of slot j.
	slots []uint32

	// kindRange state: span i covers points in (bounds[i-1], bounds[i]]
	// (span 0 from zero), owned by owner[i]. bounds is strictly
	// increasing and ends at MaxUint64, so every point falls in exactly
	// one span.
	bounds []uint64
	owner  []uint32

	// ops counts routed operations per slot (kindSlots) or per span
	// (kindRange): the one load measure, folded by owner for LoadReport
	// and Rebalance, and the rebalancer's "which slice of the donor is
	// hot". The backing array is shared across table versions so counts
	// survive republishing; a range flip reallocates it (spans changed
	// shape) and restarts counting.
	ops []*stripe.Counter

	// mig, when non-nil, is the open handoff window: keys the migration
	// is moving double-apply to donor and recipient (see reshard.go).
	mig *migration
}

// locate returns the owning shard for point p and the slot/span index it
// hit (for load counting).
func (t *routeTable) locate(p uint64) (shard, slot int) {
	if t.kind == kindSlots {
		j := int(p % uint64(len(t.slots)))
		return int(t.slots[j]), j
	}
	// First span whose inclusive upper bound covers p.
	i := sort.Search(len(t.bounds), func(i int) bool { return p <= t.bounds[i] })
	return int(t.owner[i]), i
}

// owners returns the owning shard of every slot (or span), by index.
func (t *routeTable) owners() []uint32 {
	if t.kind == kindSlots {
		return t.slots
	}
	return t.owner
}

// pristine reports whether t is still the initial mapping and has never
// opened a migration window (every transition steps the version). Only
// then does every key live on exactly one shard — merged scans skip
// duplicate resolution — and, on a range table, shard order equal key
// order: after a range migration span ownership is no longer monotonic.
func (t *routeTable) pristine() bool { return t.version == 0 && t.mig == nil }

// newCounters builds n independent striped counters.
func newCounters(n int) []*stripe.Counter {
	cs := make([]*stripe.Counter, n)
	for i := range cs {
		cs[i] = stripe.NewCounter()
	}
	return cs
}

// newTable builds the table a front-end is born with: a range table if
// its partitioner is order-preserving, a slot table otherwise.
func newTable(shards int, orderPreserving bool) *routeTable {
	if orderPreserving {
		return newRangeTable(shards)
	}
	return newSlotTable(shards)
}

// newSlotTable builds the initial consistent-hash table for H shards:
// S = H×SlotsPerShard slots with slots[j] = j % H. Because H divides S,
// (p % S) % H == p % H for every point p, so the fresh table places
// point p on shard p % H.
func newSlotTable(shards int) *routeTable {
	s := shards * SlotsPerShard
	t := &routeTable{
		kind:  kindSlots,
		slots: make([]uint32, s),
		ops:   newCounters(s),
	}
	for j := range t.slots {
		t.slots[j] = uint32(j % shards)
	}
	return t
}

// newRangeTable builds the initial range table for H shards: span i ends
// at width×(i+1) − 1 with width = ceil(2^64 / H), the last bound clamped
// to MaxUint64. For any point v, locate finds the first i with
// v <= width×(i+1) − 1, so the fresh table places point v on shard
// v / width: H equal contiguous ranges, in key order.
func newRangeTable(shards int) *routeTable {
	t := &routeTable{
		kind:   kindRange,
		bounds: make([]uint64, shards),
		owner:  make([]uint32, shards),
		ops:    newCounters(shards),
	}
	width := math.MaxUint64/uint64(shards) + 1
	for i := 0; i < shards; i++ {
		if i == shards-1 {
			t.bounds[i] = math.MaxUint64
		} else {
			t.bounds[i] = width*uint64(i+1) - 1
		}
		t.owner[i] = uint32(i)
	}
	return t
}

// clone returns a copy of t sharing the ops backing array, ready to be
// modified and published as the next version.
func (t *routeTable) clone() *routeTable {
	n := &routeTable{version: t.version, kind: t.kind, ops: t.ops}
	if t.kind == kindSlots {
		n.slots = append([]uint32(nil), t.slots...)
	} else {
		n.bounds = append([]uint64(nil), t.bounds...)
		n.owner = append([]uint32(nil), t.owner...)
	}
	return n
}

// migration is the open handoff window of one in-flight migration: the
// set of points moving from donor to recipient. While the window is
// open, writes to covered keys double-apply — the donor stays
// authoritative and acknowledges, the recipient receives a shadow copy —
// so the copy stream cannot miss a concurrent update. mu orders copy
// batches against those writers: a copy batch holds mu exclusively
// across its read-donor + apply-recipient step, while writers hold it
// shared across their double-apply, so a copy batch can never overwrite
// a concurrent writer's fresher value with a stale read.
type migration struct {
	donor, recipient int

	// kindSlots: moving[j] reports whether slot j is in the window.
	moving []bool
	// kindRange: the window covers points in [lo, hi], both inclusive.
	lo, hi uint64
	ranged bool

	mu sync.RWMutex

	// failed is set by a writer whose shadow apply to the recipient
	// errored: the recipient copy is incomplete, so the migration must
	// abort instead of flipping.
	failed atomic.Bool
}

// covers reports whether point p (which must already route to the donor
// on the window table) is inside the handoff window.
func (mg *migration) covers(p uint64, t *routeTable) bool {
	if mg.ranged {
		return p >= mg.lo && p <= mg.hi
	}
	return mg.moving[int(p%uint64(len(t.slots)))]
}

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
// windowed slots/span reassigned to the recipient (migration complete).
func (t *routeTable) flipped(mg *migration) *routeTable {
	n := t.clone()
	n.version = t.version + 1
	n.mig = nil
	if t.kind == kindSlots {
		for j, mv := range mg.moving {
			if mv {
				n.slots[j] = uint32(mg.recipient)
			}
		}
		return n
	}
	// Range: carve [lo, hi] out of the donor's spans and hand it to the
	// recipient. Rebuild the span list — tables are tiny and a from-
	// scratch walk is the simplest correct form. Each donor span
	// overlapping the window splits into up to three pieces: the part
	// before lo (donor), the overlap (recipient), the part after hi
	// (donor).
	type span struct {
		hi    uint64
		owner uint32
	}
	var spans []span
	sLo := uint64(0)
	for i := range t.bounds {
		sHi, own := t.bounds[i], t.owner[i]
		if own == uint32(mg.donor) && sHi >= mg.lo && sLo <= mg.hi {
			if mg.lo > sLo {
				spans = append(spans, span{mg.lo - 1, own})
			}
			cutHi := mg.hi
			if cutHi > sHi {
				cutHi = sHi
			}
			spans = append(spans, span{cutHi, uint32(mg.recipient)})
			if cutHi < sHi {
				spans = append(spans, span{sHi, own})
			}
		} else {
			spans = append(spans, span{sHi, own})
		}
		sLo = sHi + 1
	}
	// Merge adjacent same-owner spans so repeated splits cannot grow the
	// table without bound.
	merged := spans[:1]
	for _, sp := range spans[1:] {
		if sp.owner == merged[len(merged)-1].owner {
			merged[len(merged)-1].hi = sp.hi
		} else {
			merged = append(merged, sp)
		}
	}
	n.bounds = make([]uint64, len(merged))
	n.owner = make([]uint32, len(merged))
	for i, sp := range merged {
		n.bounds[i] = sp.hi
		n.owner[i] = sp.owner
	}
	// Span shape changed: per-span counts no longer line up. Restart.
	n.ops = newCounters(len(merged))
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
