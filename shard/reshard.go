// Online migration and the load-driven rebalancer: the machinery that
// moves a slice of a hot shard's key space to a cold shard under live
// traffic.
//
// The handoff protocol, per migration:
//
//  1. Publish a new table version with an open migration window and
//     drain the operation gate, so every in-flight operation that
//     routed on the old table has finished. From here on, every write
//     to a covered key double-applies (donor authoritative, recipient
//     shadow).
//  2. Stream the donor's covered keys into the recipient in batches.
//     The donor's key walk (keyWalk below — the one step that differs
//     by key kind) supplies keys only; each batch takes the window lock
//     exclusively, looks every covered key's value up on the donor
//     under that hold, and group-commits the batch to the recipient
//     before releasing it, so a copied value is never older than a
//     double-applied write and a key deleted meanwhile is not copied.
//     The window lock is released between batches for both kinds:
//     covered writers stall for one batch, never for the whole copy.
//     Each batch is fenced durable on the recipient before the crash
//     site "reshard.copy.applied" fires on the recipient's heap.
//  3. Publish the flipped table (covered points now owned by the
//     recipient) — the commit point, after which reads and writes of
//     covered keys route to the recipient. The crash site
//     "reshard.flip.published" fires on the donor's heap immediately
//     after. A second gate drain retires every pre-flip routing
//     decision before cleanup.
//  4. Cleanup: delete the donor's residue copies of the moved keys.
//
// A crash (injected at either reshard site, or at any group-commit site
// inside a copy batch) unwinds to the migration entry point, which
// aborts — republishes the window-closed, unflipped table — unless the
// flip already published, in which case the flip stands and only the
// residue sweep is lost. Either way the donor remains authoritative for
// exactly the keys the current table routes to it, recovery replays only
// the crashed shard, and residue copies are invisible to routing and
// deduplicated by merged scans.
package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/crash"
	"repro/internal/group"
)

// Crash sites of the migration protocol (pmem.Heap.CrashPoint sites, in
// addition to the group-commit sites each copy batch passes through).
const (
	// SiteCopyApplied fires on the recipient's heap after each copy
	// batch is group-committed (fenced durable).
	SiteCopyApplied = "reshard.copy.applied"
	// SiteFlipPublished fires on the donor's heap immediately after the
	// flipped routing table is published.
	SiteFlipPublished = "reshard.flip.published"
)

// Resharding errors.
var (
	// ErrNotReshardable reports a front-end whose donor index cannot be
	// enumerated.
	ErrNotReshardable = errors.New("shard: front-end not reshardable")
	// ErrMigrationAborted reports a migration that closed its handoff
	// window without flipping (e.g. a shadow apply failed); the donor
	// keeps the keys and the front-end stays fully consistent.
	ErrMigrationAborted = errors.New("shard: migration aborted")
)

// defaultCopyBatch is the migration copy batch size when the caller
// passes batchSize < 1.
const defaultCopyBatch = 128

// windowForSlots builds a slot-window migration after validating that
// every requested slot exists and is owned by the donor.
func windowForSlots(t *routeTable, donor, recipient int, slots []int) (*migration, error) {
	if len(slots) == 0 {
		return nil, fmt.Errorf("shard: no slots to migrate")
	}
	mg := &migration{donor: donor, recipient: recipient, moving: make([]bool, len(t.slots)), hi: math.MaxUint64}
	first, last := len(t.slots), -1
	for _, j := range slots {
		if j < 0 || j >= len(t.slots) {
			return nil, fmt.Errorf("shard: slot %d out of range", j)
		}
		if int(t.slots[j]) != donor {
			return nil, fmt.Errorf("shard: slot %d not owned by donor %d", j, donor)
		}
		mg.moving[j] = true
		first, last = min(first, j), max(last, j)
	}
	if t.ordered {
		mg.lo, _ = slotPoints(first, len(t.slots))
		_, mg.hi = slotPoints(last, len(t.slots))
	}
	return mg, nil
}

// rangeStartKey returns the smallest useful scan start for points >= lo:
// the big-endian bytes of lo with trailing zeros trimmed. Any key whose
// point is >= lo sorts at or after this prefix (a key sorting strictly
// before it would have a strictly smaller 8-byte-padded prefix value).
func rangeStartKey(lo uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], lo)
	n := 8
	for n > 0 && b[n-1] == 0 {
		n--
	}
	return b[:n]
}

// MigrateSlots moves the given routing slots (all currently owned by
// donor) from donor to recipient under live traffic, using the handoff
// protocol at the top of this file. batchSize < 1 selects
// defaultCopyBatch. On success the table is flipped and the donor's
// residue removed; on failure (including an injected crash, returned as
// crash.ErrCrashed) the migration is aborted unless the flip had
// already published.
func (f *frontend[K]) MigrateSlots(donor, recipient int, slots []int, batchSize int) (err error) {
	if donor == recipient || donor < 0 || recipient < 0 ||
		donor >= len(f.shards) || recipient >= len(f.shards) {
		return fmt.Errorf("shard: invalid migration %d -> %d", donor, recipient)
	}
	if err := f.unavailable(donor); err != nil {
		return err
	}
	if err := f.unavailable(recipient); err != nil {
		return err
	}
	f.reshardMu.Lock()
	defer f.reshardMu.Unlock()
	t := f.rt.Load()
	mg, err := windowForSlots(t, donor, recipient, slots)
	if err != nil {
		return err
	}
	if batchSize < 1 {
		batchSize = defaultCopyBatch
	}

	wt := t.withWindow(mg)
	f.rt.Store(wt)
	f.gate.drain()
	flipped := false
	defer func() {
		if r := recover(); r != nil {
			err = crash.Recover(r)
		}
		if err != nil && !flipped {
			// Abort: close the window, keep the mapping. Writers still
			// holding the window table double-apply harmlessly (the
			// donor stays authoritative).
			f.rt.Store(wt.withoutWindow())
		}
	}()

	walk, err := f.walk(wt, mg)
	if err != nil {
		return err
	}
	for done := false; !done; {
		if done, err = f.copyBatch(wt, mg, walk, batchSize); err != nil {
			return err
		}
	}
	if mg.failed.Load() {
		return fmt.Errorf("%w: shadow apply failed on recipient %d", ErrMigrationAborted, mg.recipient)
	}

	f.rt.Store(wt.flipped(mg))
	flipped = true
	f.shards[mg.donor].heap.CrashPoint(SiteFlipPublished)
	f.gate.drain()
	f.sweepResidue(wt, mg, batchSize)
	return nil
}

// keyWalk is one pass over the migration donor's keys, opened by
// frontend.walk — the only step of the protocol that depends on the key
// kind. It yields keys, never values: what a walk read, and when, must
// not matter to what the copy commits.
type keyWalk[K any] interface {
	// next returns the walk's next key, valid until the following call;
	// ok is false once the donor's keys are exhausted. A walk may skip
	// keys the window does not cover.
	next() (key K, ok bool)
	// keep returns a copy of a key next returned that outlives the walk.
	keep(key K) K
}

// iterWalk walks an ordered donor in key order through its own
// core.Iterator.
type iterWalk struct{ it core.Iterator }

func (w iterWalk) next() ([]byte, bool) {
	k, _, ok := w.it.Next()
	return k, ok
}

func (iterWalk) keep(k []byte) []byte { return append([]byte(nil), k...) }

// walkIterator implements frontend.walk: an ordered cursor over the
// donor, started at the window's low point.
func (m *Ordered) walkIterator(_ *routeTable, mg *migration) (keyWalk[[]byte], error) {
	it := m.ordered[mg.donor].NewIterator()
	it.Seek(rangeStartKey(mg.lo))
	return iterWalk{it}, nil
}

// snapshotWalk walks an unordered donor. A hash table cannot resume an
// enumeration at a key, so the walk snapshots the covered keys with one
// core.HashRanger pass on its first next — for the copy that is under
// the first batch's exclusive hold of the window — and then hands them
// out. Keys inserted after the snapshot are not in it and need not be:
// the window is open, so they double-apply to the recipient.
type snapshotWalk struct {
	ranger  core.HashRanger
	covered func(key uint64) bool
	keys    []uint64
	taken   bool
}

func (w *snapshotWalk) next() (uint64, bool) {
	if !w.taken {
		w.taken = true
		w.ranger.Range(func(k, _ uint64) bool {
			if w.covered(k) {
				w.keys = append(w.keys, k)
			}
			return true
		})
	}
	if len(w.keys) == 0 {
		return 0, false
	}
	k := w.keys[0]
	w.keys = w.keys[1:]
	return k, true
}

func (*snapshotWalk) keep(k uint64) uint64 { return k }

// walkSnapshot implements frontend.walk. It fails with ErrNotReshardable
// if the donor index cannot be enumerated.
func (m *Hash) walkSnapshot(wt *routeTable, mg *migration) (keyWalk[uint64], error) {
	ranger, ok := m.shards[mg.donor].idx.(core.HashRanger)
	if !ok {
		return nil, fmt.Errorf("%w: donor index is not enumerable (no Range)", ErrNotReshardable)
	}
	return &snapshotWalk{ranger: ranger, covered: func(k uint64) bool {
		return mg.covers(m.part.Point(k), wt)
	}}, nil
}

// step moves walk one key on. ok is false once the walk is exhausted or
// has passed the window's last point; covered reports whether the window
// covers the key.
func (f *frontend[K]) step(walk keyWalk[K], wt *routeTable, mg *migration) (key K, covered, ok bool) {
	if key, ok = walk.next(); !ok {
		return key, false, false
	}
	p := f.part.Point(key)
	if p > mg.hi {
		return key, false, false
	}
	return key, mg.covers(p, wt), true
}

// copyBatch moves the donor walk over at most batchSize keys (which
// bounds the writers' stall even when few of them are covered) and
// copies the covered ones to the recipient as a single fenced group
// commit. The walk contributes keys only, whenever it read them: each
// covered key's value is looked up on the donor under the same
// exclusive hold of the window lock that commits the batch. Every writer
// of a covered key holds that lock shared across its donor and recipient
// applies, so the value copied is the donor's latest and no
// double-applied write can land between the read and the commit; a key
// deleted since the walk saw it is skipped. A write that arrives after
// the hold double-applies over the copy.
func (f *frontend[K]) copyBatch(wt *routeTable, mg *migration, walk keyWalk[K], batchSize int) (done bool, err error) {
	mg.mu.Lock()
	defer mg.mu.Unlock()
	donor := f.shards[mg.donor].idx
	var ops []group.Op[K]
	for scanned := 0; scanned < batchSize; scanned++ {
		k, covered, ok := f.step(walk, wt, mg)
		if !ok {
			done = true
			break
		}
		if !covered {
			continue
		}
		if v, live := donor.Lookup(k); live {
			ops = append(ops, group.Op[K]{Key: walk.keep(k), Value: v})
		}
	}
	return done, f.commitCopy(mg, ops)
}

// commitCopy group-commits one copy batch on the recipient and passes
// the reshard.copy.applied crash site, still holding the recipient's
// group-commit lock. A recipient whose crash has fired (a double-applied
// write or a shadow batch crashed it) rejects the batch, as it rejects
// every group commit. Caller holds the window lock.
func (f *frontend[K]) commitCopy(mg *migration, ops []group.Op[K]) error {
	if len(ops) == 0 {
		return nil
	}
	return f.commitShard(mg.recipient, ops, nil, SiteCopyApplied)
}

// sweepResidue deletes the donor's copies of the migrated keys after the
// flip, over a fresh walk. Residue is invisible to routing and
// deduplicated by merged scans, so the sweep is plain unfenced deletes;
// a crash that skips it costs capacity, not correctness.
func (f *frontend[K]) sweepResidue(wt *routeTable, mg *migration, batchSize int) {
	walk, err := f.walk(wt, mg)
	if err != nil {
		return
	}
	donor := f.shards[mg.donor].idx
	var doomed []K
	flush := func() {
		// Shared lock: the deletes are point writes on the donor heap and
		// must not interleave with a group commit there.
		f.batchMu[mg.donor].RLock()
		defer f.batchMu[mg.donor].RUnlock()
		for _, k := range doomed {
			donor.Delete(k) //nolint:errcheck // residue sweep is best-effort
		}
		doomed = doomed[:0]
	}
	for {
		k, covered, ok := f.step(walk, wt, mg)
		if !ok {
			break
		}
		if covered {
			doomed = append(doomed, walk.keep(k))
		}
		if len(doomed) >= batchSize {
			// The walk has already moved past these keys, so deleting
			// behind it is safe.
			flush()
		}
	}
	flush()
}

// RebalanceOptions tunes Rebalance.
type RebalanceOptions struct {
	// Tolerance is the target imbalance (busiest shard's measured load
	// over the mean): rebalancing stops once the table's projected
	// imbalance is at or below it. Values <= 1 select 1.15.
	Tolerance float64
}

func (o RebalanceOptions) tolerance() float64 {
	if o.Tolerance <= 1 {
		return 1.15
	}
	return o.Tolerance
}

// MoveReport describes one migration a Rebalance call performed.
type MoveReport struct {
	// Donor and Recipient are the shards the keys moved between.
	Donor, Recipient int
	// Slots are the moved routing slots.
	Slots []int
	// Ops is the measured operation count attributed to the moved
	// slots — the load the move is expected to shift.
	Ops uint64
}

// RebalanceReport summarises one Rebalance call.
type RebalanceReport struct {
	// Before and After are the projected imbalance (busiest shard's
	// measured load over the mean) under the routing table at entry and
	// exit. They are computed from the same cumulative slot counters, so
	// After < Before means the table reassignment moved measured load
	// off the hot shard.
	Before, After float64
	// Moves lists the migrations performed, in order.
	Moves []MoveReport
}

// shardLoads folds the cumulative per-slot counters by owning shard.
func shardLoads(t *routeTable, shards int) (perShard []uint64, perSlot []uint64) {
	perShard = make([]uint64, shards)
	perSlot = make([]uint64, len(t.ops))
	for j, o := range t.slots {
		perSlot[j] = t.ops[j].Load()
		perShard[o] += perSlot[j]
	}
	return perShard, perSlot
}

// imbalanceOf returns max/mean over per-shard loads (0 if no load).
func imbalanceOf(perShard []uint64) float64 {
	var total, max uint64
	for _, l := range perShard {
		total += l
		if l > max {
			max = l
		}
	}
	if total == 0 {
		return 0
	}
	return float64(max) / (float64(total) / float64(len(perShard)))
}

// pickPair opens every plan: donor = busiest shard, recipient = least
// busy, by the measured per-shard loads. ok is false when nothing was
// measured or the donor is already within tolerance of the mean.
func pickPair(perShard []uint64, tol float64) (donor, recipient int, mean float64, ok bool) {
	var total uint64
	for _, l := range perShard {
		total += l
	}
	if total == 0 {
		return 0, 0, 0, false
	}
	mean = float64(total) / float64(len(perShard))
	for s := 1; s < len(perShard); s++ {
		if perShard[s] > perShard[donor] {
			donor = s
		}
		if perShard[s] < perShard[recipient] {
			recipient = s
		}
	}
	return donor, recipient, mean, float64(perShard[donor]) > tol*mean && donor != recipient
}

// planSlotMove picks one slot migration from the measured per-slot
// loads: the heaviest-first subset of the donor's slots that fits
// min(donor − mean, mean − recipient) — shedding the donor's excess
// without creating a new hotspot at the recipient. ok is false when the
// table is already within tolerance or no slot fits the budget.
func planSlotMove(t *routeTable, shards int, tol float64) (mv MoveReport, ok bool) {
	perShard, perSlot := shardLoads(t, shards)
	donor, recipient, mean, ok := pickPair(perShard, tol)
	if !ok {
		return mv, false
	}
	budget := min(float64(perShard[donor])-mean, mean-float64(perShard[recipient]))
	if budget <= 0 {
		return mv, false
	}
	var own []int
	for j, o := range t.slots {
		if int(o) == donor {
			own = append(own, j)
		}
	}
	sort.Slice(own, func(a, b int) bool { return perSlot[own[a]] > perSlot[own[b]] })
	mv = MoveReport{Donor: donor, Recipient: recipient}
	for _, j := range own {
		if float64(mv.Ops+perSlot[j]) <= budget {
			mv.Slots = append(mv.Slots, j)
			mv.Ops += perSlot[j]
		}
	}
	return mv, len(mv.Slots) > 0
}

// Rebalance measures the per-slot load counters, plans and runs up to
// one migration per shard (shedding a hot shard's excess usually takes
// several moves, one recipient each) from the busiest shards to the
// least busy, each copying defaultCopyBatch keys per batch, and reports
// the projected imbalance before and after. It is the
// LoadReport-driven entry point: run traffic, then call Rebalance to
// move the measured hot slices.
func (f *frontend[K]) Rebalance(opts RebalanceOptions) (RebalanceReport, error) {
	var rep RebalanceReport
	perShard, _ := shardLoads(f.rt.Load(), len(f.shards))
	rep.Before = imbalanceOf(perShard)
	for move := 0; move < len(f.shards); move++ {
		mv, ok := planSlotMove(f.rt.Load(), len(f.shards), opts.tolerance())
		if !ok {
			break
		}
		if err := f.MigrateSlots(mv.Donor, mv.Recipient, mv.Slots, defaultCopyBatch); err != nil {
			return rep, err
		}
		rep.Moves = append(rep.Moves, mv)
	}
	perShard, _ = shardLoads(f.rt.Load(), len(f.shards))
	rep.After = imbalanceOf(perShard)
	return rep, nil
}
