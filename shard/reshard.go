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
//     The donor iterator supplies keys only; each batch takes the
//     window lock exclusively, looks every covered key's value up on
//     the donor under that hold, and group-commits the batch to the
//     recipient before releasing it, so a copied value is never older
//     than a double-applied write and a key deleted meanwhile is not
//     copied. Each batch is fenced durable on the recipient before the
//     crash site "reshard.copy.applied" fires on the recipient's heap.
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
	// ErrNotReshardable reports a front-end whose partitioner cannot be
	// table-routed (it does not implement PointMapper/PointMapper64, or
	// the donor index cannot be enumerated).
	ErrNotReshardable = errors.New("shard: front-end not reshardable")
	// ErrReshardingDisabled reports a migration attempt on a pristine
	// front-end; call EnableResharding first.
	ErrReshardingDisabled = errors.New("shard: resharding not enabled")
	// ErrMigrationAborted reports a migration that closed its handoff
	// window without flipping (e.g. a shadow apply failed); the donor
	// keeps the keys and the front-end stays fully consistent.
	ErrMigrationAborted = errors.New("shard: migration aborted")
)

// defaultCopyBatch is the migration copy batch size when the caller
// passes batchSize < 1.
const defaultCopyBatch = 128

// EnableResharding materialises the initial routing table, switching the
// front-end from stateless partitioner routing to table routing. The
// initial table maps every key to the same shard the partitioner does,
// so no key moves; it may be called under live traffic and is idempotent.
// It fails with ErrNotReshardable if the partitioner does not implement
// PointMapper.
func (m *Ordered) EnableResharding() error {
	pm, ok := m.part.(PointMapper)
	if !ok {
		return fmt.Errorf("%w: partitioner %q has no point mapping", ErrNotReshardable, m.part.Name())
	}
	m.reshardMu.Lock()
	defer m.reshardMu.Unlock()
	if m.rt.Load() != nil {
		return nil
	}
	m.mapper = pm
	if orderPreserving(m.part) {
		m.rt.Store(newRangeTable(len(m.shards)))
	} else {
		m.rt.Store(newSlotTable(len(m.shards)))
	}
	return nil
}

// EnableResharding materialises the initial routing table for the
// unordered front-end; see Ordered.EnableResharding.
func (m *Hash) EnableResharding() error {
	pm, ok := m.part.(PointMapper64)
	if !ok {
		return fmt.Errorf("%w: partitioner %q has no point mapping", ErrNotReshardable, m.part.Name())
	}
	m.reshardMu.Lock()
	defer m.reshardMu.Unlock()
	if m.rt.Load() != nil {
		return nil
	}
	m.mapper64 = pm
	m.rt.Store(newSlotTable(len(m.shards)))
	return nil
}

// validateMove checks the donor/recipient pair against the front-end.
func (f *frontend[IX]) validateMove(donor, recipient int) error {
	if donor == recipient || donor < 0 || recipient < 0 ||
		donor >= len(f.shards) || recipient >= len(f.shards) {
		return fmt.Errorf("shard: invalid migration %d -> %d", donor, recipient)
	}
	if err := f.unavailable(donor); err != nil {
		return err
	}
	return f.unavailable(recipient)
}

// windowForSlots builds a slot-window migration after validating that
// every requested slot exists and is owned by the donor.
func windowForSlots(t *routeTable, donor, recipient int, slots []int) (*migration, error) {
	if t.kind != kindSlots {
		return nil, fmt.Errorf("shard: MigrateSlots on a range-routed front-end")
	}
	if len(slots) == 0 {
		return nil, fmt.Errorf("shard: no slots to migrate")
	}
	mg := &migration{donor: donor, recipient: recipient, moving: make([]bool, len(t.slots))}
	for _, j := range slots {
		if j < 0 || j >= len(t.slots) {
			return nil, fmt.Errorf("shard: slot %d out of range", j)
		}
		if int(t.slots[j]) != donor {
			return nil, fmt.Errorf("shard: slot %d not owned by donor %d", j, donor)
		}
		mg.moving[j] = true
	}
	return mg, nil
}

// windowForRange builds a range-window migration after validating that
// every point in [lo, hi] is owned by the donor.
func windowForRange(t *routeTable, donor, recipient int, lo, hi uint64) (*migration, error) {
	if t.kind != kindRange {
		return nil, fmt.Errorf("shard: MigrateRange on a slot-routed front-end")
	}
	if lo > hi {
		return nil, fmt.Errorf("shard: empty migration range")
	}
	sLo := uint64(0)
	for i := range t.bounds {
		if t.bounds[i] >= lo && sLo <= hi && int(t.owner[i]) != donor {
			return nil, fmt.Errorf("shard: range [%#x, %#x] not owned by donor %d", lo, hi, donor)
		}
		if t.bounds[i] >= hi {
			break
		}
		sLo = t.bounds[i] + 1
	}
	return &migration{donor: donor, recipient: recipient, lo: lo, hi: hi, ranged: true}, nil
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
func (m *Ordered) MigrateSlots(donor, recipient int, slots []int, batchSize int) error {
	if err := m.validateMove(donor, recipient); err != nil {
		return err
	}
	m.reshardMu.Lock()
	defer m.reshardMu.Unlock()
	t := m.rt.Load()
	if t == nil {
		return ErrReshardingDisabled
	}
	mg, err := windowForSlots(t, donor, recipient, slots)
	if err != nil {
		return err
	}
	return m.migrate(t, mg, batchSize)
}

// MigrateRange moves the points in [lo, hi] (all currently owned by
// donor) from donor to recipient; see MigrateSlots.
func (m *Ordered) MigrateRange(donor, recipient int, lo, hi uint64, batchSize int) error {
	if err := m.validateMove(donor, recipient); err != nil {
		return err
	}
	m.reshardMu.Lock()
	defer m.reshardMu.Unlock()
	t := m.rt.Load()
	if t == nil {
		return ErrReshardingDisabled
	}
	mg, err := windowForRange(t, donor, recipient, lo, hi)
	if err != nil {
		return err
	}
	return m.migrate(t, mg, batchSize)
}

// migrate runs the handoff protocol for an already-validated window.
// Caller holds reshardMu.
func (m *Ordered) migrate(t *routeTable, mg *migration, batchSize int) (err error) {
	if batchSize < 1 {
		batchSize = defaultCopyBatch
	}
	wt := t.withWindow(mg)
	m.rt.Store(wt)
	m.gate.drain()
	flipped := false
	defer func() {
		if r := recover(); r != nil {
			err = crash.Recover(r)
		}
		if err != nil && !flipped {
			// Abort: close the window, keep the mapping. Writers still
			// holding the window table double-apply harmlessly (the
			// donor stays authoritative).
			m.rt.Store(wt.withoutWindow())
		}
	}()

	start := []byte(nil)
	if mg.ranged {
		start = rangeStartKey(mg.lo)
	}
	it := newIter(m.shards[mg.donor].idx, batchSize)
	it.Seek(start)
	for {
		done, cerr := m.copyBatch(wt, mg, it, batchSize)
		if cerr != nil {
			return cerr
		}
		if done {
			break
		}
	}
	if mg.failed.Load() {
		return fmt.Errorf("%w: shadow apply failed on recipient %d", ErrMigrationAborted, mg.recipient)
	}

	m.rt.Store(wt.flipped(mg))
	flipped = true
	m.shards[mg.donor].heap.CrashPoint(SiteFlipPublished)
	m.gate.drain()
	m.sweepResidue(wt, mg, batchSize)
	return nil
}

// copyBatch moves the donor iterator over at most batchSize keys (which
// bounds the writers' stall even when few of them are covered) and
// copies the covered ones to the recipient as a single fenced group
// commit. The iterator contributes keys only, whenever it read them:
// each covered key's value is looked up on the donor under the same
// exclusive hold of the window lock that commits the batch. Every writer
// of a covered key holds that lock shared across its donor and recipient
// applies, so the value copied is the donor's latest and no
// double-applied write can land between the read and the commit; a key
// deleted since the iterator saw it is skipped. A write that arrives
// after the hold double-applies over the copy.
func (m *Ordered) copyBatch(wt *routeTable, mg *migration, it core.Iterator, batchSize int) (done bool, err error) {
	mg.mu.Lock()
	defer mg.mu.Unlock()
	donor := m.shards[mg.donor].idx
	var ops []group.ByteOp
	for scanned := 0; scanned < batchSize; scanned++ {
		k, _, ok := it.Next()
		if !ok {
			done = true
			break
		}
		p := m.mapper.Point(k)
		if mg.ranged && p > mg.hi {
			done = true
			break
		}
		if !mg.covers(p, wt) {
			continue
		}
		if v, live := donor.Lookup(k); live {
			ops = append(ops, group.ByteOp{Key: append([]byte(nil), k...), Value: v})
		}
	}
	return done, m.commitCopy(mg, ops)
}

// commitCopy group-commits one copy batch on the recipient and passes
// the reshard.copy.applied crash site. Caller holds the window lock.
func (m *Ordered) commitCopy(mg *migration, ops []group.ByteOp) error {
	if len(ops) == 0 {
		return nil
	}
	rec := &m.shards[mg.recipient]
	m.batchMu[mg.recipient].Lock()
	defer m.batchMu[mg.recipient].Unlock()
	if err := group.ApplyOrdered(rec.heap, rec.idx, ops, nil); err != nil {
		return err
	}
	rec.heap.CrashPoint(SiteCopyApplied)
	return nil
}

// sweepResidue deletes the donor's copies of the migrated keys after the
// flip. Residue is invisible to routing and deduplicated by merged
// scans, so the sweep is plain unfenced deletes; a crash that skips it
// costs capacity, not correctness.
func (m *Ordered) sweepResidue(wt *routeTable, mg *migration, batchSize int) {
	start := []byte(nil)
	if mg.ranged {
		start = rangeStartKey(mg.lo)
	}
	donor := &m.shards[mg.donor]
	it := newIter(donor.idx, batchSize)
	it.Seek(start)
	var doomed [][]byte
	flush := func() {
		// Shared lock: the deletes are point writes on the donor heap and
		// must not interleave with a group commit there.
		m.writeLock(mg.donor)
		defer m.writeUnlock(mg.donor)
		for _, k := range doomed {
			donor.idx.Delete(k) //nolint:errcheck // residue sweep is best-effort
		}
		doomed = doomed[:0]
	}
	for {
		k, _, ok := it.Next()
		if !ok {
			break
		}
		p := m.mapper.Point(k)
		if mg.ranged && p > mg.hi {
			break
		}
		if mg.covers(p, wt) {
			doomed = append(doomed, append([]byte(nil), k...))
		}
		if len(doomed) >= batchSize {
			// The iterator has already moved past these keys, so
			// deleting behind it is safe.
			flush()
		}
	}
	flush()
}

// MigrateSlots moves the given routing slots from donor to recipient on
// the unordered front-end. Hash indexes have no ordered cursor, so the
// copy enumerates the donor via core.HashRanger while holding the
// handoff window exclusively — writers to the donor's covered keys
// stall for the duration of the copy (O(donor size)), which is the
// documented cost of migrating an unordered shard. The recipient is
// still populated in fenced group commits of batchSize with the same
// crash sites as the ordered path.
func (m *Hash) MigrateSlots(donor, recipient int, slots []int, batchSize int) error {
	if err := m.validateMove(donor, recipient); err != nil {
		return err
	}
	ranger, ok := m.shards[donor].idx.(core.HashRanger)
	if !ok {
		return fmt.Errorf("%w: donor index is not enumerable (no Range)", ErrNotReshardable)
	}
	m.reshardMu.Lock()
	defer m.reshardMu.Unlock()
	t := m.rt.Load()
	if t == nil {
		return ErrReshardingDisabled
	}
	mg, err := windowForSlots(t, donor, recipient, slots)
	if err != nil {
		return err
	}
	return m.migrate(t, mg, ranger, batchSize)
}

// migrate runs the handoff protocol for the unordered front-end. Caller
// holds reshardMu.
func (m *Hash) migrate(t *routeTable, mg *migration, ranger core.HashRanger, batchSize int) (err error) {
	if batchSize < 1 {
		batchSize = defaultCopyBatch
	}
	wt := t.withWindow(mg)
	m.rt.Store(wt)
	m.gate.drain()
	flipped := false
	defer func() {
		if r := recover(); r != nil {
			err = crash.Recover(r)
		}
		if err != nil && !flipped {
			m.rt.Store(wt.withoutWindow())
		}
	}()

	if cerr := m.copyAll(wt, mg, ranger, batchSize); cerr != nil {
		return cerr
	}
	if mg.failed.Load() {
		return fmt.Errorf("%w: shadow apply failed on recipient %d", ErrMigrationAborted, mg.recipient)
	}

	m.rt.Store(wt.flipped(mg))
	flipped = true
	m.shards[mg.donor].heap.CrashPoint(SiteFlipPublished)
	m.gate.drain()
	m.sweepResidue(wt, mg, ranger)
	return nil
}

// copyAll streams every covered donor pair into the recipient in fenced
// group commits of batchSize, holding the window exclusively for the
// whole enumeration (hash tables cannot resume an enumeration at a key,
// so the copy cannot release the window between batches without risking
// a missed concurrent write).
func (m *Hash) copyAll(wt *routeTable, mg *migration, ranger core.HashRanger, batchSize int) error {
	mg.mu.Lock()
	defer mg.mu.Unlock()
	var ops []group.U64Op
	ranger.Range(func(k, v uint64) bool {
		if mg.covers(m.mapper64.Point(k), wt) {
			ops = append(ops, group.U64Op{Key: k, Value: v})
		}
		return true
	})
	rec := &m.shards[mg.recipient]
	for len(ops) > 0 {
		n := min(batchSize, len(ops))
		m.batchMu[mg.recipient].Lock()
		err := group.ApplyHash(rec.heap, rec.idx, ops[:n], nil)
		if err == nil {
			// CrashPoint may panic; the deferred window unlock and the
			// batch mutex unlock below must both run first.
			func() {
				defer m.batchMu[mg.recipient].Unlock()
				rec.heap.CrashPoint(SiteCopyApplied)
			}()
		} else {
			m.batchMu[mg.recipient].Unlock()
			return err
		}
		ops = ops[n:]
	}
	return nil
}

// sweepResidue deletes the donor's copies of the migrated keys after the
// flip; see Ordered.sweepResidue.
func (m *Hash) sweepResidue(wt *routeTable, mg *migration, ranger core.HashRanger) {
	var doomed []uint64
	ranger.Range(func(k, v uint64) bool {
		if mg.covers(m.mapper64.Point(k), wt) {
			doomed = append(doomed, k)
		}
		return true
	})
	donor := &m.shards[mg.donor]
	m.writeLock(mg.donor)
	defer m.writeUnlock(mg.donor)
	for _, k := range doomed {
		donor.idx.Delete(k) //nolint:errcheck // residue sweep is best-effort
	}
}

// RebalanceOptions tunes Rebalance.
type RebalanceOptions struct {
	// MaxMoves caps the number of migrations one Rebalance call may run.
	// Values < 1 select the shard count (shedding a hot shard's excess
	// usually takes several moves, one recipient each).
	MaxMoves int
	// Tolerance is the target imbalance (busiest shard's measured load
	// over the mean): rebalancing stops once the table's projected
	// imbalance is at or below it. Values <= 1 select 1.15.
	Tolerance float64
	// BatchSize is the migration copy batch size; values < 1 select the
	// migration default.
	BatchSize int
}

func (o RebalanceOptions) maxMoves(shards int) int {
	if o.MaxMoves < 1 {
		return shards
	}
	return o.MaxMoves
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
	// Slots are the moved routing slots (slot-routed front-ends).
	Slots []int
	// Lo and Hi bound the moved point range, inclusive (range-routed
	// front-ends, where Ranged is true).
	Lo, Hi uint64
	Ranged bool
	// Ops is the measured operation count attributed to the moved
	// slots/span — the load the move is expected to shift.
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
	owners := t.slots
	for j := range t.ops {
		perSlot[j] = t.ops[j].Load()
		if t.kind == kindSlots {
			perShard[owners[j]] += perSlot[j]
		} else {
			perShard[t.owner[j]] += perSlot[j]
		}
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

// planSlotMove picks one slot migration from the measured per-slot
// loads: donor = busiest shard, recipient = least busy, and the move is
// the heaviest-first subset of the donor's slots that fits
// min(donor − mean, mean − recipient) — shedding the donor's excess
// without creating a new hotspot at the recipient. ok is false when the
// table is already within tolerance or no slot fits the budget.
func planSlotMove(t *routeTable, shards int, tol float64) (donor, recipient int, slots []int, moved uint64, ok bool) {
	perShard, perSlot := shardLoads(t, shards)
	var total uint64
	for _, l := range perShard {
		total += l
	}
	if total == 0 {
		return 0, 0, nil, 0, false
	}
	mean := float64(total) / float64(shards)
	donor, recipient = 0, 0
	for s := 1; s < shards; s++ {
		if perShard[s] > perShard[donor] {
			donor = s
		}
		if perShard[s] < perShard[recipient] {
			recipient = s
		}
	}
	if float64(perShard[donor]) <= tol*mean || donor == recipient {
		return 0, 0, nil, 0, false
	}
	budget := min(float64(perShard[donor])-mean, mean-float64(perShard[recipient]))
	if budget <= 0 {
		return 0, 0, nil, 0, false
	}
	var own []int
	for j, o := range t.slots {
		if int(o) == donor {
			own = append(own, j)
		}
	}
	sort.Slice(own, func(a, b int) bool { return perSlot[own[a]] > perSlot[own[b]] })
	for _, j := range own {
		if float64(moved+perSlot[j]) <= budget {
			slots = append(slots, j)
			moved += perSlot[j]
		}
	}
	if len(slots) == 0 {
		return 0, 0, nil, 0, false
	}
	return donor, recipient, slots, moved, true
}

// planRangeMove picks one range migration: donor = busiest shard,
// recipient = least busy, moving the upper half of the donor's hottest
// span (span midpoint split — per-span counters do not resolve the
// intra-span distribution, so halving is the finest safe cut).
func planRangeMove(t *routeTable, shards int, tol float64) (donor, recipient int, lo, hi uint64, moved uint64, ok bool) {
	perShard, perSpan := shardLoads(t, shards)
	var total uint64
	for _, l := range perShard {
		total += l
	}
	if total == 0 {
		return 0, 0, 0, 0, 0, false
	}
	mean := float64(total) / float64(shards)
	donor, recipient = 0, 0
	for s := 1; s < shards; s++ {
		if perShard[s] > perShard[donor] {
			donor = s
		}
		if perShard[s] < perShard[recipient] {
			recipient = s
		}
	}
	if float64(perShard[donor]) <= tol*mean || donor == recipient {
		return 0, 0, 0, 0, 0, false
	}
	hot := -1
	for i, o := range t.owner {
		if int(o) == donor && (hot < 0 || perSpan[i] > perSpan[hot]) {
			hot = i
		}
	}
	if hot < 0 || perSpan[hot] == 0 {
		return 0, 0, 0, 0, 0, false
	}
	sLo := uint64(0)
	if hot > 0 {
		sLo = t.bounds[hot-1] + 1
	}
	sHi := t.bounds[hot]
	if sHi-sLo < 1 {
		return 0, 0, 0, 0, 0, false
	}
	mid := sLo + (sHi-sLo)/2
	return donor, recipient, mid + 1, sHi, perSpan[hot] / 2, true
}

// Rebalance measures the per-slot load counters, plans and runs up to
// MaxMoves migrations from the busiest shards to the least busy, and
// reports the projected imbalance before and after. It is the
// LoadReport-driven entry point: run traffic, then call Rebalance to
// move the measured hot slices. Requires EnableResharding.
func (m *Ordered) Rebalance(opts RebalanceOptions) (RebalanceReport, error) {
	var rep RebalanceReport
	t := m.rt.Load()
	if t == nil {
		return rep, ErrReshardingDisabled
	}
	perShard, _ := shardLoads(t, len(m.shards))
	rep.Before = imbalanceOf(perShard)
	tol := opts.tolerance()
	for move := 0; move < opts.maxMoves(len(m.shards)); move++ {
		t = m.rt.Load()
		if t.kind == kindSlots {
			donor, recipient, slots, moved, ok := planSlotMove(t, len(m.shards), tol)
			if !ok {
				break
			}
			if err := m.MigrateSlots(donor, recipient, slots, opts.BatchSize); err != nil {
				return rep, err
			}
			rep.Moves = append(rep.Moves, MoveReport{Donor: donor, Recipient: recipient, Slots: slots, Ops: moved})
		} else {
			donor, recipient, lo, hi, moved, ok := planRangeMove(t, len(m.shards), tol)
			if !ok {
				break
			}
			if err := m.MigrateRange(donor, recipient, lo, hi, opts.BatchSize); err != nil {
				return rep, err
			}
			rep.Moves = append(rep.Moves, MoveReport{Donor: donor, Recipient: recipient, Lo: lo, Hi: hi, Ranged: true, Ops: moved})
		}
	}
	perShard, _ = shardLoads(m.rt.Load(), len(m.shards))
	rep.After = imbalanceOf(perShard)
	return rep, nil
}

// Rebalance is the load-driven rebalancer for the unordered front-end;
// see Ordered.Rebalance.
func (m *Hash) Rebalance(opts RebalanceOptions) (RebalanceReport, error) {
	var rep RebalanceReport
	t := m.rt.Load()
	if t == nil {
		return rep, ErrReshardingDisabled
	}
	perShard, _ := shardLoads(t, len(m.shards))
	rep.Before = imbalanceOf(perShard)
	tol := opts.tolerance()
	for move := 0; move < opts.maxMoves(len(m.shards)); move++ {
		t = m.rt.Load()
		donor, recipient, slots, moved, ok := planSlotMove(t, len(m.shards), tol)
		if !ok {
			break
		}
		if err := m.MigrateSlots(donor, recipient, slots, opts.BatchSize); err != nil {
			return rep, err
		}
		rep.Moves = append(rep.Moves, MoveReport{Donor: donor, Recipient: recipient, Slots: slots, Ops: moved})
	}
	perShard, _ = shardLoads(m.rt.Load(), len(m.shards))
	rep.After = imbalanceOf(perShard)
	return rep, nil
}
