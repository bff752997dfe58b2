// Package shard is the sharded multi-heap front-end: it partitions the
// key space across H independent simulated-PM heaps, each carrying its
// own converted index instance and its own durability tracker, behind
// the same map-style API the root recipe package exposes for a single
// heap.
//
// One pmem.Heap already scales within a socket (its counters and line
// allocator are striped, see internal/stripe), but a single heap still
// models a single PM pool: one address space, one crash/recovery domain,
// one LLC. Sharding models the next axis — multi-socket-style placement,
// where "Evaluating Persistent Memory Range Indexes: Part Two" (He et
// al.) shows cross-socket traffic dominates PM index throughput — by
// giving every shard a private heap, index, tracker and injector.
// Because shards share nothing, a crash in shard k is recovered by
// replaying shard k alone (the per-partition recovery argument of APEX).
//
// A front-end is born with its routing table (table.go), the one
// routing authority: a pluggable Partitioner reduces a key to a ring
// point — HashPartition (the default) balances any population,
// RangePartition preserves key order so scans touch few shards — and
// the table locates the point's shard. Ordered and Hash implement the
// same interfaces as the underlying indexes (core.OrderedIndex,
// core.HashIndex) plus a Stats method, so they drop into the existing
// harness unchanged.
//
// There is one front-end body, frontend[K], written against
// core.PointIndex[K] and instantiated twice: Ordered embeds
// frontend[[]byte], Hash embeds frontend[uint64]. Routing, the point
// operations, group commit (batch.go), quarantine
// (quarantine.go), load accounting (load.go) and live migration
// (table.go, reshard.go) exist once, there. What a key kind adds is
// small and named: Ordered has the merged Scan and Cursor (cursor.go), a
// k-way merge over each shard index's own iterator, and each kind says
// how a migration enumerates a donor shard's keys (keyWalk in
// reshard.go) — that iterator for ordered indexes, a core.HashRanger
// snapshot for hash tables.
package shard

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/crash"
	"repro/internal/keys"
	"repro/internal/pmem"
)

// Options configures a sharded front-end.
type Options struct {
	// Shards is the number of partitions H. Values < 1 select 1.
	Shards int
	// Partitioner routes byte-string keys (Ordered). Nil selects
	// HashPartition. Hash always routes through HashPartition64.
	Partitioner Partitioner
	// Heap configures every per-shard heap (latency model, tracking,
	// LLC). Injectors are not shared: arm a single shard via
	// Heap(i).SetInjector.
	Heap pmem.Options
}

func (o Options) shards() int {
	if o.Shards < 1 {
		return 1
	}
	return o.Shards
}

// shardOf is one partition: a private heap and the index built on it.
type shardOf[K any] struct {
	heap *pmem.Heap
	idx  core.PointIndex[K]
	// recoveries counts Recover replays of this shard, so tests and
	// campaigns can assert that a crash in shard k replayed only shard k.
	recoveries uint64
}

// frontend is the sharded front-end over keys of type K: the partition
// array, routing, the point operations, and everything that iterates
// the partitions (length, recovery, stats, quarantine, group commit,
// migration — see the other files of this package). Ordered and Hash
// embed its two instantiations.
type frontend[K any] struct {
	shards []shardOf[K]
	// part reduces a key to the ring point the routing table locates.
	part partitioner[K]
	// walk opens the kind's enumeration of the migration donor's keys
	// (see keyWalk in reshard.go).
	walk func(wt *routeTable, mg *migration) (keyWalk[K], error)
	// health tracks per-shard availability; parallel to shards because
	// its entries hold locks and must never be copied.
	health []shardHealth
	// batchMu guards each shard's heap against its group-commit mode,
	// which is single-writer against every other writer on the heap: a
	// group commit (batch sub-batch, migration copy or shadow) holds the
	// exclusive side for the duration of the commit, and point writes
	// hold the shared side — concurrent with each other (the indexes are
	// internally concurrent) but excluded from in-flight group commits.
	// Parallel to shards; entries hold locks and must never be copied.
	batchMu []sync.RWMutex

	// rt is the published routing table: the current immutable table
	// version (see table.go), never nil — newFrontend publishes version
	// 0. Behind a pointer because atomic.Pointer must not be copied and
	// the frontend value is copied during construction.
	rt *atomic.Pointer[routeTable]
	// gate is the RCU grace-period barrier: multi-shard operations hold a
	// read stripe for their duration, and table transitions drain it
	// after publishing so no operation still routes on a retired table.
	gate *opGate
	// load is the epoch bookkeeping behind LoadReport (holds a mutex).
	load *loadState
	// reshardMu serialises table transitions: migrations and rebalances.
	// Behind a pointer (mutex, copied value).
	reshardMu *sync.Mutex
}

// newFrontend builds one (heap, index) pair per shard and publishes the
// initial routing table for part. It also returns the indexes as the
// factory typed them, in shard order, for a kind that needs more of them
// than core.PointIndex offers.
func newFrontend[K any, IX core.PointIndex[K]](part partitioner[K], factory func(*pmem.Heap) (IX, error), opts Options) (frontend[K], []IX, error) {
	f := frontend[K]{
		shards:    make([]shardOf[K], opts.shards()),
		part:      part,
		health:    newHealth(opts.shards()),
		batchMu:   make([]sync.RWMutex, opts.shards()),
		rt:        &atomic.Pointer[routeTable]{},
		gate:      newOpGate(),
		load:      &loadState{},
		reshardMu: &sync.Mutex{},
	}
	f.rt.Store(newTable(len(f.shards), part.OrderPreserving()))
	idxs := make([]IX, len(f.shards))
	for i := range f.shards {
		heap := pmem.New(opts.Heap)
		idx, err := factory(heap)
		if err != nil {
			return frontend[K]{}, nil, fmt.Errorf("shard %d: %w", i, err)
		}
		f.shards[i] = shardOf[K]{heap: heap, idx: idx}
		idxs[i] = idx
	}
	return f, idxs, nil
}

// Len returns the number of live keys across serving shards.
// Quarantined shards are excluded: their in-memory state is the one
// recovery rejected, so their counts are not trustworthy.
func (f *frontend[K]) Len() int {
	n := 0
	for i := range f.shards {
		if f.health[i].quarantined.Load() {
			continue
		}
		n += f.shards[i].idx.Len()
	}
	return n
}

// Recover replays recovery on every shard (a whole-machine restart). It
// must not be called concurrently with index operations.
func (f *frontend[K]) Recover() error {
	for i := range f.shards {
		if err := f.RecoverShard(i); err != nil {
			return err
		}
	}
	return nil
}

// RecoverShard replays recovery on shard i alone. A recovery failure
// quarantines the shard (see quarantine.go); success takes it out of
// quarantine. It must not be called concurrently with index operations.
func (f *frontend[K]) RecoverShard(i int) error {
	f.shards[i].recoveries++
	if err := f.shards[i].idx.Recover(); err != nil {
		err = fmt.Errorf("shard %d: %w", i, err)
		f.Quarantine(i, err)
		return err
	}
	if f.health[i].quarantined.Load() {
		h := &f.health[i]
		h.mu.Lock()
		h.cause = nil
		h.mu.Unlock()
		h.quarantined.Store(false)
	}
	return nil
}

// RecoverCrashed recovers exactly the shards whose injector fired,
// clearing each fired injector first, and returns their indices in shard
// order. Shards that did not crash are not replayed — the per-shard
// recovery invariant. A shard whose recovery fails is quarantined and the
// sweep continues: the healthy shards come back up, the joined error
// reports the casualties. It must not be called concurrently with index
// operations.
func (f *frontend[K]) RecoverCrashed() ([]int, error) {
	var recovered []int
	var failed []error
	for i := range f.shards {
		if !f.shards[i].heap.Injector().Fired() {
			continue
		}
		f.shards[i].heap.SetInjector(nil)
		if err := f.RecoverShard(i); err != nil {
			failed = append(failed, err)
			continue
		}
		recovered = append(recovered, i)
	}
	return recovered, errors.Join(failed...)
}

// Recoveries returns per-shard recovery replay counts (how many times
// each shard's Recover ran), for asserting the per-shard recovery
// invariant.
func (f *frontend[K]) Recoveries() []uint64 {
	out := make([]uint64, len(f.shards))
	for i := range f.shards {
		out[i] = f.shards[i].recoveries
	}
	return out
}

// Release retires every shard heap (pmem.Heap.Release): tracker state
// and the shadow registries that pin every registered node are dropped.
// Campaigns that churn many front-ends call it between trials. Neither
// the front-end nor any of its shard indexes may be used afterwards.
func (f *frontend[K]) Release() {
	for i := range f.shards {
		f.shards[i].heap.Release()
	}
}

// NumShards returns the partition count H.
func (f *frontend[K]) NumShards() int { return len(f.shards) }

// Heap returns shard i's private heap, for arming injectors, reading
// trackers, or inspecting one partition.
func (f *frontend[K]) Heap(i int) *pmem.Heap { return f.shards[i].heap }

// Shard returns shard i's index, for direct per-partition access.
func (f *frontend[K]) Shard(i int) core.PointIndex[K] { return f.shards[i].idx }

// writeLock2 takes the shared group-commit locks of two shards in
// index order — the consistent order keeps lock-ordering acyclic when
// a double-applied write spans the handoff window's donor and
// recipient.
func (f *frontend[K]) writeLock2(a, b int) {
	if b < a {
		a, b = b, a
	}
	f.batchMu[a].RLock()
	f.batchMu[b].RLock()
}

// writeUnlock2 releases writeLock2.
func (f *frontend[K]) writeUnlock2(a, b int) {
	f.batchMu[a].RUnlock()
	f.batchMu[b].RUnlock()
}

// ShardStats returns one counter snapshot per shard, in shard order.
func (f *frontend[K]) ShardStats() []pmem.Stats {
	out := make([]pmem.Stats, len(f.shards))
	for i := range f.shards {
		out[i] = f.shards[i].heap.Stats()
	}
	return out
}

// Stats returns the aggregate of all per-shard counters. The aggregate
// conserves exactly: it is the field-wise sum of ShardStats, and each
// shard's counters are themselves exact striped aggregates.
func (f *frontend[K]) Stats() pmem.Stats { return sumStats(f.ShardStats()) }

// PartitionerName reports the routing policy in use.
func (f *frontend[K]) PartitionerName() string { return f.part.Name() }

// Route returns the shard owning key, bumping its load counter — the
// decision point operations route through. With one shard no routing is
// needed, so the H=1 front-end adds no hashing to the operation path;
// otherwise the published routing table decides. It counts as one routed
// operation in LoadReport accounting; Owner asks the same question
// without counting.
func (f *frontend[K]) Route(key K) int {
	if len(f.shards) == 1 {
		f.rt.Load().ops[0].Add(1)
		return 0
	}
	s, _ := f.locateKey(f.rt.Load(), key)
	return s
}

// locateKey routes key through table t, bumping the slot's load counter
// (the one load measure; see load.go), and returns the owning shard plus
// the key's ring point (for handoff-window checks).
func (f *frontend[K]) locateKey(t *routeTable, key K) (shard int, point uint64) {
	p := f.part.Point(key)
	s, slot := t.locate(p)
	t.ops[slot].Add(1)
	return s, p
}

// Owner returns the shard the current routing table names for key,
// counting nothing: merged scans resolve duplicate heads with it, and
// the async commit pipeline picks a committer queue with it — the
// commit itself routes again, under the gate, and counts the op once.
func (f *frontend[K]) Owner(key K) int {
	if len(f.shards) == 1 {
		return 0
	}
	s, _ := f.rt.Load().locate(f.part.Point(key))
	return s
}

// writeKind selects the point write a routed write performs.
type writeKind uint8

const (
	writeInsert writeKind = iota
	writeUpdate
	writeDelete
)

// Insert stores value under key in the owning shard. If the owning
// shard is quarantined it returns *ShardUnavailableError
// (errors.Is(err, ErrShardUnavailable)); other shards keep serving.
// While key sits inside an open migration window the write
// double-applies: the donor stays authoritative (its result is
// returned), and the recipient receives a shadow copy so the migration
// stream cannot miss it.
func (f *frontend[K]) Insert(key K, value uint64) error {
	_, err := f.write(writeInsert, key, value)
	return err
}

// Update overwrites the value under key in place in the owning shard
// (the index's upsert path; see core.PointIndex.Update). Quarantined
// shards return *ShardUnavailableError. Updates double-apply inside an
// open migration window, like Insert.
func (f *frontend[K]) Update(key K, value uint64) error {
	_, err := f.write(writeUpdate, key, value)
	return err
}

// Delete removes key from the owning shard. Quarantined shards return
// *ShardUnavailableError. Deletes double-apply inside an open migration
// window, like Insert.
func (f *frontend[K]) Delete(key K) (bool, error) { return f.write(writeDelete, key, 0) }

// write routes one point write — to the only shard, or through the
// published table — and, under a table whose open handoff window covers
// key, applies it to donor and recipient. present is Delete's result and false for the other kinds.
func (f *frontend[K]) write(kind writeKind, key K, value uint64) (present bool, err error) {
	if len(f.shards) == 1 {
		f.rt.Load().ops[0].Add(1)
		return f.writeShard(0, kind, key, value)
	}
	g := f.gate.enter()
	defer f.gate.exit(g)
	t := f.rt.Load()
	s, p := f.locateKey(t, key)
	mg := t.mig
	if mg == nil || s != mg.donor || !mg.covers(p, t) {
		return f.writeShard(s, kind, key, value)
	}
	if err := f.unavailable(s); err != nil {
		return false, err
	}
	mg.mu.RLock()
	defer mg.mu.RUnlock()
	f.writeLock2(s, mg.recipient)
	defer f.writeUnlock2(s, mg.recipient)
	if present, err = f.shards[s].write(kind, key, value); err != nil {
		return present, err
	}
	if _, err := f.shards[mg.recipient].write(kind, key, value); err != nil {
		mg.failed.Store(true) // recipient incomplete: migration must abort
	}
	return present, nil
}

// writeShard is a point write to shard s alone: the quarantine check,
// then the index operation under the shared side of the shard's
// group-commit lock — concurrent with other point writes, excluded from
// a group commit on the same heap (see batchMu).
func (f *frontend[K]) writeShard(s int, kind writeKind, key K, value uint64) (bool, error) {
	if err := f.unavailable(s); err != nil {
		return false, err
	}
	f.batchMu[s].RLock()
	defer f.batchMu[s].RUnlock()
	return f.shards[s].write(kind, key, value)
}

// write performs the index operation kind selects, unless the shard is
// down. The caller holds the shard's group-commit lock shared.
func (sh *shardOf[K]) write(kind writeKind, key K, value uint64) (bool, error) {
	if err := sh.down(); err != nil {
		return false, err
	}
	switch kind {
	case writeInsert:
		return false, sh.idx.Insert(key, value)
	case writeUpdate:
		return false, sh.idx.Update(key, value)
	}
	return sh.idx.Delete(key)
}

// down returns crash.ErrCrashed once the crash armed on the shard's heap
// has fired: until RecoverCrashed restarts it, a write fails before it
// touches the index, so no store or fence after the crash reaches the
// image the restart recovers (see DESIGN.md, §Online migration).
func (sh *shardOf[K]) down() error {
	if sh.heap.Injector().Fired() {
		return crash.ErrCrashed
	}
	return nil
}

// Lookup returns the value stored under key. The core interfaces have
// no error slot, so a key owned by a quarantined shard reads as absent;
// use LookupChecked to distinguish "absent" from "unavailable".
func (f *frontend[K]) Lookup(key K) (uint64, bool) {
	v, ok, err := f.LookupChecked(key)
	if err != nil {
		return 0, false
	}
	return v, ok
}

// LookupChecked is Lookup with quarantine visibility: err is
// *ShardUnavailableError when the owning shard is quarantined, in which
// case the key's presence is unknown. During a migration the donor
// stays the read authority until the table flips.
func (f *frontend[K]) LookupChecked(key K) (uint64, bool, error) {
	s := 0
	if len(f.shards) == 1 {
		f.rt.Load().ops[0].Add(1)
	} else {
		g := f.gate.enter()
		defer f.gate.exit(g)
		s, _ = f.locateKey(f.rt.Load(), key)
	}
	if err := f.unavailable(s); err != nil {
		return 0, false, err
	}
	v, ok := f.shards[s].idx.Lookup(key)
	return v, ok, nil
}

// Ordered is a sharded ordered index: core.OrderedIndex over H
// partitions, each a private (heap, index) pair. Point operations route
// through the Partitioner and touch exactly one shard; Scan merges the
// per-shard ordered streams into one globally ordered stream. It is safe
// for concurrent use to the same extent as the underlying index.
type Ordered struct {
	// ordered is each shard's index as the factory returned it: the
	// ordered view of frontend's core.PointIndex. Parallel to shards.
	ordered []core.OrderedIndex
	// scanPool recycles Scan's Cursor, which never leaves Scan, so
	// steady-state merged scans allocate nothing.
	scanPool sync.Pool
	frontend[[]byte]
}

// NewOrdered builds the named converted index (as core.NewOrdered does)
// on each of opts.Shards private heaps.
func NewOrdered(name string, kind keys.Kind, opts Options) (*Ordered, error) {
	return NewOrderedWith(func(h *pmem.Heap) (core.OrderedIndex, error) {
		return core.NewOrdered(name, h, kind)
	}, opts)
}

// NewOrderedWith is NewOrdered with an explicit per-shard index factory,
// for callers that construct indexes outside the registry (e.g. the
// Faithful baseline modes).
func NewOrderedWith(factory func(*pmem.Heap) (core.OrderedIndex, error), opts Options) (*Ordered, error) {
	part := opts.Partitioner
	if part == nil {
		part = HashPartition{}
	}
	f, idxs, err := newFrontend[[]byte](part, factory, opts)
	if err != nil {
		return nil, err
	}
	m := &Ordered{ordered: idxs, frontend: f}
	m.walk = m.walkIterator
	return m, nil
}

// Shard returns shard i's index, for direct per-partition access
// (narrowing frontend.Shard to the ordered interface).
func (m *Ordered) Shard(i int) core.OrderedIndex { return m.ordered[i] }

// Scan implements core.OrderedIndex across all shards. With one shard it
// delegates; otherwise it is a loop over a pooled Cursor. While a shard
// is quarantined the scan is degraded: the quarantined partition's keys
// are skipped (Degraded()/Quarantined() report the gap).
func (m *Ordered) Scan(start []byte, count int, fn func(key []byte, value uint64) bool) int {
	if len(m.shards) == 1 {
		if m.unavailable(0) != nil {
			return 0
		}
		return m.ordered[0].Scan(start, count, fn)
	}
	c, _ := m.scanPool.Get().(*Cursor)
	if c == nil {
		c = &Cursor{m: m}
	}
	c.Seek(start)
	n := 0
	for k, v, ok := c.Next(); ok && fn(k, v); k, v, ok = c.Next() {
		if n++; n == count {
			break
		}
	}
	m.scanPool.Put(c)
	return n
}

// Hash is a sharded unordered index: core.HashIndex over H partitions,
// routed by HashPartition64.
type Hash struct {
	frontend[uint64]
}

// NewHash builds the named unordered index (as core.NewHash does) on
// each of opts.Shards private heaps.
func NewHash(name string, opts Options) (*Hash, error) {
	return NewHashWith(func(h *pmem.Heap) (core.HashIndex, error) {
		return core.NewHash(name, h)
	}, opts)
}

// NewHashWith is NewHash with an explicit per-shard index factory.
func NewHashWith(factory func(*pmem.Heap) (core.HashIndex, error), opts Options) (*Hash, error) {
	f, _, err := newFrontend[uint64](HashPartition64{}, factory, opts)
	if err != nil {
		return nil, err
	}
	m := &Hash{frontend: f}
	m.walk = m.walkSnapshot
	return m, nil
}

// sumStats folds per-shard snapshots field-wise.
func sumStats(per []pmem.Stats) pmem.Stats {
	var s pmem.Stats
	for _, p := range per {
		s = s.Add(p)
	}
	return s
}
