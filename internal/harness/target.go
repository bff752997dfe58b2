// The key-kind adaptor. Every runner and trial in this package addresses
// its index by dense identifier; a Target turns an identifier into the
// index's own key ([]byte through keys.Generator.AppendKey for ordered
// indexes, gen.Uint64(id)|1 for hash tables, which reserve key 0) and
// into the group.Op that carries it, so ordered and hash share one body
// of everything above. Every Target is a sharded front-end; a single
// heap is a front-end one shard wide.
package harness

import (
	"bytes"
	"slices"

	"repro/internal/cceh"
	"repro/internal/core"
	"repro/internal/fastfair"
	"repro/internal/group"
	"repro/internal/keys"
	"repro/internal/pmem"
	"repro/internal/ycsb"
	"repro/shard"
)

// Target is one index addressed by dense identifier: a sharded
// front-end (ShardedOrdered, ShardedHash), one shard wide or more.
// Sharded builds either as a crash-trial target.
type Target struct {
	kind    keys.Kind
	stats   StatsSource
	ordered bool
	// heaps are the front-end's shard heaps, which a trial arms,
	// power-cycles, checks and releases, and recover is the restart after
	// a crash: RecoverCrashed, which disarms the fired injectors and
	// replays those shards alone, then the per-shard replay counts.
	heaps   []*pmem.Heap
	recover func() (replays []uint64, err error)
	// mergedScan is set on ordered targets: it counts the merged scan's
	// entries, -1 if they are not strictly ascending. migrate is set on
	// ReshardCampaign's: the migration a trial runs beside its load,
	// which moves nothing once a published flip has moved its keys.
	mergedScan func() int
	migrate    func() error

	// session returns one worker's direct view of the index, with its
	// own reusable key buffer.
	session func() session
	// combiner returns an empty group-commit queue over the index.
	combiner func() combiner
}

// session is the direct (synchronous) id-addressed view of an index.
type session struct {
	write  func(id, v uint64, update bool) error
	lookup func(id uint64) (uint64, bool)
	scan   func(id uint64, n int) // nil on unordered indexes
}

// combiner queues writes and commits them as one group: flush applies
// the queue with one covering fence per heap and empties it, reporting
// each op's kind to observe as the group layer's observer fires.
type combiner struct {
	queue func(id, v uint64, update bool)
	flush func(observe func(ycsb.OpKind)) error
}

// Build constructs a trial target on fresh heaps made with the given
// options; campaigns call it once per trial (possibly from several
// goroutines).
type Build func(pmem.Options) *Target

// kindOf recovers a write's op kind from what it carries: an insert
// stores the bare identifier, an RMW rewrite has RMWBit set, any other
// in-place write is an update. Queued writes are charged by it when
// their group commits, long after the plan walker moved on.
func kindOf(v uint64, update bool) ycsb.OpKind {
	switch {
	case !update:
		return ycsb.OpInsert
	case v&RMWBit != 0:
		return ycsb.OpRMW
	}
	return ycsb.OpUpdate
}

// applyFn group-commits a batch of ops with keys of type K.
type applyFn[K any] func([]group.Op[K], group.Observer) error

// newTarget erases the key type K of one index family behind Target's
// id-addressed closures. key encodes an identifier, reusing buf's
// storage when the kind's keys have any; the zero buf yields a key the
// caller owns, which is what a queued op needs.
func newTarget[K any](idx core.PointIndex[K], scan func(K, int), key func(buf K, id uint64) K, apply applyFn[K]) *Target {
	var fresh K
	op := func(id, v uint64, update bool) group.Op[K] {
		return group.Op[K]{Key: key(fresh, id), Value: v, Update: update}
	}
	return &Target{
		ordered: scan != nil,
		session: func() session {
			var buf K
			at := func(id uint64) K { buf = key(buf, id); return buf }
			s := session{
				write: func(id, v uint64, update bool) error {
					if update {
						return idx.Update(at(id), v)
					}
					return idx.Insert(at(id), v)
				},
				lookup: func(id uint64) (uint64, bool) { return idx.Lookup(at(id)) },
			}
			if scan != nil {
				s.scan = func(id uint64, n int) { scan(at(id), n) }
			}
			return s
		},
		combiner: func() combiner {
			var ops []group.Op[K]
			return combiner{
				queue: func(id, v uint64, update bool) { ops = append(ops, op(id, v, update)) },
				flush: func(observe func(ycsb.OpKind)) error {
					var obs group.Observer
					if observe != nil {
						obs = func(i int) { observe(kindOf(ops[i].Value, ops[i].Update)) }
					}
					err := apply(ops, obs)
					ops = ops[:0]
					return err
				},
			}
		},
	}
}

func orderedTarget(idx core.OrderedIndex, kind keys.Kind, apply applyFn[[]byte]) *Target {
	gen := keys.NewGenerator(kind)
	t := newTarget[[]byte](idx,
		func(k []byte, n int) { idx.Scan(k, n, func([]byte, uint64) bool { return true }) },
		func(buf []byte, id uint64) []byte { return gen.AppendKey(buf[:0], id) },
		apply)
	t.kind = kind
	return t
}

func hashTarget(idx core.HashIndex, apply applyFn[uint64]) *Target {
	gen := keys.NewGenerator(keys.RandInt)
	t := newTarget[uint64](idx, nil,
		func(_, id uint64) uint64 { return gen.Uint64(id) | 1 },
		apply)
	t.kind = keys.RandInt
	return t
}

// violations counts the lines t's heaps hold dirty or unfenced at a
// boundary, resetting a dirty tracker so one violation is not recounted
// at every later boundary.
func (t *Target) violations() (n int) {
	for _, h := range t.heaps {
		if v := h.Tracker().NotDurable(); v != 0 {
			h.Tracker().Reset()
			n += v
		}
	}
	return n
}

// release retires t's heaps; t is dead afterwards.
func (t *Target) release() {
	for _, h := range t.heaps {
		h.Release()
	}
}

// ShardedOrdered adapts the sharded ordered front-end: batches commit
// through its per-shard group commits.
func ShardedOrdered(m *shard.Ordered, kind keys.Kind) *Target {
	t := orderedTarget(m, kind, m.ApplyBatch)
	t.mergedScan = func() int {
		n := 0
		var prev []byte
		m.Scan(nil, 0, func(k []byte, _ uint64) bool {
			if n > 0 && bytes.Compare(prev, k) >= 0 {
				n = -1
				return false
			}
			prev = append(prev[:0], k...)
			n++
			return true
		})
		return n
	}
	return t.onShards(m)
}

// ShardedHash is ShardedOrdered for the unordered front-end.
func ShardedHash(m *shard.Hash) *Target {
	return hashTarget(m, m.ApplyBatch).onShards(m)
}

// frontend is what a Target needs of either sharded front-end beyond
// its index interface, and the slot migration ReshardCampaign runs.
type frontend interface {
	StatsSource
	NumShards() int
	Heap(i int) *pmem.Heap
	RecoverCrashed() ([]int, error)
	Recoveries() []uint64
	SlotsOf(shard int) []int
	MigrateSlots(donor, recipient int, slots []int, batchSize int) error
}

// onShards marks t as living on m's heaps, restarting through
// RecoverCrashed and reporting the per-shard replay counts.
func (t *Target) onShards(m frontend) *Target {
	t.stats = m
	for i := range m.NumShards() {
		t.heaps = append(t.heaps, m.Heap(i))
	}
	t.recover = func() ([]uint64, error) {
		_, err := m.RecoverCrashed()
		return m.Recoveries(), err
	}
	return t
}

// ByName returns the Build of a registry index by its evaluation name,
// ordered or unordered (kind is ignored by hash tables), on one heap: a
// front-end one shard wide. The build panics on a name the registry
// does not know — campaign names are literals in the commands and tests
// that pass them.
func ByName(name string, kind keys.Kind) Build { return Sharded(name, kind, 1, nil) }

// Sharded returns the Build of the named index's sharded front-end,
// shards wide: an ordered index routed by part (nil selects hash
// routing), or a hash table (kind and part are ignored). It restarts
// through RecoverCrashed, which must replay the crashed shard alone.
func Sharded(name string, kind keys.Kind, shards int, part shard.Partitioner) Build {
	return func(o pmem.Options) *Target { t, _ := sharded(name, kind, shards, part, o); return t }
}

// sharded builds Sharded's target on heaps made with o, and returns its
// front-end too.
func sharded(name string, kind keys.Kind, shards int, part shard.Partitioner, o pmem.Options) (*Target, frontend) {
	opts := shard.Options{Shards: shards, Heap: o, Partitioner: part}
	if slices.Contains(core.HashNames, name) {
		m, err := shard.NewHash(name, opts)
		if err != nil {
			panic(err)
		}
		return ShardedHash(m), m
	}
	m, err := shard.NewOrdered(name, kind, opts)
	if err != nil {
		panic(err)
	}
	return ShardedOrdered(m, kind), m
}

// The migration ReshardCampaign crashes: shard 0 hands a slice of its
// keys to shard 1, copying them in batches of reshardBatch so writers
// get into the handoff window between batches.
const donorShard, recipientShard, reshardBatch = 0, 1, 8

// migration returns m's move: the first half of shard 0's slots at
// build time, to shard 1 — or nothing, once a published flip has moved
// them (a flip moves its whole window at once).
func migration(m frontend) func() error {
	slots := m.SlotsOf(donorShard)
	slots = slots[:len(slots)/2]
	return func() error {
		if !slices.Contains(m.SlotsOf(donorShard), slots[0]) {
			return nil
		}
		return m.MigrateSlots(donorShard, recipientShard, slots, reshardBatch)
	}
}

// FaithfulFF builds Faithful-mode FAST & FAIR, which reproduces the
// §7.5 unpersisted-initial-allocation bug — the negative control of the
// durability test and of the crash-site campaign under the revert image.
func FaithfulFF(o pmem.Options) *Target {
	m, err := shard.NewOrderedWith(func(h *pmem.Heap) (core.OrderedIndex, error) {
		return fastfair.NewWithMode(h, keys.RandInt, fastfair.Faithful), nil
	}, shard.Options{Heap: o})
	if err != nil {
		panic(err)
	}
	return ShardedOrdered(m, keys.RandInt)
}

// FaithfulCCEH builds Faithful-mode CCEH, which reproduces both the
// unpersisted initial allocation and the §3 non-atomic directory
// doubling whose crash makes recovery stall (cceh.ErrStalled).
func FaithfulCCEH(o pmem.Options) *Target {
	m, err := shard.NewHashWith(func(h *pmem.Heap) (core.HashIndex, error) {
		return cceh.NewWithMode(h, cceh.Faithful), nil
	}, shard.Options{Heap: o})
	if err != nil {
		panic(err)
	}
	return ShardedHash(m)
}
