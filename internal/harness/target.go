// The key-kind adaptor. Every runner and trial in this package addresses
// its index by dense identifier; a Target turns an identifier into the
// index's own key ([]byte through keys.Generator.AppendKey for ordered
// indexes, gen.Uint64(id)|1 for hash tables, which reserve key 0) and
// into the group.Op that carries it, so ordered and hash — and a single
// heap and a sharded front-end — share one body of everything above.
package harness

import (
	"repro/internal/cceh"
	"repro/internal/commit"
	"repro/internal/core"
	"repro/internal/fastfair"
	"repro/internal/group"
	"repro/internal/keys"
	"repro/internal/pmem"
	"repro/internal/ycsb"
	"repro/shard"
)

// Target is one index addressed by dense identifier: a converted index
// on its own heap (Ordered, Hash — what the crash trials build) or a
// sharded front-end (ShardedOrdered, ShardedHash — what the throughput
// cells run on; Sharded builds one as a crash-trial target).
type Target struct {
	kind    keys.Kind
	stats   StatsSource
	ordered bool
	// heaps and recover are set on crash-trial targets: the heaps a
	// trial arms, power-cycles, checks and releases (one, or one per
	// shard), and the restart after a crash, which disarms the fired
	// injector and returns the per-shard recovery replay counts (nil on
	// a single heap).
	heaps   []*pmem.Heap
	recover func() (replays []uint64, err error)

	// session returns one worker's direct view of the index, with its
	// own reusable key buffer.
	session func() session
	// combiner returns an empty group-commit queue over the index.
	combiner func() combiner
	// committers starts a fresh generation of async committers over the
	// index and returns its enqueue and its close.
	committers func(opts commit.Options, observe func(ycsb.OpKind)) (enqueue func(id, v uint64, update bool) (*commit.Future, error), end func() error)
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

// applyFn group-commits a batch of ops with keys of type K; startFn
// launches a generation of committers draining such ops and returns
// its enqueue and its close.
type (
	applyFn[K any] func([]group.Op[K], group.Observer) error
	startFn[K any] func(commit.Options, func(group.Op[K])) (func(group.Op[K]) (*commit.Future, error), func() error)
)

// newTarget erases the key type K of one index family behind Target's
// id-addressed closures. key encodes an identifier, reusing buf's
// storage when the kind's keys have any; the zero buf yields a key the
// caller owns, which is what a queued op needs.
func newTarget[K any](idx core.PointIndex[K], scan func(K, int), key func(buf K, id uint64) K,
	apply applyFn[K], start startFn[K]) *Target {
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
		committers: func(opts commit.Options, observe func(ycsb.OpKind)) (func(id, v uint64, update bool) (*commit.Future, error), func() error) {
			var obs func(group.Op[K])
			if observe != nil {
				obs = func(o group.Op[K]) { observe(kindOf(o.Value, o.Update)) }
			}
			enqueue, end := start(opts, obs)
			return func(id, v uint64, update bool) (*commit.Future, error) { return enqueue(op(id, v, update)) }, end
		},
	}
}

func orderedTarget(idx core.OrderedIndex, kind keys.Kind, apply applyFn[[]byte], start startFn[[]byte]) *Target {
	gen := keys.NewGenerator(kind)
	t := newTarget[[]byte](idx,
		func(k []byte, n int) { idx.Scan(k, n, func([]byte, uint64) bool { return true }) },
		func(buf []byte, id uint64) []byte { return gen.AppendKey(buf[:0], id) },
		apply, start)
	t.kind = kind
	return t
}

func hashTarget(idx core.HashIndex, apply applyFn[uint64], start startFn[uint64]) *Target {
	gen := keys.NewGenerator(keys.RandInt)
	t := newTarget[uint64](idx, nil,
		func(_, id uint64) uint64 { return gen.Uint64(id) | 1 },
		apply, start)
	t.kind = keys.RandInt
	return t
}

// standalone is the single-heap startFn: one committer applying
// straight to the heap, which also carries its commit.* crash sites.
func standalone[K any](heap *pmem.Heap, apply applyFn[K]) startFn[K] {
	return func(opts commit.Options, obs func(group.Op[K])) (func(group.Op[K]) (*commit.Future, error), func() error) {
		opts.Heap = heap
		c := commit.NewCommitter(apply, obs, opts)
		return c.Enqueue, c.Close
	}
}

// on marks t as living on one heap, which is then its counter source
// and what a trial arms, power-cycles and recovers.
func (t *Target) on(heap *pmem.Heap, recover func() error) *Target {
	t.heaps, t.stats = []*pmem.Heap{heap}, heap
	t.recover = func() ([]uint64, error) {
		heap.SetInjector(nil)
		return nil, recover()
	}
	return t
}

// violations counts the lines t's heaps hold dirty or unfenced.
func (t *Target) violations() (n int) {
	for _, h := range t.heaps {
		n += violations(h)
	}
	return n
}

// release retires t's heaps; t is dead afterwards.
func (t *Target) release() {
	for _, h := range t.heaps {
		h.Release()
	}
}

// Ordered adapts an ordered index living on heap, with keys of kind.
func Ordered(heap *pmem.Heap, idx core.OrderedIndex, kind keys.Kind) *Target {
	apply := func(ops []group.Op[[]byte], obs group.Observer) error { return group.Apply(heap, idx, ops, obs) }
	return orderedTarget(idx, kind, apply, standalone(heap, apply)).on(heap, idx.Recover)
}

// Hash adapts an unordered index living on heap (integer keys, as in
// the paper; scan workloads are rejected).
func Hash(heap *pmem.Heap, idx core.HashIndex) *Target {
	apply := func(ops []group.Op[uint64], obs group.Observer) error { return group.Apply(heap, idx, ops, obs) }
	return hashTarget(idx, apply, standalone(heap, apply)).on(heap, idx.Recover)
}

// ShardedOrdered adapts the sharded ordered front-end: batches commit
// through its per-shard group commits, async writes through one
// committer per shard.
func ShardedOrdered(m *shard.Ordered, kind keys.Kind) *Target {
	t := orderedTarget(m, kind, m.ApplyBatchObserved,
		func(opts commit.Options, obs func(group.Op[[]byte])) (func(group.Op[[]byte]) (*commit.Future, error), func() error) {
			p := commit.NewOrderedObserved(m, opts, obs)
			return p.Apply, p.Close
		})
	t.stats = m
	return t
}

// ShardedHash is ShardedOrdered for the unordered front-end.
func ShardedHash(m *shard.Hash) *Target {
	t := hashTarget(m, m.ApplyBatchObserved,
		func(opts commit.Options, obs func(group.Op[uint64])) (func(group.Op[uint64]) (*commit.Future, error), func() error) {
			p := commit.NewHashObserved(m, opts, obs)
			return p.Apply, p.Close
		})
	t.stats = m
	return t
}

// ByName returns the Build of a registry index by its evaluation name,
// ordered or unordered (kind is ignored by hash tables). The build
// panics on a name the registry does not know — campaign names are
// literals in the commands and tests that pass them.
func ByName(name string, kind keys.Kind) Build {
	return func(o pmem.Options) *Target {
		heap := pmem.New(o)
		if idx, err := core.NewOrdered(name, heap, kind); err == nil {
			return Ordered(heap, idx, kind)
		}
		idx, err := core.NewHash(name, heap)
		if err != nil {
			panic(err)
		}
		return Hash(heap, idx)
	}
}

// Sharded returns the Build of the named ordered index's sharded
// front-end, shards wide. It restarts through RecoverCrashed, which
// must replay the crashed shard alone.
func Sharded(name string, kind keys.Kind, shards int) Build {
	return func(o pmem.Options) *Target {
		m, err := shard.NewOrdered(name, kind, shard.Options{Shards: shards, Heap: o})
		if err != nil {
			panic(err)
		}
		t := ShardedOrdered(m, kind)
		for i := range m.NumShards() {
			t.heaps = append(t.heaps, m.Heap(i))
		}
		t.recover = func() ([]uint64, error) {
			_, err := m.RecoverCrashed()
			return m.Recoveries(), err
		}
		return t
	}
}

// FaithfulFF builds Faithful-mode FAST & FAIR, which reproduces the
// §7.5 unpersisted-initial-allocation bug — the negative control of the
// durability test and of the crash-site campaign under the revert image.
func FaithfulFF(o pmem.Options) *Target {
	heap := pmem.New(o)
	return Ordered(heap, fastfair.NewWithMode(heap, keys.RandInt, fastfair.Faithful), keys.RandInt)
}

// FaithfulCCEH builds Faithful-mode CCEH, which reproduces both the
// unpersisted initial allocation and the §3 non-atomic directory
// doubling whose crash makes recovery stall (cceh.ErrStalled).
func FaithfulCCEH(o pmem.Options) *Target {
	heap := pmem.New(o)
	return Hash(heap, cceh.NewWithMode(heap, cceh.Faithful))
}
