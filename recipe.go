// Package recipe is a Go reproduction of "RECIPE: Converting Concurrent
// DRAM Indexes to Persistent-Memory Indexes" (Lee et al., SOSP 2019).
//
// RECIPE's insight is that the isolation machinery of a class of
// concurrent DRAM indexes — non-blocking reads that tolerate
// inconsistencies, writes that can detect and fix them — is exactly the
// machinery crash recovery needs on persistent memory, so such indexes
// become crash-consistent PM indexes by ordering and flushing their
// stores (plus, for Condition #3 indexes, a small helper on the write
// path). This package exposes the five converted indexes of the paper
// (P-ART, P-HOT, P-BwTree, P-CLHT, P-Masstree), the four hand-crafted PM
// baselines they are evaluated against (FAST & FAIR, CCEH, Level Hashing,
// WOART), the simulated persistent-memory substrate they run on, the
// crash-testing methodology of §5, and a sharded front-end that
// partitions the key space across many independent heaps for
// multi-socket-style scaling and per-shard crash recovery (see
// NewShardedOrdered and the shard package). It re-exports only what the
// examples, commands and root tests use; the group-commit and async
// write paths, the serving tier and the campaign reports live in
// shard/ and internal/.
//
// Quick start:
//
//	heap := recipe.NewHeap()
//	idx, _ := recipe.NewOrdered("P-ART", heap, recipe.RandInt)
//	_ = idx.Insert([]byte("hello"), 42)
//	v, ok := idx.Lookup([]byte("hello"))
//
// Go has no cache-line flush or fence control, so persistence is
// simulated: every index routes its clwb/mfence placements through a
// Heap, which counts them (reproducing the paper's Fig 4c/4d and Table 4
// counters), optionally models their latency, feeds an LLC simulator, and
// drives the §5 crash and durability testing. See DESIGN.md for the full
// substitution map.
package recipe

import (
	"repro/internal/core"
	"repro/internal/crash"
	"repro/internal/harness"
	"repro/internal/keys"
	"repro/internal/pmem"
	"repro/internal/ycsb"
	"repro/shard"
)

// OrderedIndex is a persistent index supporting point and range queries
// over byte-string keys. All implementations are safe for concurrent use.
type OrderedIndex = core.OrderedIndex

// HashIndex is a persistent point-query index over non-zero uint64 keys.
type HashIndex = core.HashIndex

// Heap is the simulated persistent-memory pool indexes allocate from.
type Heap = pmem.Heap

// Key kinds used throughout the evaluation (§7).
const (
	// RandInt is the paper's 8-byte random integer key type.
	RandInt = keys.RandInt
	// YCSBString is the paper's 24-byte YCSB string key type.
	YCSBString = keys.YCSBString
)

// KeyKind selects a key encoding.
type KeyKind = keys.Kind

// NewHeap returns a fast simulated-PM heap (counters only).
func NewHeap() *Heap { return pmem.NewFast() }

// NewOrdered constructs one of the ordered indexes by evaluation name:
// "P-ART", "P-HOT", "P-BwTree", "P-Masstree", "FAST & FAIR", or "WOART".
func NewOrdered(name string, heap *Heap, kind KeyKind) (OrderedIndex, error) {
	return core.NewOrdered(name, heap, kind)
}

// NewHash constructs one of the unordered indexes by evaluation name:
// "P-CLHT", "CCEH", or "Level Hashing".
func NewHash(name string, heap *Heap) (HashIndex, error) {
	return core.NewHash(name, heap)
}

// OrderedNames lists the ordered indexes in the paper's Fig 4 order.
func OrderedNames() []string { return append([]string(nil), core.OrderedNames...) }

// HashNames lists the unordered indexes in the paper's Fig 5 order.
func HashNames() []string { return append([]string(nil), core.HashNames...) }

// KeyGenerator deterministically maps dense identifiers to evaluation
// keys of a given kind.
type KeyGenerator = keys.Generator

// NewKeyGenerator returns a generator for kind.
func NewKeyGenerator(kind KeyKind) *KeyGenerator { return keys.NewGenerator(kind) }

// Workload is one of the YCSB patterns: Table 3's rows plus the
// beyond-the-paper D and F.
type Workload = ycsb.Workload

// Workloads returns the workloads the paper evaluates, in Table 3
// order: Load A, A, B, C, E.
func Workloads() []Workload { return append([]Workload(nil), ycsb.All...) }

// WorkloadByName returns the named workload ("Load A", "A", "B", "C",
// "D", "E", "F").
func WorkloadByName(name string) (Workload, error) { return ycsb.ByName(name) }

// Distribution selects which already-inserted key each read-like
// operation (read, update, RMW, scan start) targets: Uniform (the
// paper's setup and the default), Zipfian, or Latest. Set it on
// Workload.Dist.
type Distribution = ycsb.Distribution

// Uniform draws read-like targets uniformly from the loaded
// population — the paper's §7 setup and the bit-compatible default.
type Uniform = ycsb.Uniform

// Zipfian draws with YCSB's zipfian skew (Gray et al. sampler);
// Theta in (0, 1), hottest rank first.
type Zipfian = ycsb.Zipfian

// Latest is YCSB's read-latest distribution (workload D): zipfian
// over recency, hottest on the most recently inserted keys.
type Latest = ycsb.Latest

// ShardedOrdered is a sharded ordered index: the key space is
// partitioned across NumShards independent heaps, each with its own
// converted index instance and durability tracker. It implements
// OrderedIndex. A crash in one shard is recovered by replaying that
// shard alone (RecoverCrashed).
type ShardedOrdered = shard.Ordered

// ShardedHash is ShardedOrdered for unordered indexes.
type ShardedHash = shard.Hash

// ShardOptions configures a sharded front-end: the shard count, the
// partitioner (hash default, range optional), and the per-shard heap
// options.
type ShardOptions = shard.Options

// Partitioner routes byte-string keys to shards. HashPartition (the
// default) balances any key population; RangePartition preserves key
// order so scans touch few shards.
type Partitioner = shard.Partitioner

// HashPartition is the default partitioner (FNV-1a + Mix64).
type HashPartition = shard.HashPartition

// RangePartition is the order-preserving partitioner.
type RangePartition = shard.RangePartition

// RebalanceOptions tunes the load-driven rebalancer of a sharded
// front-end (move budget, target imbalance tolerance, migration copy
// batch size); see (*ShardedOrdered).Rebalance.
type RebalanceOptions = shard.RebalanceOptions

// Cursor is a sharded front-end's streaming scan iterator, a k-way merge
// pulling entry by entry from each shard's own iterator. Obtain one from
// (*ShardedOrdered).Cursor; over one index, NewIterator and Seek.
type Cursor = shard.Cursor

// NewShardedOrdered builds the named ordered index on each of
// opts.Shards private heaps behind one front-end.
func NewShardedOrdered(name string, kind KeyKind, opts ShardOptions) (*ShardedOrdered, error) {
	return shard.NewOrdered(name, kind, opts)
}

// NewShardedHash is NewShardedOrdered for unordered indexes.
func NewShardedHash(name string, opts ShardOptions) (*ShardedHash, error) {
	return shard.NewHash(name, opts)
}

// Target is an index addressed by dense key identifier — what the
// workload runner and the crash campaigns drive, so ordered and
// unordered indexes share every entry point below. Every Target is a
// sharded front-end; one heap is a front-end with Shards: 1. Build one
// with ShardedOrderedTarget, ShardedHashTarget or IndexByName.
type Target = harness.Target

// ShardedOrderedTarget adapts a sharded ordered front-end.
func ShardedOrderedTarget(m *ShardedOrdered, kind KeyKind) *Target {
	return harness.ShardedOrdered(m, kind)
}

// ShardedHashTarget adapts a sharded unordered front-end.
func ShardedHashTarget(m *ShardedHash) *Target { return harness.ShardedHash(m) }

// IndexByName returns a constructor building the named index — any of
// OrderedNames, HashNames or "WOART"; kind is ignored by hash tables —
// on a one-shard front-end whose heap is made with the options it is
// given, the shape the crash campaigns take. The constructor panics on an unknown name.
func IndexByName(name string, kind KeyKind) harness.Build {
	return harness.ByName(name, kind)
}

// WritePath selects how a run's writes become acknowledged: the zero
// value is the paper's per-op path (the index call returning is the
// ack); Mode BatchedPath queues each worker's writes in a group-commit
// combiner of Batch ops (one covering fence per shard per flush);
// Mode AsyncPath enqueues them to per-shard committers (Queue deep,
// draining up to Batch ops per fence) and treats each future resolving
// nil as the ack.
type WritePath = harness.WritePath

// The write paths for WritePath.Mode.
const (
	SyncPath    = harness.Sync
	BatchedPath = harness.Batched
	AsyncPath   = harness.Async
)

// Result is one (index, workload) measurement with throughput and
// per-operation counters (plus, on AsyncPath, the enqueue-to-ack
// latency sample).
type Result = harness.Result

// RunWorkload loads loadN keys into t and executes opN operations of w
// across threads through the given write path, as §7 does.
func RunWorkload(name string, t *Target, path WritePath, w Workload, loadN, opN, threads int, seed int64) (Result, error) {
	return harness.Run(name, t, path, w, loadN, opN, threads, seed, true)
}

// SiteCampaign crashes the index once at every crash site a
// loadN-insert load through path passes through, restarts it from the
// policy's image (pmem.PolicyIntact loses nothing; the others lose what
// never reached a clwb+fence), and verifies that recovery plus postN
// post-crash inserts and their in-place rewrites lose no acknowledged
// write and leave every dirtied line flushed and fenced at each
// acknowledged boundary. Trials are
// independent heaps and fan out over `workers` goroutines (< 1 =
// GOMAXPROCS); the report is identical for any worker count.
func SiteCampaign(name string, build harness.Build, path WritePath, policy pmem.Policy, seed int64, loadN, postN, workers int) harness.CampaignReport {
	return harness.SiteCampaign(name, build, path, policy, seed, loadN, postN, workers)
}

// ErrCrashed is returned by operations interrupted by a simulated crash.
var ErrCrashed = crash.ErrCrashed

// Table1 renders the paper's Table 1 (conversion effort).
func Table1() string { return core.Table1() }

// Table2 renders the paper's Table 2 (conversion actions).
func Table2() string { return core.Table2() }

// Table3 renders the paper's Table 3 (YCSB workload patterns),
// extended with the beyond-the-paper D and F rows and each row's
// default request distribution.
func Table3() string { return ycsb.Describe() }
