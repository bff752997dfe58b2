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
// NewShardedOrdered and the shard package).
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
	"repro/internal/cachesim"
	"repro/internal/commit"
	"repro/internal/core"
	"repro/internal/crash"
	"repro/internal/group"
	"repro/internal/harness"
	"repro/internal/keys"
	"repro/internal/loadgen"
	"repro/internal/pmem"
	"repro/internal/server"
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

// HeapOptions configures counters, durability tracking, LLC simulation,
// latency modelling and crash injection for a Heap.
type HeapOptions = pmem.Options

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

// NewHeapWithOptions returns a heap with explicit instrumentation.
func NewHeapWithOptions(opts HeapOptions) *Heap { return pmem.New(opts) }

// NewLLC returns an LLC simulator with the evaluation machine's geometry
// (32 MB, 16-way, 64-byte lines) for use in HeapOptions.
func NewLLC() *cachesim.Cache { return cachesim.New(cachesim.DefaultConfig()) }

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

// ExtendedWorkloads returns every workload including the
// update-bearing D (read-latest) and F (read-modify-write, zipfian)
// the paper skipped, in YCSB letter order.
func ExtendedWorkloads() []Workload { return append([]Workload(nil), ycsb.Extended...) }

// WorkloadByName returns the named workload ("Load A", "A", "B", "C",
// "D", "E", "F").
func WorkloadByName(name string) (Workload, error) { return ycsb.ByName(name) }

// OpKind is a YCSB operation type (insert, read, scan, update, RMW);
// per-kind arrays such as Result.Counts are indexed by it.
type OpKind = ycsb.OpKind

// The operation kinds, and the size of per-kind arrays.
const (
	OpInsert   = ycsb.OpInsert
	OpRead     = ycsb.OpRead
	OpScan     = ycsb.OpScan
	OpUpdate   = ycsb.OpUpdate
	OpRMW      = ycsb.OpRMW
	NumOpKinds = ycsb.NumOpKinds
)

// Distribution selects which already-inserted key each read-like
// operation (read, update, RMW, scan start) targets: Uniform (the
// paper's setup and the default), Zipfian, or Latest. Set it on
// Workload.Dist, or pass names through DistributionByName.
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

// DefaultTheta is the YCSB default skew (0.99) for Zipfian and Latest.
const DefaultTheta = ycsb.DefaultTheta

// DistributionByName returns the named distribution ("uniform",
// "zipfian", "latest") with the given theta (ignored for uniform).
func DistributionByName(name string, theta float64) (Distribution, error) {
	return ycsb.DistributionByName(name, theta)
}

// Result is one (index, workload) measurement with throughput and
// per-operation counters.
type Result = harness.Result

// StatsSource yields heap-counter snapshots for a measured phase: a
// single *Heap, or a sharded front-end aggregating many heaps.
type StatsSource = harness.StatsSource

// RunOrderedWorkload loads loadN keys and executes opN operations of w
// against a fresh run of idx across threads, as §7 does. stats is the
// counter source for the measured-phase delta — the heap idx runs on,
// or the sharded front-end itself.
func RunOrderedWorkload(name string, idx OrderedIndex, gen *KeyGenerator, stats StatsSource, w Workload, loadN, opN, threads int, seed int64) (Result, error) {
	return harness.RunOrdered(name, idx, gen, stats, w, loadN, opN, threads, seed)
}

// RunHashWorkload is RunOrderedWorkload for unordered indexes.
func RunHashWorkload(name string, idx HashIndex, gen *KeyGenerator, stats StatsSource, w Workload, loadN, opN, threads int, seed int64) (Result, error) {
	return harness.RunHash(name, idx, gen, stats, w, loadN, opN, threads, seed)
}

// Attribution is the exact per-op-kind counter breakdown of a
// single-threaded attribution pass: clwb/fence per update vs per
// insert, conserving bit-exactly against the aggregate delta.
type Attribution = harness.Attribution

// KindStats is one op kind's share of an Attribution.
type KindStats = harness.KindStats

// AttributeOrderedWorkload loads loadN keys and executes opN
// operations of w single-threaded, charging every counter delta to
// the operation kind that caused it.
func AttributeOrderedWorkload(idx OrderedIndex, gen *KeyGenerator, stats StatsSource, w Workload, loadN, opN int, seed int64) (Attribution, error) {
	return harness.AttributeOrdered(idx, gen, stats, w, loadN, opN, seed)
}

// AttributeHashWorkload is AttributeOrderedWorkload for unordered
// indexes.
func AttributeHashWorkload(idx HashIndex, gen *KeyGenerator, stats StatsSource, w Workload, loadN, opN int, seed int64) (Attribution, error) {
	return harness.AttributeHash(idx, gen, stats, w, loadN, opN, seed)
}

// ShardedOrdered is a sharded ordered index: the key space is
// partitioned across NumShards independent heaps, each with its own
// converted index instance and durability tracker. It implements
// OrderedIndex and StatsSource, so it drops into RunOrderedWorkload
// unchanged. A crash in one shard is recovered by replaying that shard
// alone (RecoverCrashed).
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

// Cursor is a pull-style streaming scan iterator: Next returns entries
// in ascending key order from a k-way merge over one iterator per shard.
// P-ART shards are pulled entry by entry from the index's own resumable
// iterator (nothing buffered); every other index is read in batches of
// at most ScanBatch entries per shard, so servers can paginate
// arbitrarily long scans in O(shards × batch) memory without callback
// gymnastics. Obtain one from (*ShardedOrdered).Cursor or NewCursor.
type Cursor = shard.Cursor

// DefaultScanBatch is the per-shard batch cap streaming scans use for
// batch-read indexes when ShardOptions.ScanBatch (or NewCursor's batch)
// is unset.
const DefaultScanBatch = shard.DefaultScanBatch

// NewCursor returns a streaming cursor over a single ordered index,
// starting at start (nil = the minimum key). batch < 1 selects
// DefaultScanBatch.
func NewCursor(idx OrderedIndex, start []byte, batch int) *Cursor {
	return shard.NewCursor(idx, start, batch)
}

// NewShardedOrdered builds the named ordered index on each of
// opts.Shards private heaps behind one front-end.
func NewShardedOrdered(name string, kind KeyKind, opts ShardOptions) (*ShardedOrdered, error) {
	return shard.NewOrdered(name, kind, opts)
}

// NewShardedHash is NewShardedOrdered for unordered indexes.
func NewShardedHash(name string, opts ShardOptions) (*ShardedHash, error) {
	return shard.NewHash(name, opts)
}

// CrashReport summarises a §7.5 crash-recovery campaign.
type CrashReport = harness.CrashReport

// CrashCampaignOrdered runs the §5/§7.5 crash-recovery methodology
// against an ordered index factory.
func CrashCampaignOrdered(name string, factory func(*Heap) OrderedIndex, kind KeyKind, states, loadN, mixedN, threads int) CrashReport {
	return harness.CrashCampaignOrdered(name, factory, kind, states, loadN, mixedN, threads)
}

// CrashCampaignHash is CrashCampaignOrdered for unordered indexes.
func CrashCampaignHash(name string, factory func(*Heap) HashIndex, states, loadN, mixedN, threads int) CrashReport {
	return harness.CrashCampaignHash(name, factory, states, loadN, mixedN, threads)
}

// ShardCrashReport summarises a per-shard crash-recovery campaign: a
// CrashReport plus the shard count and the count of healthy-shard
// replays (which must be zero).
type ShardCrashReport = harness.ShardCrashReport

// CrashCampaignSharded runs the crash-recovery methodology against the
// sharded front-end with the per-shard recovery discipline: a crash in
// shard k is recovered by replaying shard k alone.
func CrashCampaignSharded(name string, kind KeyKind, shards, states, loadN, mixedN, threads int) ShardCrashReport {
	return harness.CrashCampaignSharded(name, kind, shards, states, loadN, mixedN, threads)
}

// DurabilityReport summarises a §5 durability (flush-coverage) test.
type DurabilityReport = harness.DurabilityReport

// DurabilityOrdered verifies every dirtied line is flushed and fenced at
// each operation boundary.
func DurabilityOrdered(name string, factory func(*Heap) OrderedIndex, kind KeyKind, n int) DurabilityReport {
	return harness.DurabilityOrdered(name, factory, kind, n)
}

// DurabilityHash is DurabilityOrdered for unordered indexes.
func DurabilityHash(name string, factory func(*Heap) HashIndex, n int) DurabilityReport {
	return harness.DurabilityHash(name, factory, n)
}

// SiteCampaignReport summarises a per-crash-site durability campaign:
// one row per crash site, in deterministic site order.
type SiteCampaignReport = harness.SiteCampaignReport

// SiteReport is one crash site's row in a SiteCampaignReport.
type SiteReport = harness.SiteReport

// DurabilitySitesOrdered crashes an ordered index once at every crash
// site its load passes through and verifies that recovery plus postN
// traced post-crash inserts leave every dirtied line flushed and fenced
// at each operation boundary. Trials are independent heaps and fan out
// over `workers` goroutines (< 1 = GOMAXPROCS).
func DurabilitySitesOrdered(name string, factory func(*Heap) OrderedIndex, kind KeyKind, loadN, postN, workers int) SiteCampaignReport {
	return harness.DurabilitySitesOrdered(name, factory, kind, loadN, postN, workers)
}

// DurabilitySitesHash is DurabilitySitesOrdered for unordered indexes.
func DurabilitySitesHash(name string, factory func(*Heap) HashIndex, loadN, postN, workers int) SiteCampaignReport {
	return harness.DurabilitySitesHash(name, factory, loadN, postN, workers)
}

// CyclePolicy selects the fate of clwb'd-but-unfenced lines when a
// shadow-mode heap materialises a post-power-loss image (PowerCycle):
// PolicyRevert drops them, PolicyKeep retains them, PolicyTorn flips a
// seeded coin per line. Stores never written back always revert.
type CyclePolicy = pmem.Policy

// The power-cycle policies.
const (
	PolicyRevert = pmem.PolicyRevert
	PolicyKeep   = pmem.PolicyKeep
	PolicyTorn   = pmem.PolicyTorn
)

// CyclePolicies returns all policies in severity order.
func CyclePolicies() []CyclePolicy { return append([]CyclePolicy(nil), pmem.Policies...) }

// ParseCyclePolicy parses "revert", "keep" or "torn".
func ParseCyclePolicy(s string) (CyclePolicy, error) { return pmem.ParsePolicy(s) }

// CycleReport summarises one Heap.PowerCycle: how many objects were
// touched and how their lines fared. Requires HeapOptions.Shadow.
type CycleReport = pmem.CycleReport

// LossyOutcome classifies one crash site of a lossy campaign: Clean,
// Partial (the unacknowledged in-flight op vanished atomically —
// acceptable), LostAck (an acknowledged write is missing — a real
// durability bug), or Corrupt (recovery failed or readback mismatched).
type LossyOutcome = harness.LossyOutcome

// The lossy site outcomes, in severity order.
const (
	OutcomeClean   = harness.OutcomeClean
	OutcomePartial = harness.OutcomePartial
	OutcomeLostAck = harness.OutcomeLostAck
	OutcomeCorrupt = harness.OutcomeCorrupt
)

// LossyCampaignReport summarises a lossy power-failure campaign: one
// row per crash site; Pass reports zero LOST-ACK and zero CORRUPT.
type LossyCampaignReport = harness.LossyCampaignReport

// LossySiteReport is one crash site's row in a LossyCampaignReport.
type LossySiteReport = harness.LossySiteReport

// LossyCampaignOrdered runs the adversarial power-failure campaign
// against an ordered index factory: crash at every site the load passes
// through, materialise a post-power-loss image under policy, recover,
// and verify the full dataset plus postN post-cycle inserts. Trials are
// independent shadow-mode heaps fanned out over `workers` goroutines;
// the report is deterministic for a fixed seed, any worker count.
func LossyCampaignOrdered(name string, factory func(*Heap) OrderedIndex, kind KeyKind, policy CyclePolicy, seed int64, loadN, postN, workers int) LossyCampaignReport {
	return harness.LossyCampaignOrdered(name, factory, kind, policy, seed, loadN, postN, workers)
}

// LossyCampaignHash is LossyCampaignOrdered for unordered indexes.
func LossyCampaignHash(name string, factory func(*Heap) HashIndex, policy CyclePolicy, seed int64, loadN, postN, workers int) LossyCampaignReport {
	return harness.LossyCampaignHash(name, factory, policy, seed, loadN, postN, workers)
}

// ByteOp is one write in an ordered group commit: an insert or (with
// Update set) an in-place update. Slices of ByteOp feed
// (*ShardedOrdered).ApplyBatch, which coalesces the ops' trailing
// fences into one per shard while keeping each op's write-back
// coverage intact.
type ByteOp = group.ByteOp

// U64Op is ByteOp for unordered (uint64-keyed) indexes.
type U64Op = group.U64Op

// GroupObserver receives acknowledgement callbacks during an observed
// group commit: obs(i) after op i is applied, and once more with the
// last applied index after the covering fence retires — only then are
// the ops durably acknowledged.
type GroupObserver = group.Observer

// GroupError reports a group commit that stopped early: Applied ops
// were applied (durable only once a covering fence retired), the rest
// were not attempted.
type GroupError = group.Error

// The crash sites a group commit passes through, swept by the batched
// campaigns: after each op is applied (fence still deferred) and after
// the group's single covering fence.
const (
	SiteGroupOpApplied    = group.SiteOpApplied
	SiteGroupCommitFenced = group.SiteCommitFenced
)

// BatchError reports a sharded batch whose sub-batches partially
// failed: ops routed to healthy shards committed, Failed carries one
// SubBatchError per failing shard. errors.Is sees through it to each
// cause (e.g. ErrShardUnavailable).
type BatchError = shard.BatchError

// SubBatchError is one shard's failure inside a BatchError: the shard
// number, the batch positions routed to it, and how many of them were
// applied before the error.
type SubBatchError = shard.SubBatchError

// Deferred is a group-commit combiner for one writer: Insert/Update
// queue writes and flush them as a fence-coalesced batch when limit is
// reached or Flush is called. Not safe for concurrent use; each writer
// thread owns its own Deferred.
type Deferred = shard.Deferred

// DeferredHash is Deferred for unordered indexes.
type DeferredHash = shard.DeferredHash

// NewDeferredWriter returns a combiner batching up to limit writes per
// group commit against m.
func NewDeferredWriter(m *ShardedOrdered, limit int) *Deferred {
	return shard.NewDeferred(m, limit)
}

// NewDeferredHashWriter is NewDeferredWriter for unordered indexes.
func NewDeferredHashWriter(m *ShardedHash, limit int) *DeferredHash {
	return shard.NewDeferredHash(m, limit)
}

// RunOrderedWorkloadBatched is RunOrderedWorkload with writes routed
// through per-thread group-commit combiners of the given batch size:
// trailing fences coalesce to one per batch per shard, and reads that
// could target a thread's own pending writes flush first.
func RunOrderedWorkloadBatched(name string, m *ShardedOrdered, gen *KeyGenerator, w Workload, loadN, opN, threads, batch int, seed int64) (Result, error) {
	return harness.RunOrderedBatched(name, m, gen, w, loadN, opN, threads, batch, seed)
}

// RunHashWorkloadBatched is RunOrderedWorkloadBatched for unordered
// indexes (scan workloads are rejected).
func RunHashWorkloadBatched(name string, m *ShardedHash, gen *KeyGenerator, w Workload, loadN, opN, threads, batch int, seed int64) (Result, error) {
	return harness.RunHashBatched(name, m, gen, w, loadN, opN, threads, batch, seed)
}

// AttributeOrderedWorkloadBatched is AttributeOrderedWorkload through
// the batched write path: every counter delta, including each group's
// single covering fence, is charged to the op kind that caused it, and
// the result conserves bit-exactly against the aggregate delta.
func AttributeOrderedWorkloadBatched(m *ShardedOrdered, gen *KeyGenerator, w Workload, loadN, opN, batch int, seed int64) (Attribution, error) {
	return harness.AttributeOrderedBatched(m, gen, w, loadN, opN, batch, seed)
}

// AttributeHashWorkloadBatched is AttributeOrderedWorkloadBatched for
// unordered indexes.
func AttributeHashWorkloadBatched(m *ShardedHash, gen *KeyGenerator, w Workload, loadN, opN, batch int, seed int64) (Attribution, error) {
	return harness.AttributeHashBatched(m, gen, w, loadN, opN, batch, seed)
}

// LossyCampaignOrderedBatched is LossyCampaignOrdered with the load
// and post-cycle writes issued as group commits of the given batch
// size: the sweep also crashes at the group boundary sites
// (SiteGroupOpApplied, SiteGroupCommitFenced), acknowledgement is per
// batch, and the in-flight set at a crash is the whole unacknowledged
// batch — each of its keys must be present with the exact value or
// absent (batch-atomic PARTIAL), never corrupt.
func LossyCampaignOrderedBatched(name string, factory func(*Heap) OrderedIndex, kind KeyKind, policy CyclePolicy, seed int64, loadN, postN, batch, workers int) LossyCampaignReport {
	return harness.LossyCampaignOrderedBatched(name, factory, kind, policy, seed, loadN, postN, batch, workers)
}

// LossyCampaignHashBatched is LossyCampaignOrderedBatched for
// unordered indexes.
func LossyCampaignHashBatched(name string, factory func(*Heap) HashIndex, policy CyclePolicy, seed int64, loadN, postN, batch, workers int) LossyCampaignReport {
	return harness.LossyCampaignHashBatched(name, factory, policy, seed, loadN, postN, batch, workers)
}

// DurabilitySitesOrderedBatched is DurabilitySitesOrdered through the
// batched write path: flush coverage is checked at every acknowledged
// batch boundary (mid-batch, fences are legitimately deferred).
func DurabilitySitesOrderedBatched(name string, factory func(*Heap) OrderedIndex, kind KeyKind, loadN, postN, batch, workers int) SiteCampaignReport {
	return harness.DurabilitySitesOrderedBatched(name, factory, kind, loadN, postN, batch, workers)
}

// DurabilitySitesHashBatched is DurabilitySitesOrderedBatched for
// unordered indexes.
func DurabilitySitesHashBatched(name string, factory func(*Heap) HashIndex, loadN, postN, batch, workers int) SiteCampaignReport {
	return harness.DurabilitySitesHashBatched(name, factory, loadN, postN, batch, workers)
}

// CommitFuture is the completion handle an async enqueue returns: it
// resolves exactly once — with nil only after the covering fence of
// the group commit carrying the op retired (the op is durable), or
// with an error if the op did not commit.
type CommitFuture = commit.Future

// CommitOptions configures the per-shard committers of an async
// pipeline: queue capacity, max batch, backpressure policy, enqueue
// timeout, and the flush interval bounding staleness.
type CommitOptions = commit.Options

// CommitPolicy selects the backpressure behaviour of async enqueues
// against a full shard queue.
type CommitPolicy = commit.Policy

// The backpressure policies: block for space (default), reject
// immediately with ErrCommitQueueFull, or wait up to
// CommitOptions.EnqueueTimeout.
const (
	CommitBlock    = commit.Block
	CommitReject   = commit.Reject
	CommitDeadline = commit.Deadline
)

// Commit queue/batch defaults (see CommitOptions).
const (
	DefaultCommitQueue    = commit.DefaultQueue
	DefaultCommitMaxBatch = commit.DefaultMaxBatch
)

// Typed failures of the async pipeline surface, matched by errors.Is.
var (
	// ErrCommitQueueFull reports an enqueue rejected by backpressure.
	ErrCommitQueueFull = commit.ErrQueueFull
	// ErrCommitClosed reports an enqueue after the pipeline closed.
	ErrCommitClosed = commit.ErrClosed
	// ErrCommitPending is CommitFuture.Err's answer while unresolved.
	ErrCommitPending = commit.ErrPending
	// ErrCommitterFailed marks futures failed by a committer that died
	// (panic or injected crash); the shard is quarantined.
	ErrCommitterFailed = commit.ErrCommitterFailed
)

// CommitterError carries a dead committer's shard number and cause.
type CommitterError = commit.CommitterError

// The crash sites bracketing a committer's drain loop, swept by the
// async campaigns: after each op is applied inside the fence group,
// and after the covering fence retires but before any future resolves.
const (
	SiteCommitDrainApplied = commit.SiteDrainApplied
	SiteCommitAckFenced    = commit.SiteAckFenced
)

// AsyncOrdered is the async commit pipeline over a sharded ordered
// front-end: one committer goroutine per shard drains a bounded queue
// into group commits and resolves each write's CommitFuture only after
// its covering fence retired. Reads go to the front-end directly and
// may trail enqueued writes by at most CommitOptions.FlushInterval
// plus one batch commit; Drain (or waiting your own futures) closes
// the window. Close resolves every accepted future and stops the
// committers.
type AsyncOrdered = commit.Ordered

// AsyncHash is AsyncOrdered for unordered indexes.
type AsyncHash = commit.Hash

// NewAsyncOrdered starts one committer per shard of m; see AsyncOrdered.
func NewAsyncOrdered(m *ShardedOrdered, opts CommitOptions) *AsyncOrdered {
	return commit.NewOrdered(m, opts)
}

// NewAsyncHash is NewAsyncOrdered for unordered indexes.
func NewAsyncHash(m *ShardedHash, opts CommitOptions) *AsyncHash {
	return commit.NewHash(m, opts)
}

// RunOrderedWorkloadAsync is RunOrderedWorkload with writes enqueued
// through an async commit pipeline built over m with opts: workers
// receive futures, wait them only when a read could observe their own
// pending inserts, and the measured phase ends at a full pipeline
// drain. Result.AckOps/AckTotal carry the enqueue-to-ack latency
// sample.
func RunOrderedWorkloadAsync(name string, m *ShardedOrdered, gen *KeyGenerator, w Workload, loadN, opN, threads int, opts CommitOptions, seed int64) (Result, error) {
	return harness.RunOrderedAsync(name, m, gen, w, loadN, opN, threads, opts, seed)
}

// RunHashWorkloadAsync is RunOrderedWorkloadAsync for unordered
// indexes (scan workloads are rejected).
func RunHashWorkloadAsync(name string, m *ShardedHash, gen *KeyGenerator, w Workload, loadN, opN, threads int, opts CommitOptions, seed int64) (Result, error) {
	return harness.RunHashAsync(name, m, gen, w, loadN, opN, threads, opts, seed)
}

// AttributeOrderedWorkloadAsync is AttributeOrderedWorkload through
// the async pipeline: the committers' observer hook charges every
// write's counter delta to the kind inferred from its value tags, and
// the result conserves bit-exactly against the aggregate delta.
func AttributeOrderedWorkloadAsync(m *ShardedOrdered, gen *KeyGenerator, w Workload, loadN, opN int, opts CommitOptions, seed int64) (Attribution, error) {
	return harness.AttributeOrderedAsync(m, gen, w, loadN, opN, opts, seed)
}

// AttributeHashWorkloadAsync is AttributeOrderedWorkloadAsync for
// unordered indexes.
func AttributeHashWorkloadAsync(m *ShardedHash, gen *KeyGenerator, w Workload, loadN, opN int, opts CommitOptions, seed int64) (Attribution, error) {
	return harness.AttributeHashAsync(m, gen, w, loadN, opN, opts, seed)
}

// LossyCampaignOrderedAsync is LossyCampaignOrdered with the load and
// post-cycle writes enqueued through a standalone async committer: the
// sweep also crashes at the committer drain-loop sites
// (SiteCommitDrainApplied, SiteCommitAckFenced), acknowledgement is
// per future, and only nil-resolved futures join the must-survive
// model — error-resolved writes may survive whole or vanish whole.
func LossyCampaignOrderedAsync(name string, factory func(*Heap) OrderedIndex, kind KeyKind, policy CyclePolicy, seed int64, loadN, postN, batch, workers int) LossyCampaignReport {
	return harness.LossyCampaignOrderedAsync(name, factory, kind, policy, seed, loadN, postN, batch, workers)
}

// LossyCampaignHashAsync is LossyCampaignOrderedAsync for unordered
// indexes.
func LossyCampaignHashAsync(name string, factory func(*Heap) HashIndex, policy CyclePolicy, seed int64, loadN, postN, batch, workers int) LossyCampaignReport {
	return harness.LossyCampaignHashAsync(name, factory, policy, seed, loadN, postN, batch, workers)
}

// DurabilitySitesOrderedAsync is DurabilitySitesOrdered through the
// async write path: flush coverage is checked at quiesced committer
// boundaries after a crash at any site, the drain-loop sites included.
func DurabilitySitesOrderedAsync(name string, factory func(*Heap) OrderedIndex, kind KeyKind, loadN, postN, batch, workers int) SiteCampaignReport {
	return harness.DurabilitySitesOrderedAsync(name, factory, kind, loadN, postN, batch, workers)
}

// DurabilitySitesHashAsync is DurabilitySitesOrderedAsync for
// unordered indexes.
func DurabilitySitesHashAsync(name string, factory func(*Heap) HashIndex, loadN, postN, batch, workers int) SiteCampaignReport {
	return harness.DurabilitySitesHashAsync(name, factory, loadN, postN, batch, workers)
}

// ErrShardUnavailable is the sentinel matched by errors.Is for
// operations routed to a quarantined shard of a sharded front-end: a
// shard whose recovery failed (or that a verifier reported corrupt) is
// quarantined and returns this while every other shard keeps serving;
// RetryShard re-attempts recovery under capped backoff. See the shard
// package for Quarantine/Quarantined/Degraded/RetryShard.
var ErrShardUnavailable = shard.ErrShardUnavailable

// ShardUnavailableError carries the quarantined shard's number and the
// quarantine cause.
type ShardUnavailableError = shard.ShardUnavailableError

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

// LoadReport is an epoch-windowed per-shard load snapshot of a sharded
// front-end: call ShardedOrdered/ShardedHash LoadReport() to close the
// current accounting epoch and get op/clwb/fence deltas per shard since
// the previous call, with no writer quiescing. Imbalance() (busiest
// shard's share over the mean) is the rebalancer's trigger metric.
type LoadReport = shard.LoadReport

// ShardLoad is one shard's row in a LoadReport.
type ShardLoad = shard.ShardLoad

// RebalanceOptions tunes the load-driven rebalancer (move budget,
// target imbalance tolerance, migration copy batch size).
type RebalanceOptions = shard.RebalanceOptions

// RebalanceReport summarises one Rebalance call: projected imbalance
// before/after and the migrations performed.
type RebalanceReport = shard.RebalanceReport

// MoveReport describes one migration a Rebalance call performed.
type MoveReport = shard.MoveReport

// Crash sites of the live-migration protocol, in addition to the
// group-commit sites each copy batch passes through.
const (
	SiteReshardCopyApplied   = shard.SiteCopyApplied
	SiteReshardFlipPublished = shard.SiteFlipPublished
)

// Resharding errors; see the shard package.
var (
	ErrNotReshardable     = shard.ErrNotReshardable
	ErrReshardingDisabled = shard.ErrReshardingDisabled
	ErrMigrationAborted   = shard.ErrMigrationAborted
)

// ReshardCampaignReport summarises a crash-mid-migration campaign.
type ReshardCampaignReport = harness.ReshardCampaignReport

// ReshardSiteReport is one (crash site, host shard) campaign row.
type ReshardSiteReport = harness.ReshardSiteReport

// ReshardLossyOrdered runs the lossy power-failure campaign over the
// live-migration crash sites for a sharded ordered index: crash at each
// site (on the recipient for copy-path sites, the donor for the flip),
// power-cycle only that shard under the policy, recover, and verify
// zero lost acknowledgements, a duplicate-free merged scan, zero
// healthy-shard replays, and that an aborted migration is retryable.
func ReshardLossyOrdered(name string, kind KeyKind, ranged bool, policy CyclePolicy, seed int64, shards, loadN, postN, workers int) ReshardCampaignReport {
	return harness.ReshardLossyOrdered(name, kind, ranged, policy, seed, shards, loadN, postN, workers)
}

// ReshardLossyHash is ReshardLossyOrdered for unordered indexes.
func ReshardLossyHash(name string, policy CyclePolicy, seed int64, shards, loadN, postN, workers int) ReshardCampaignReport {
	return harness.ReshardLossyHash(name, policy, seed, shards, loadN, postN, workers)
}

// ReshardDurabilityOrdered is the flush-coverage variant of
// ReshardLossyOrdered: Track-mode heaps, no power loss, asserting every
// dirtied line is flushed and fenced at operation boundaries through
// the crash, recovery, and retry.
func ReshardDurabilityOrdered(name string, kind KeyKind, ranged bool, shards, loadN, postN, workers int) ReshardCampaignReport {
	return harness.ReshardDurabilityOrdered(name, kind, ranged, shards, loadN, postN, workers)
}

// ReshardDurabilityHash is ReshardDurabilityOrdered for unordered
// indexes.
func ReshardDurabilityHash(name string, shards, loadN, postN, workers int) ReshardCampaignReport {
	return harness.ReshardDurabilityHash(name, shards, loadN, postN, workers)
}

// Serving tier (internal/server + internal/loadgen): the RESP-style
// wire protocol over a sharded ordered front-end, and the open-loop
// load generator that drives it.

// Server serves the wire protocol over one sharded ordered front-end;
// see internal/server for the command set and drain semantics.
type Server = server.Server

// ServerOptions configures a Server (write mode, batch size, async
// commit pipeline, pipelining cap).
type ServerOptions = server.Options

// WriteMode selects how SET/UPDATE reach persistence: ServeSync,
// ServeBatched (per-connection group commit) or ServeAsync
// (ack-after-fence pipeline).
type WriteMode = server.WriteMode

// Write modes for ServerOptions.Mode.
const (
	ServeSync    = server.ModeSync
	ServeBatched = server.ModeBatched
	ServeAsync   = server.ModeAsync
)

// NewServer builds a Server over front-end m.
func NewServer(m *ShardedOrdered, opts ServerOptions) *Server { return server.New(m, opts) }

// LoadOptions configures an open-loop load run against a serving
// endpoint (target QPS, Poisson arrivals, YCSB key distributions).
type LoadOptions = loadgen.Options

// LoadgenReport is one load run's outcome: achieved QPS, per-kind op
// and error counts, typed error codes, and the reply deficit after
// drain.
type LoadgenReport = loadgen.Report

// RunLoad drives one open-loop load run and reports it.
func RunLoad(opts LoadOptions) (LoadgenReport, error) { return loadgen.Run(opts) }
