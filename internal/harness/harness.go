// Package harness executes the paper's experiments: multi-threaded YCSB
// runs with per-operation performance counters (Figs 4 and 5, Table 4),
// and the §5/§7.5 crash and durability campaigns, all one trial
// (trial.go). Everything runs over two small seams: a Target addresses
// any index by dense identifier (target.go), and a WritePath decides
// how a write becomes acknowledged (path.go).
package harness

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/keys"
	"repro/internal/pmem"
	"repro/internal/ycsb"
)

// StatsSource yields heap-counter snapshots for the measured phase: a
// Target's front-end (shard.Ordered / shard.Hash), whose Stats
// aggregates every per-shard heap.
type StatsSource interface {
	Stats() pmem.Stats
}

// Value tags distinguish in-place rewrites from the original insert so
// read verification can accept any interleaving: inserts store the
// key's dense identifier, updates store it with UpdateBit set, RMWs
// OR RMWBit into whatever value they read. Identifiers are dense (far
// below 2^62), so the top two bits are free.
const (
	// UpdateBit marks a value written by OpUpdate.
	UpdateBit uint64 = 1 << 63
	// RMWBit marks a value rewritten by OpRMW.
	RMWBit uint64 = 1 << 62
)

// valueID strips the update/RMW tag bits, recovering the dense key
// identifier a stored value verifies against.
func valueID(v uint64) uint64 { return v &^ (UpdateBit | RMWBit) }

// Result is one (index, workload) measurement.
type Result struct {
	Index    string
	Workload string
	KeyKind  keys.Kind
	Threads  int
	Ops      int
	Elapsed  time.Duration
	// Stats is the heap-counter delta over the measured phase.
	Stats pmem.Stats
	// Inserts counts insert operations in the measured phase (for
	// clwb/mfence-per-insert columns; == Counts[ycsb.OpInsert]).
	Inserts int
	// Counts is the number of operations the workers actually executed,
	// per kind. Conservation holds by construction — reads + updates +
	// RMWs + inserts + scans == Ops — and TestRunConservationDF
	// re-checks it against the plan under -race.
	Counts [ycsb.NumOpKinds]int
	// AckOps and AckTotal sample enqueue-to-ack latency on the Async
	// path: AckOps write futures were waited during the measured phase,
	// their enqueue-to-resolve times summing to AckTotal. Both are zero
	// on the other paths.
	AckOps   int
	AckTotal time.Duration
}

// MeanAckLatency returns the average enqueue-to-ack latency of the
// sampled async writes (zero on the other paths).
func (r Result) MeanAckLatency() time.Duration {
	if r.AckOps == 0 {
		return 0
	}
	return r.AckTotal / time.Duration(r.AckOps)
}

// MopsPerSec returns throughput in million operations per second.
func (r Result) MopsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds() / 1e6
}

// ClwbPerInsert returns average clwb instructions per insert.
func (r Result) ClwbPerInsert() float64 {
	if r.Inserts == 0 {
		return 0
	}
	return float64(r.Stats.Clwb) / float64(r.Inserts)
}

// FencePerInsert returns average mfence instructions per insert.
func (r Result) FencePerInsert() float64 {
	if r.Inserts == 0 {
		return 0
	}
	return float64(r.Stats.Fence) / float64(r.Inserts)
}

// LLCMissPerOp returns average simulated LLC misses per operation.
func (r Result) LLCMissPerOp() float64 {
	if r.Ops == 0 {
		return 0
	}
	return float64(r.Stats.LLC.Misses) / float64(r.Ops)
}

// Run executes opN operations of w against t across threads through
// the given write path and returns the measured-phase result. With load
// set it first populates t with loadN keys (the paper's Load A, §7);
// without, t must already hold loadN keys — callers that split a cell
// around an online event (cmd/ycsbbench -reshard) measure the second
// phase against the population the first left behind. The measured
// phase ends when every worker has settled, so it covers every write's
// covering fence on every path. Queued paths need a sharded target.
func Run(name string, t *Target, path WritePath, w ycsb.Workload, loadN, opN, threads int, seed int64, load bool) (Result, error) {
	if w.ScanPct > 0 && !t.ordered {
		return Result{}, fmt.Errorf("harness: workload %s has scans; unordered indexes do not support them", w.Name)
	}
	if load {
		if _, err := execute(t, path, ycsb.GenerateLoad(loadN, threads), hooks{}, nil); err != nil {
			return Result{}, fmt.Errorf("load phase: %w", err)
		}
	}
	plan := ycsb.Generate(w, loadN, opN, threads, seed)
	res, err := execute(t, path, plan, hooks{}, nil)
	if err != nil {
		return Result{}, fmt.Errorf("run phase: %w", err)
	}
	res.Index, res.Workload, res.KeyKind, res.Threads = name, w.Name, t.kind, threads
	return res, nil
}

// execute runs plan through one generation of path, one goroutine per
// thread stream, and returns the timed, counter-bracketed outcome.
// direct (optional) is told the kind of every operation the walker
// executed itself rather than handing to the writer.
func execute(t *Target, path WritePath, plan *ycsb.Plan, h hooks, direct func(ycsb.OpKind)) (Result, error) {
	g := path.open(t, h, false)
	before := t.stats.Stats()
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, len(plan.Threads))
	for i, ops := range plan.Threads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := t.session()
			w := g.writer(s)
			if errs[i] = walk(ops, uint64(plan.LoadN), s, w, direct); errs[i] == nil {
				errs[i] = w.settle()
			}
		}()
	}
	wg.Wait()
	res := Result{
		Ops: plan.TotalOps(), Elapsed: time.Since(start), Stats: t.stats.Stats().Sub(before),
		Inserts: plan.Inserts, Counts: plan.Counts,
	}
	cerr := g.end()
	for _, err := range errs {
		if err != nil {
			return Result{}, err
		}
	}
	if cerr != nil {
		return Result{}, fmt.Errorf("write path close: %w", cerr)
	}
	res.AckOps, res.AckTotal = g.ackOps, g.ackTotal
	return res, nil
}

// walk executes one worker's operation stream: writes go to the
// worker's writer, reads and scans straight to the index.
//
// Reads stay consistent with the plan's guarantees (see ycsb.Sampler)
// on every path: a read-like target is either a loaded identifier
// (< loadN, acknowledged before the measured phase) or this worker's
// own earlier insert, so settling the worker's own writes before
// reading an identifier >= loadN is sufficient — and a scan, which
// sees a range, settles whenever own inserts are pending. Pending
// in-place updates never force a settle: verification masks the value
// tags (valueID), so reading the pre-update value is indistinguishable
// in identifier space.
func walk(ops []ycsb.Op, loadN uint64, s session, w writer, direct func(ycsb.OpKind)) error {
	write := func(op ycsb.Op, v uint64, update bool) error {
		if err := w.write(op.ID, v, update); err != nil {
			return fmt.Errorf("%v id %d: %w", op.Kind, op.ID, err)
		}
		return nil
	}
	did := func(k ycsb.OpKind) {
		if direct != nil {
			direct(k)
		}
	}
	lookup := func(op ycsb.Op, what string) (uint64, error) {
		if op.ID >= loadN && w.ownInserts() {
			if err := w.settle(); err != nil {
				return 0, err
			}
		}
		v, ok := s.lookup(op.ID)
		if !ok || valueID(v) != op.ID {
			return 0, fmt.Errorf("%s id %d: got %d,%v", what, op.ID, v, ok)
		}
		did(op.Kind)
		return v, nil
	}
	for _, op := range ops {
		var err error
		switch op.Kind {
		case ycsb.OpInsert:
			err = write(op, op.ID, false)
		case ycsb.OpUpdate:
			err = write(op, op.ID|UpdateBit, true)
		case ycsb.OpRead:
			_, err = lookup(op, "read")
		case ycsb.OpRMW:
			var v uint64
			if v, err = lookup(op, "rmw read"); err == nil {
				err = write(op, v|RMWBit, true)
			}
		case ycsb.OpScan:
			if w.ownInserts() {
				err = w.settle()
			}
			if err == nil {
				s.scan(op.ID, op.ScanLen)
				did(ycsb.OpScan)
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// KindStats is the counter delta one operation kind accumulated over
// an attribution pass.
type KindStats struct {
	// Ops is the number of operations of this kind executed.
	Ops int
	// Stats is the exact counter delta charged to this kind.
	Stats pmem.Stats
}

// Attribution is the per-op-kind counter breakdown of one attribution
// pass, indexed by ycsb.OpKind, plus the aggregate measured-phase
// delta the per-kind deltas must sum to.
type Attribution struct {
	Kinds [ycsb.NumOpKinds]KindStats
	// Total is the aggregate counter delta over the measured phase.
	// Conservation is exact: Total equals the field-wise sum of
	// Kinds[*].Stats, because every charge is the delta since the
	// previous charge and the striped counters are exact at snapshot
	// points.
	Total pmem.Stats
}

// Conserves reports whether the per-kind deltas sum bit-exactly to the
// aggregate delta.
func (a Attribution) Conserves() bool {
	var sum pmem.Stats
	for _, k := range a.Kinds {
		sum = sum.Add(k.Stats)
	}
	return sum == a.Total
}

// ClwbPer returns average clwb per operation of kind k.
func (a Attribution) ClwbPer(k ycsb.OpKind) float64 {
	if a.Kinds[k].Ops == 0 {
		return 0
	}
	return float64(a.Kinds[k].Stats.Clwb) / float64(a.Kinds[k].Ops)
}

// FencePer returns average fence per operation of kind k.
func (a Attribution) FencePer(k ycsb.OpKind) float64 {
	if a.Kinds[k].Ops == 0 {
		return 0
	}
	return float64(a.Kinds[k].Stats.Fence) / float64(a.Kinds[k].Ops)
}

// Attribute loads loadN keys into t, then executes opN operations of w
// single-threaded through the given write path, charging every counter
// delta to the operation kind that caused it. Multi-threaded runs
// cannot attribute a shared counter to the op that moved it; a serial
// walk can. Direct operations (reads, scans, the read half of an RMW)
// are charged at the op; writes are charged where the path makes their
// counters final — as the index call returns (Sync), as the group
// observer fires at flush, the covering fence going to the batch's last
// write (Batched), or on the committers' goroutines (Async, where
// committers of different shards may interleave and blur a charge
// across kinds). Each charge is the delta since the previous one, so
// the per-kind deltas conserve bit-exactly against the aggregate on
// every path (Attribution.Conserves).
func Attribute(t *Target, path WritePath, w ycsb.Workload, loadN, opN int, seed int64) (Attribution, error) {
	if w.ScanPct > 0 && !t.ordered {
		return Attribution{}, fmt.Errorf("harness: workload %s has scans; unordered indexes do not support them", w.Name)
	}
	if _, err := execute(t, path, ycsb.GenerateLoad(loadN, 1), hooks{}, nil); err != nil {
		return Attribution{}, fmt.Errorf("load phase: %w", err)
	}
	plan := ycsb.Generate(w, loadN, opN, 1, seed)
	var a Attribution
	var mu sync.Mutex
	start := t.stats.Stats()
	before := start
	charge := func(k ycsb.OpKind) {
		mu.Lock()
		after := t.stats.Stats()
		a.Kinds[k].Stats = a.Kinds[k].Stats.Add(after.Sub(before))
		before = after
		mu.Unlock()
	}
	if _, err := execute(t, path, plan, hooks{observe: charge}, charge); err != nil {
		return Attribution{}, fmt.Errorf("run phase: %w", err)
	}
	for k, n := range plan.Counts {
		a.Kinds[k].Ops = n
	}
	a.Total = before.Sub(start)
	return a, nil
}
