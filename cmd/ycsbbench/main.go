// Command ycsbbench reproduces the throughput experiments of RECIPE §7:
// Fig 4a (ordered indexes, integer keys), Fig 4b (ordered indexes, string
// keys), Fig 5 (hash indexes, integer keys), and the §7.3 P-ART vs WOART
// comparison. It prints one row per index with one column per YCSB
// workload, mirroring the figures' series. Beyond the paper, -workloads
// runs any subset of YCSB A–F (including the update-bearing D and F the
// paper skipped) on every index, unsharded and sharded, with exact
// per-op-kind clwb/fence attribution, and -dist/-theta select the
// request distribution (uniform — the paper's setup — zipfian, or
// read-latest).
//
// Usage:
//
//	go run ./cmd/ycsbbench -figure 4a -keys 1000000 -ops 1000000 -threads 16
//	go run ./cmd/ycsbbench -figure all
//	go run ./cmd/ycsbbench -figure 4a -shards 8 -partition hash
//	go run ./cmd/ycsbbench -workloads A,B,C,D,E,F -dist zipfian -theta 0.99
//	go run ./cmd/ycsbbench -workloads D,F
//
// Simulated-PM latency is charged per clwb/fence (-clwbdelay/-fencedelay
// busy-work units) so flush-heavy indexes pay the write-path penalty they
// pay on Optane.
//
// -shards H partitions the key space across H independent heaps behind
// the sharded front-end (-partition selects hash or range routing for
// the ordered figures). Every cell additionally re-derives the
// aggregate Stats() delta from the per-shard deltas and requires
// bit-exact agreement — a guard against the aggregate and per-shard
// views ever diverging; the proof that the counters themselves conserve
// under concurrency is `cmd/counters -selftest` and the shard package's
// TestStatsConservation.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/commit"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/keys"
	"repro/internal/pmem"
	"repro/internal/ycsb"
	"repro/shard"
)

// config carries the flag settings every figure runner needs.
type config struct {
	loadN, opN, threads int
	seed                int64
	heap                pmem.Options
	shards              int
	part                shard.Partitioner
	scanBatch           int
	// batch > 1 routes writes in -workloads mode through the
	// group-commit layer: per-thread combiners queue up to batch
	// writes and flush them as one fence-coalesced group per shard.
	batch int
	// dist overrides every workload's request distribution when
	// non-nil (-dist); nil keeps each workload row's own default
	// (uniform for the Table 3 rows, latest for D, zipfian for F).
	dist ycsb.Distribution
	// async routes -workloads writes through the per-shard async
	// commit pipeline: writers enqueue and receive futures resolved
	// only after the covering fence retires (ack-after-fence).
	async bool
	// queue is the per-shard bounded queue capacity in async mode
	// (0 = commit.DefaultQueue).
	queue int
	// flush bounds staleness in async mode: the longest a queued op
	// waits before the committer flushes a short batch (0 = commit
	// whatever is queued immediately).
	flush time.Duration
	// reshard splits every sharded -workloads cell around the live
	// rebalancer: half the ops run against the static partition, the
	// load-aware rebalancer migrates hot slots, and the second half
	// runs against the flipped routing table — the row reports both
	// phases' throughput and imbalance.
	reshard bool
}

// path is the write path the flags select for -workloads cells: -queue
// caps admitted-but-uncommitted ops, -batch doubles as the async
// drain's MaxBatch, -flushns bounds staleness.
func (c config) path() harness.WritePath {
	return harness.PathFromFlags(c.batch, c.async, c.queue, c.flush)
}

// workloadFor returns w with the -dist override applied.
func (c config) workloadFor(w ycsb.Workload) ycsb.Workload {
	if c.dist != nil {
		w.Dist = c.dist
	}
	return w
}

func main() {
	var (
		figure     = flag.String("figure", "all", `which figure to run: "4a", "4b", "5", "woart", or "all"`)
		loadN      = flag.Int("keys", 1_000_000, "keys loaded before the measured phase (paper: 64M)")
		opN        = flag.Int("ops", 1_000_000, "operations in the measured phase (paper: 64M)")
		threads    = flag.Int("threads", min(16, runtime.GOMAXPROCS(0)), "worker threads (paper: 16)")
		seed       = flag.Int64("seed", 42, "workload seed")
		clwbDelay  = flag.Int("clwbdelay", 40, "simulated PM write-back cost per clwb (busy-work units)")
		fenceDelay = flag.Int("fencedelay", 20, "simulated cost per fence (busy-work units)")
		shards     = flag.Int("shards", 1, "partitions in the sharded front-end (1 = one heap per cell; -workloads mode also always runs H=1)")
		partition  = flag.String("partition", "hash", `key partitioner for ordered figures with -shards > 1: "hash" or "range" (hash figures always route by hash)`)
		scanBatch  = flag.Int("scanbatch", 0, "per-shard batch size for streaming merged scans (0 = default)")
		batch      = flag.Int("batch", 1, "group-commit batch size for -workloads mode writes (1 = per-op fences; >1 coalesces each batch's trailing fences into one per shard)")
		workloads  = flag.String("workloads", "", `comma-separated YCSB workloads to run on every index, sharded and unsharded (e.g. "D,F" or "A,B,C,D,E,F"); empty = run -figure instead`)
		async      = flag.Bool("async", false, "-workloads mode: route writes through the per-shard async commit pipeline (enqueue + ack-after-fence futures); adds an ack-ns column")
		queue      = flag.Int("queue", 0, "async per-shard queue capacity (admitted but uncommitted ops; 0 = default)")
		flushNS    = flag.Int64("flushns", 0, "async flush deadline in nanoseconds bounding staleness of short batches (0 = commit immediately)")
		distName   = flag.String("dist", "", `request distribution override: "uniform", "zipfian" or "latest"; empty = each workload's default (uniform; latest for D, zipfian for F)`)
		theta      = flag.Float64("theta", ycsb.DefaultTheta, "skew parameter in (0,1) for -dist zipfian/latest")
		reshard    = flag.Bool("reshard", false, "-workloads mode: run the load-aware rebalancer mid-cell on sharded rows and report before/after throughput and per-shard imbalance")
	)
	flag.Parse()
	part, ok := shard.ByName(*partition)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown partitioner %q (want hash or range)\n", *partition)
		os.Exit(2)
	}
	if *shards < 1 {
		fmt.Fprintf(os.Stderr, "-shards must be >= 1, got %d\n", *shards)
		os.Exit(2)
	}
	var dist ycsb.Distribution
	if *distName != "" {
		var err error
		dist, err = ycsb.DistributionByName(*distName, *theta)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	cfg := config{
		loadN: *loadN, opN: *opN, threads: *threads, seed: *seed,
		heap:   pmem.Options{DelayClwb: *clwbDelay, DelayFence: *fenceDelay},
		shards: *shards, part: part, scanBatch: *scanBatch, batch: *batch, dist: dist,
		async: *async, queue: *queue, flush: time.Duration(*flushNS), reshard: *reshard,
	}
	if cfg.batch < 1 {
		fmt.Fprintf(os.Stderr, "-batch must be >= 1, got %d\n", cfg.batch)
		os.Exit(2)
	}
	if cfg.batch > 1 && *workloads == "" {
		fmt.Fprintln(os.Stderr, "-batch > 1 requires -workloads (the figure runners measure the paper's per-op write path)")
		os.Exit(2)
	}
	if cfg.async && *workloads == "" {
		fmt.Fprintln(os.Stderr, "-async requires -workloads (the figure runners measure the paper's per-op write path)")
		os.Exit(2)
	}
	if (cfg.queue != 0 || cfg.flush != 0) && !cfg.async {
		fmt.Fprintln(os.Stderr, "-queue and -flushns require -async")
		os.Exit(2)
	}
	if cfg.queue < 0 || cfg.flush < 0 {
		fmt.Fprintln(os.Stderr, "-queue and -flushns must be >= 0")
		os.Exit(2)
	}
	if cfg.reshard && *workloads == "" {
		fmt.Fprintln(os.Stderr, "-reshard requires -workloads (it splits each sharded cell around a live rebalance)")
		os.Exit(2)
	}
	if cfg.reshard && (cfg.async || cfg.batch > 1) {
		// Async pipelines pin routes at enqueue time and must drain
		// before a flip retires the handoff window (see shard's
		// ApplyShard doc), so the mid-cell rebalance stays on the
		// synchronous write path.
		fmt.Fprintln(os.Stderr, "-reshard is incompatible with -async and -batch > 1")
		os.Exit(2)
	}

	if *workloads != "" {
		runWorkloads(*workloads, cfg)
		return
	}

	run := func(fig string) {
		switch fig {
		case "4a":
			runOrdered(keys.RandInt, cfg)
		case "4b":
			runOrdered(keys.YCSBString, cfg)
		case "5":
			runHash(cfg)
		case "woart":
			runWOART(cfg)
		default:
			fmt.Fprintf(os.Stderr, "unknown figure %q\n", fig)
			os.Exit(2)
		}
	}
	if *figure == "all" {
		for _, f := range []string{"4a", "4b", "5", "woart"} {
			run(f)
		}
		return
	}
	run(*figure)
}

// sharded is what a cell needs of the front-end beyond running
// workloads on it: the counter and load views it brackets the run with,
// and the live rebalancer. shard.Ordered and shard.Hash both provide it.
type sharded interface {
	ShardStats() []pmem.Stats
	Stats() pmem.Stats
	LoadReport() shard.LoadReport
	EnableResharding() error
	Rebalance(shard.RebalanceOptions) (shard.RebalanceReport, error)
	Release()
}

// frontend is one cell's sharded front-end — ordered or unordered,
// whichever the index name selects — with the harness's id-addressed
// adaptor over it.
type frontend struct {
	sharded
	*harness.Target
}

// newFrontend builds the named index behind cfg.shards shards.
func newFrontend(name string, kind keys.Kind, cfg config) frontend {
	if slices.Contains(core.HashNames, name) {
		m, err := shard.NewHash(name, shard.Options{Shards: cfg.shards, Heap: cfg.heap})
		check(err)
		return frontend{m, harness.ShardedHash(m)}
	}
	m, err := shard.NewOrdered(name, kind, shard.Options{
		Shards: cfg.shards, Partitioner: cfg.part, Heap: cfg.heap, ScanBatch: cfg.scanBatch,
	})
	check(err)
	return frontend{m, harness.ShardedOrdered(m, kind)}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// cell runs one (index, workload) figure measurement through the
// sharded front-end on the paper's per-op write path and verifies
// aggregate-vs-per-shard counter conservation.
func cell(name string, kind keys.Kind, w ycsb.Workload, cfg config) harness.Result {
	w = cfg.workloadFor(w)
	m := newFrontend(name, kind, cfg)
	defer m.Release()
	before := m.ShardStats()
	aggBefore := m.Stats()
	res, err := harness.Run(name, m.Target, harness.WritePath{}, w, cfg.loadN, cfg.opN, cfg.threads, cfg.seed, true)
	if err != nil {
		fmt.Fprintf(os.Stderr, "\n%s/%s: %v\n", name, w.Name, err)
		os.Exit(1)
	}
	checkConservation(name, w.Name, m.Stats().Sub(aggBefore), m.ShardStats(), before)
	return res
}

// checkConservation asserts the aggregate Stats delta equals the
// field-wise sum of per-shard deltas bit-exactly. Today Stats() is
// defined as that sum, so this is a guard against the two views
// diverging (say, a future cached aggregate) rather than an independent
// proof; counter conservation itself is proven against serial
// expectations by `cmd/counters -selftest` and shard's
// TestStatsConservation.
func checkConservation(index, workload string, agg pmem.Stats, after, before []pmem.Stats) {
	var sum pmem.Stats
	for i := range after {
		sum = sum.Add(after[i].Sub(before[i]))
	}
	if agg != sum {
		fmt.Fprintf(os.Stderr, "\n%s/%s: aggregate stats %+v != sum of shard stats %+v\n",
			index, workload, agg, sum)
		os.Exit(1)
	}
}

func runOrdered(kind keys.Kind, cfg config) {
	fig := "4a"
	if kind == keys.YCSBString {
		fig = "4b"
	}
	fmt.Printf("\n=== Fig %s: ordered indexes, %s keys, %d threads, %d shard(s) (%s), load %d + run %d ===\n",
		fig, kind, cfg.threads, cfg.shards, cfg.part.Name(), cfg.loadN, cfg.opN)
	fmt.Printf("%-12s", "Index")
	for _, w := range ycsb.All {
		fmt.Printf(" %10s", w.Name)
	}
	fmt.Println("   (Mops/s)")
	for _, name := range core.OrderedNames {
		fmt.Printf("%-12s", name)
		for _, w := range ycsb.All {
			fmt.Printf(" %10.3f", cell(name, kind, w, cfg).MopsPerSec())
		}
		fmt.Println()
	}
}

func runHash(cfg config) {
	fmt.Printf("\n=== Fig 5: hash indexes, integer keys, %d threads, %d shard(s) (hash), load %d + run %d ===\n",
		cfg.threads, cfg.shards, cfg.loadN, cfg.opN)
	fmt.Printf("%-14s", "Index")
	hashWorkloads := []ycsb.Workload{ycsb.LoadA, ycsb.A, ycsb.B, ycsb.C}
	for _, w := range hashWorkloads {
		fmt.Printf(" %10s", w.Name)
	}
	fmt.Println("   (Mops/s)")
	for _, name := range core.HashNames {
		fmt.Printf("%-14s", name)
		for _, w := range hashWorkloads {
			fmt.Printf(" %10.3f", cell(name, keys.RandInt, w, cfg).MopsPerSec())
		}
		fmt.Println()
	}
}

// kindsOf returns the op kinds a workload mix contains, in column
// order.
func kindsOf(w ycsb.Workload) []ycsb.OpKind {
	var ks []ycsb.OpKind
	add := func(k ycsb.OpKind, pct int) {
		if pct > 0 {
			ks = append(ks, k)
		}
	}
	add(ycsb.OpInsert, w.InsertPct)
	add(ycsb.OpRead, w.ReadPct)
	add(ycsb.OpUpdate, w.UpdatePct)
	add(ycsb.OpRMW, w.RMWPct)
	add(ycsb.OpScan, w.ScanPct)
	return ks
}

// runWorkloads is the beyond-the-paper mode: any subset of YCSB A–F on
// every index, each cell unsharded (H=1) and sharded, with exact
// per-op-kind clwb/fence columns from a single-threaded attribution
// pass (see harness.Attribute) that must conserve bit-exactly
// against the aggregate counters.
func runWorkloads(list string, cfg config) {
	var wls []ycsb.Workload
	for _, n := range strings.Split(list, ",") {
		w, err := ycsb.ByName(strings.TrimSpace(n))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		wls = append(wls, w)
	}
	sharded := cfg.shards
	if sharded < 2 {
		sharded = 4
	}
	distNote := "per-workload default"
	if cfg.dist != nil {
		distNote = cfg.dist.Name()
	}
	mode := fmt.Sprintf("batch %d", cfg.batch)
	if cfg.async {
		q := cfg.queue
		if q < 1 {
			q = commit.DefaultQueue
		}
		mode = fmt.Sprintf("async · queue %d · batch %d · flush %v", q, cfg.batch, cfg.flush)
	}
	fmt.Printf("\n=== YCSB workloads %s · dist=%s · %d threads · load %d + run %d · H ∈ {1, %d} · %s ===\n",
		list, distNote, cfg.threads, cfg.loadN, cfg.opN, sharded, mode)
	orderedNames := append(append([]string{}, core.OrderedNames...), "WOART")
	for _, base := range wls {
		w := cfg.workloadFor(base)
		dist := "uniform"
		if w.Dist != nil {
			dist = w.Dist.Name()
		}
		fmt.Printf("\n-- Workload %s · %s · dist=%s · %s --\n", w.Name, w.Description, dist, w.AppPattern)
		kinds := kindsOf(w)
		fmt.Printf("%-14s %2s %9s %9s %7s", "Index", "H", "Mops/s", "fence/op", "imbal")
		if cfg.async {
			fmt.Printf(" %9s", "ack-ns")
		}
		for _, k := range kinds {
			fmt.Printf(" %12s %12s", "clwb/"+k.String(), "fence/"+k.String())
		}
		fmt.Println("   (imbal: max/mean per-shard op share; clwb/fence: exact single-thread attribution)")
		names := orderedNames
		if w.ScanPct == 0 {
			names = slices.Concat(orderedNames, core.HashNames)
		}
		for _, name := range names {
			for _, h := range []int{1, sharded} {
				c := cfg
				c.shards = h
				workloadCell(name, w, c, kinds)
			}
		}
		if w.ScanPct > 0 {
			fmt.Printf("%-14s (scan workload — unordered indexes skipped)\n", "hash indexes")
		}
	}
}

// attrSizes caps the attribution pass: it is single-threaded and
// snapshots counters around every op, so it runs at reduced scale.
func attrSizes(cfg config) (loadN, opN int) {
	return min(cfg.loadN, 20_000), min(cfg.opN, 10_000)
}

// ffDataLoss recognises the §3 data-loss class the paper reports for
// FAST & FAIR under concurrent insert storms (see
// fastfair.TestKnownIssueConcurrentLoadLoss): a cell that hits it is
// skipped, not failed.
func ffDataLoss(name string, shards int, err error) bool {
	if name != "FAST & FAIR" || !strings.Contains(err.Error(), "read id") {
		return false
	}
	fmt.Printf("%-14s %2d %9s  skipped: known FAST & FAIR data-loss class under concurrency\n", name, shards, "-")
	return true
}

// workloadCell runs one -workloads cell: a multi-threaded throughput
// run through the selected write path (with the per-shard counter
// conservation guard) plus the attribution pass on a fresh front-end,
// then prints one row.
func workloadCell(name string, w ycsb.Workload, cfg config, kinds []ycsb.OpKind) {
	if cfg.reshard && cfg.shards > 1 {
		reshardCell(name, w, cfg)
		return
	}
	m := newFrontend(name, keys.RandInt, cfg)
	before := m.ShardStats()
	aggBefore := m.Stats()
	res, err := harness.Run(name, m.Target, cfg.path(), w, cfg.loadN, cfg.opN, cfg.threads, cfg.seed, true)
	if err != nil {
		m.Release()
		if ffDataLoss(name, cfg.shards, err) {
			return
		}
		fmt.Fprintf(os.Stderr, "\n%s/%s: %v\n", name, w.Name, err)
		os.Exit(1)
	}
	checkConservation(name, w.Name, m.Stats().Sub(aggBefore), m.ShardStats(), before)
	imbal := cellImbalance(m.LoadReport(), cfg)
	m.Release()

	am := newFrontend(name, keys.RandInt, cfg)
	attrLoadN, attrOpN := attrSizes(cfg)
	attr, err := harness.Attribute(am.Target, cfg.path(), w, attrLoadN, attrOpN, cfg.seed+1)
	am.Release()
	if err != nil {
		fmt.Fprintf(os.Stderr, "\n%s/%s attribution: %v\n", name, w.Name, err)
		os.Exit(1)
	}
	if !attr.Conserves() {
		fmt.Fprintf(os.Stderr, "\n%s/%s: per-op-kind stats do not conserve against aggregate counters\n", name, w.Name)
		os.Exit(1)
	}
	printWorkloadRow(name, cfg, res, attr, kinds, imbal)
}

// cellImbalance condenses a cell's LoadReport into the imbal column:
// the max/mean per-shard share of every op the cell routed (load and
// run phases both count). Unsharded rows report NaN (printed "-") —
// one shard is trivially balanced.
func cellImbalance(rep shard.LoadReport, cfg config) float64 {
	if cfg.shards < 2 {
		return math.NaN()
	}
	return rep.Imbalance()
}

// reshardCell is the -reshard variant of a sharded cell: load, close
// the load epoch, run half the ops against the static partition,
// rebalance under live routing, run the rest against the flipped table,
// and print both phases' throughput and run-phase imbalance. The
// aggregate-vs-per-shard conservation guard brackets the whole cell, so
// it also proves Stats() conserves across the migration's cross-heap
// copies.
func reshardCell(name string, w ycsb.Workload, cfg config) {
	m := newFrontend(name, keys.RandInt, cfg)
	defer m.Release()
	check(m.EnableResharding())
	before := m.ShardStats()
	aggBefore := m.Stats()
	half := cfg.opN / 2
	phase := func(loadN, opN int, seed int64, load bool) harness.Result {
		res, err := harness.Run(name, m.Target, harness.WritePath{}, w, loadN, opN, cfg.threads, seed, load)
		if err != nil {
			fmt.Fprintf(os.Stderr, "\n%s/%s: %v\n", name, w.Name, err)
			os.Exit(1)
		}
		return res
	}
	if _, err := harness.Run(name, m.Target, harness.WritePath{}, w, cfg.loadN, 0, cfg.threads, cfg.seed, true); err != nil {
		if ffDataLoss(name, cfg.shards, err) {
			return
		}
		fmt.Fprintf(os.Stderr, "\n%s/%s: %v\n", name, w.Name, err)
		os.Exit(1)
	}
	m.LoadReport() // close the load epoch; imbalance below is run-phase only
	pre := phase(cfg.loadN, half, cfg.seed, false)
	imbPre := m.LoadReport().Imbalance()
	rb, err := m.Rebalance(shard.RebalanceOptions{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "\n%s/%s rebalance: %v\n", name, w.Name, err)
		os.Exit(1)
	}
	// Phase-2 inserts must start past phase 1's so fresh IDs stay fresh.
	post := phase(cfg.loadN+pre.Inserts, cfg.opN-half, cfg.seed+7, false)
	imbPost := m.LoadReport().Imbalance()
	checkConservation(name, w.Name, m.Stats().Sub(aggBefore), m.ShardStats(), before)
	printReshardRow(name, cfg, pre, post, imbPre, imbPost, len(rb.Moves))
}

// printReshardRow prints one -reshard cell: throughput and run-phase
// max/mean per-shard op share on each side of the mid-cell rebalance,
// plus how many slot/span moves the rebalancer committed.
func printReshardRow(name string, cfg config, pre, post harness.Result, imbPre, imbPost float64, moves int) {
	fmt.Printf("%-14s %2d   pre %8.3f Mops/s imbal %5.2f | rebalance ×%d | post %8.3f Mops/s imbal %5.2f\n",
		name, cfg.shards, pre.MopsPerSec(), imbPre, moves, post.MopsPerSec(), imbPost)
}

// printWorkloadRow prints one -workloads table row: throughput, the
// measured run phase's aggregate fences per op, in async mode the mean
// enqueue-to-ack latency, plus the attributed clwb/fence per op of
// each kind in the mix.
func printWorkloadRow(name string, cfg config, res harness.Result, attr harness.Attribution, kinds []ycsb.OpKind, imbal float64) {
	fencePerOp := 0.0
	if res.Ops > 0 {
		fencePerOp = float64(res.Stats.Fence) / float64(res.Ops)
	}
	fmt.Printf("%-14s %2d %9.3f %9.2f", name, cfg.shards, res.MopsPerSec(), fencePerOp)
	if math.IsNaN(imbal) {
		fmt.Printf(" %7s", "-")
	} else {
		fmt.Printf(" %7.2f", imbal)
	}
	if cfg.async {
		fmt.Printf(" %9d", res.MeanAckLatency().Nanoseconds())
	}
	for _, k := range kinds {
		fmt.Printf(" %12.2f %12.2f", attr.ClwbPer(k), attr.FencePer(k))
	}
	fmt.Println()
}

func runWOART(cfg config) {
	fmt.Printf("\n=== §7.3: P-ART vs WOART (global lock), integer keys, %d threads, %d shard(s) ===\n",
		cfg.threads, cfg.shards)
	fmt.Printf("%-8s", "Index")
	for _, w := range ycsb.All {
		fmt.Printf(" %10s", w.Name)
	}
	fmt.Println("   (Mops/s)")
	for _, name := range []string{"P-ART", "WOART"} {
		fmt.Printf("%-8s", name)
		for _, w := range ycsb.All {
			fmt.Printf(" %10.3f", cell(name, keys.RandInt, w, cfg).MopsPerSec())
		}
		fmt.Println()
	}
}
