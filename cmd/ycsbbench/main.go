// Command ycsbbench reproduces the measured figures of RECIPE §7. The
// throughput experiments: Fig 4a (ordered indexes, integer keys), Fig 4b
// (ordered indexes, string keys), Fig 5 (hash indexes, integer keys),
// and the §7.3 P-ART vs WOART comparison. The performance-counter
// tables: Fig 4c, Fig 4d (ordered indexes, integer and string keys) and
// Table 4 (hash indexes) — average clwb and mfence instructions per
// insert and LLC misses per operation, where the paper's hardware
// counters (perf on a 32 MB LLC) are replaced by the simulated heap's
// exact clwb/fence counts and a set-associative LLC model. It prints one
// row per index with one column per YCSB workload, mirroring the
// figures' series. Beyond the paper, -workloads runs any subset of YCSB
// A–F (including the update-bearing D and F the paper skipped) on every
// index, unsharded and sharded, with exact per-op-kind clwb/fence
// attribution, and -dist/-theta select the request distribution
// (uniform — the paper's setup — zipfian, or read-latest).
//
// Usage:
//
//	go run ./cmd/ycsbbench -figure 4a -keys 1000000 -ops 1000000 -threads 16
//	go run ./cmd/ycsbbench -figure all                       # the throughput figures
//	go run ./cmd/ycsbbench -figure 4c -keys 200000 -ops 200000 -threads 4
//	go run ./cmd/ycsbbench -figure t4
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
// the ordered figures).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"

	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/keys"
	"repro/internal/pmem"
	"repro/internal/ycsb"
	"repro/shard"
)

// config carries the flag settings the runners need; each field is the
// flag of (nearly) the same name, documented there.
type config struct {
	loadN, opN, threads int
	seed                int64
	heap                pmem.Options
	shards              int
	part                shard.Partitioner
	llcKB               int
	// dist, when non-nil, overrides every workload's own request
	// distribution (uniform for the Table 3 rows, latest for D,
	// zipfian for F).
	dist ycsb.Distribution
	// path is the -workloads write path (-batch).
	path    harness.WritePath
	reshard bool
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
		figure     = flag.String("figure", "all", `which figure to run: throughput "4a", "4b", "5", "woart", or "all" of those; counters "4c", "4d" or "t4"`)
		loadN      = flag.Int("keys", 1_000_000, "keys loaded before the measured phase (paper: 64M)")
		opN        = flag.Int("ops", 1_000_000, "operations in the measured phase (paper: 64M)")
		threads    = flag.Int("threads", min(16, runtime.GOMAXPROCS(0)), "worker threads (paper: 16)")
		seed       = flag.Int64("seed", 42, "workload seed")
		clwbDelay  = flag.Int("clwbdelay", 40, "simulated PM write-back cost per clwb (busy-work units)")
		fenceDelay = flag.Int("fencedelay", 20, "simulated cost per fence (busy-work units)")
		shards     = flag.Int("shards", 1, "partitions in the sharded front-end (1 = one heap per cell; -workloads mode also always runs H=1)")
		partition  = flag.String("partition", "hash", `key partitioner for ordered figures with -shards > 1: "hash" or "range" (hash figures always route by hash)`)
		llcKB      = flag.Int("llckb", 0, "simulated LLC capacity in KB for -figure 4c|4d|t4 (paper machine: 32768 at 64M keys; 0 = 1 MB per 200K -keys)")
		batch      = flag.Int("batch", 1, "group-commit batch size for -workloads mode writes (1 = per-op fences; >1 coalesces each batch's trailing fences into one per shard)")
		workloads  = flag.String("workloads", "", `comma-separated YCSB workloads to run on every index, sharded and unsharded (e.g. "D,F" or "A,B,C,D,E,F"); empty = run -figure instead`)
		distName   = flag.String("dist", "", `request distribution override: "uniform", "zipfian" or "latest"; empty = each workload's default (uniform; latest for D, zipfian for F)`)
		theta      = flag.Float64("theta", ycsb.DefaultTheta, "skew parameter in (0,1) for -dist zipfian/latest")
		reshard    = flag.Bool("reshard", false, "-workloads mode: run the load-aware rebalancer mid-cell on sharded rows and report before/after throughput and per-shard imbalance")
	)
	flag.Parse()
	thetaSet := false
	flag.Visit(func(f *flag.Flag) { thetaSet = thetaSet || f.Name == "theta" })
	part, ok := shard.ByName(*partition)
	if !ok {
		usage("unknown partitioner %q (want hash or range)", *partition)
	}
	if *shards < 1 {
		usage("-shards must be >= 1, got %d", *shards)
	}
	var dist ycsb.Distribution
	if *distName != "" {
		var err error
		if dist, err = ycsb.DistributionByName(*distName, *theta); err != nil {
			usage("%v", err)
		}
	}
	cfg := config{
		loadN: *loadN, opN: *opN, threads: *threads, seed: *seed,
		heap:   pmem.Options{DelayClwb: *clwbDelay, DelayFence: *fenceDelay},
		shards: *shards, part: part, llcKB: *llcKB, dist: dist,
		path: harness.WritePath{Batch: *batch}, reshard: *reshard,
	}
	figs := []string{*figure}
	if *figure == "all" {
		figs = []string{"4a", "4b", "5", "woart"}
	}
	switch {
	case *loadN < 1:
		usage("-keys must be >= 1, got %d", *loadN)
	case *opN < 1:
		usage("-ops must be >= 1, got %d", *opN)
	case *threads < 1:
		usage("-threads must be >= 1, got %d", *threads)
	case *llcKB < 0:
		usage("-llckb must be >= 0, got %d", *llcKB)
	case *clwbDelay < 0:
		usage("-clwbdelay must be >= 0, got %d", *clwbDelay)
	case *fenceDelay < 0:
		usage("-fencedelay must be >= 0, got %d", *fenceDelay)
	case thetaSet && *distName != "zipfian" && *distName != "latest":
		usage("-theta applies only to -dist zipfian or latest")
	case *batch < 1:
		usage("-batch must be >= 1, got %d", *batch)
	case (*batch > 1 || cfg.reshard) && *workloads == "":
		usage("-batch > 1 and -reshard require -workloads (the figure runners measure the paper's per-op write path)")
	}
	if *workloads != "" {
		runWorkloads(*workloads, cfg)
		return
	}
	for _, name := range figs {
		f, ok := figures[name]
		if !ok {
			usage("unknown figure %q", name)
		}
		if f.counters && cfg.shards > 1 {
			// Every shard's heap numbers its lines from 1, so one LLC model
			// behind several would take different lines for the same one.
			usage("-figure 4c|4d|t4 require -shards 1 (one LLC models one heap's lines)")
		}
		f.run(cfg)
	}
}

// usage reports a flag error and exits 2.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}

// sharded is what a cell needs of the front-end beyond running
// workloads on it: the load view and the live rebalancer. shard.Ordered
// and shard.Hash both provide it.
type sharded interface {
	LoadReport() shard.LoadReport
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
		Shards: cfg.shards, Partitioner: cfg.part, Heap: cfg.heap,
	})
	check(err)
	return frontend{m, harness.ShardedOrdered(m, kind)}
}

// fatalf reports a failed cell and exits 1.
func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "\n"+format+"\n", args...)
	os.Exit(1)
}

func check(err error) {
	if err != nil {
		fatalf("%v", err)
	}
}

// cell runs one (index, workload) figure measurement through the
// sharded front-end on the paper's per-op write path.
func cell(name string, kind keys.Kind, w ycsb.Workload, cfg config) harness.Result {
	w = cfg.workloadFor(w)
	m := newFrontend(name, kind, cfg)
	defer m.Release()
	res, err := harness.Run(name, m.Target, harness.WritePath{}, w, cfg.loadN, cfg.opN, cfg.threads, cfg.seed, true)
	if err != nil {
		fatalf("%s/%s: %v", name, w.Name, err)
	}
	return res
}

// hashWorkloads are the columns of Fig 5 and Table 4: hash tables do
// not scan, so no E.
var hashWorkloads = []ycsb.Workload{ycsb.LoadA, ycsb.A, ycsb.B, ycsb.C}

// figure is one table of the paper's §7: a row per index, a column per
// workload. A throughput figure prints Mops/s. A counter figure's
// workloads start with Load A, the pure-insert load, whose cell gives
// the clwb and mfence columns (the paper reports instruction counts per
// insert); every cell, on a cold LLC of its own, gives that workload's
// misses per op.
type figure struct {
	title    string
	names    []string
	kind     keys.Kind
	wls      []ycsb.Workload
	counters bool
}

var figures = map[string]figure{
	"4a":    {"Fig 4a: ordered indexes", core.OrderedNames, keys.RandInt, ycsb.All, false},
	"4b":    {"Fig 4b: ordered indexes", core.OrderedNames, keys.YCSBString, ycsb.All, false},
	"5":     {"Fig 5: hash indexes", core.HashNames, keys.RandInt, hashWorkloads, false},
	"woart": {"§7.3: P-ART vs WOART (global lock)", []string{"P-ART", "WOART"}, keys.RandInt, ycsb.All, false},
	"4c":    {"Fig 4c: performance counters, ordered indexes", core.OrderedNames, keys.RandInt, ycsb.All, true},
	"4d":    {"Fig 4d: performance counters, ordered indexes", core.OrderedNames, keys.YCSBString, ycsb.All, true},
	"t4":    {"Table 4: performance counters, hash indexes", core.HashNames, keys.RandInt, hashWorkloads, true},
}

func (f figure) run(cfg config) {
	// The paper's 64M-key working set dwarfs its 32 MB LLC; a scaled-down
	// run must scale the simulated LLC too or every access hits. 1 MB per
	// 200K keys keeps the ratio comparable.
	llcKB := cfg.llcKB
	if llcKB == 0 {
		llcKB = max(1, cfg.loadN*1024/200_000)
	}
	part := cfg.part.Name()
	if slices.Contains(core.HashNames, f.names[0]) {
		part = "hash"
	}
	fmt.Printf("\n=== %s, %s keys, %d threads, %d shard(s) (%s), load %d + run %d ===\n",
		f.title, f.kind, cfg.threads, cfg.shards, part, cfg.loadN, cfg.opN)
	head, unit, width := "Index", "(Mops/s)", 10
	if f.counters {
		head = fmt.Sprintf("%-14s %6s %7s |", "PM Index", "clwb", "mfence")
		unit, width = fmt.Sprintf("(insert instr | LLC miss/op, %d KB LLC)", llcKB), 7
	}
	fmt.Printf("%-14s", head)
	for _, w := range f.wls {
		fmt.Printf(" %*s", width, w.Name)
	}
	fmt.Println("   " + unit)
	for _, name := range f.names {
		fmt.Printf("%-14s", name)
		for i, w := range f.wls {
			if !f.counters {
				fmt.Printf(" %10.3f", cell(name, f.kind, w, cfg).MopsPerSec())
				continue
			}
			cfg.heap.LLC = cachesim.New(cachesim.Config{CapacityBytes: llcKB << 10, Ways: 16})
			res := cell(name, f.kind, w, cfg)
			if i == 0 {
				fmt.Printf(" %6.1f %7.1f |", res.ClwbPerInsert(), res.FencePerInsert())
			}
			fmt.Printf(" %7.1f", res.LLCMissPerOp())
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
			usage("%v", err)
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
	fmt.Printf("\n=== YCSB workloads %s · dist=%s · %d threads · load %d + run %d · H ∈ {1, %d} · batch %d ===\n",
		list, distNote, cfg.threads, cfg.loadN, cfg.opN, sharded, cfg.path.Batch)
	attrLoadN, attrOpN := attrSizes(cfg)
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
		for _, k := range kinds {
			fmt.Printf(" %12s %12s", "clwb/"+k.String(), "fence/"+k.String())
		}
		fmt.Printf("   (imbal: max/mean per-shard op share; clwb/fence: exact single-thread attribution at %d keys + %d ops)\n", attrLoadN, attrOpN)
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

// workloadCell runs one -workloads cell: a multi-threaded throughput
// run through the selected write path plus the attribution pass on a
// fresh front-end, then prints one row.
func workloadCell(name string, w ycsb.Workload, cfg config, kinds []ycsb.OpKind) {
	if cfg.reshard && cfg.shards > 1 {
		reshardCell(name, w, cfg)
		return
	}
	m := newFrontend(name, keys.RandInt, cfg)
	res, err := harness.Run(name, m.Target, cfg.path, w, cfg.loadN, cfg.opN, cfg.threads, cfg.seed, true)
	if err != nil {
		m.Release()
		fatalf("%s/%s: %v", name, w.Name, err)
	}
	imbal := "-" // one shard is trivially balanced
	if cfg.shards > 1 {
		// max/mean per-shard share of every op routed, load phase included.
		imbal = fmt.Sprintf("%.2f", m.LoadReport().Imbalance())
	}
	m.Release()

	am := newFrontend(name, keys.RandInt, cfg)
	attrLoadN, attrOpN := attrSizes(cfg)
	attr, err := harness.Attribute(am.Target, cfg.path, w, attrLoadN, attrOpN, cfg.seed+1)
	am.Release()
	if err != nil {
		fatalf("%s/%s attribution: %v", name, w.Name, err)
	}
	if !attr.Conserves() {
		fatalf("%s/%s: per-op-kind stats do not conserve against aggregate counters", name, w.Name)
	}
	printWorkloadRow(name, cfg, res, attr, kinds, imbal)
}

// reshardCell is the -reshard variant of a sharded cell: load, close
// the load epoch, run half the ops against the static partition,
// rebalance under live routing, run the rest against the flipped table,
// and print both phases' throughput and run-phase imbalance.
func reshardCell(name string, w ycsb.Workload, cfg config) {
	m := newFrontend(name, keys.RandInt, cfg)
	defer m.Release()
	half := cfg.opN / 2
	phase := func(loadN, opN int, seed int64, load bool) harness.Result {
		res, err := harness.Run(name, m.Target, cfg.path, w, loadN, opN, cfg.threads, seed, load)
		if err != nil {
			fatalf("%s/%s: %v", name, w.Name, err)
		}
		return res
	}
	if _, err := harness.Run(name, m.Target, cfg.path, w, cfg.loadN, 0, cfg.threads, cfg.seed, true); err != nil {
		fatalf("%s/%s: %v", name, w.Name, err)
	}
	m.LoadReport() // close the load epoch; imbalance below is run-phase only
	pre := phase(cfg.loadN, half, cfg.seed, false)
	imbPre := m.LoadReport().Imbalance()
	rb, err := m.Rebalance(shard.RebalanceOptions{})
	if err != nil {
		fatalf("%s/%s rebalance: %v", name, w.Name, err)
	}
	// Phase-2 inserts must start past phase 1's so fresh IDs stay fresh.
	post := phase(cfg.loadN+pre.Inserts, cfg.opN-half, cfg.seed+7, false)
	imbPost := m.LoadReport().Imbalance()
	fmt.Printf("%-14s %2d   pre %8.3f Mops/s imbal %5.2f | rebalance ×%d | post %8.3f Mops/s imbal %5.2f\n",
		name, cfg.shards, pre.MopsPerSec(), imbPre, len(rb.Moves), post.MopsPerSec(), imbPost)
}

// printWorkloadRow prints one -workloads table row: throughput, the
// measured run phase's aggregate fences per op, plus the attributed
// clwb/fence per op of each kind in the mix.
func printWorkloadRow(name string, cfg config, res harness.Result, attr harness.Attribution, kinds []ycsb.OpKind, imbal string) {
	fencePerOp := 0.0
	if res.Ops > 0 {
		fencePerOp = float64(res.Stats.Fence) / float64(res.Ops)
	}
	fmt.Printf("%-14s %2d %9.3f %9.2f %7s", name, cfg.shards, res.MopsPerSec(), fencePerOp, imbal)
	for _, k := range kinds {
		fmt.Printf(" %12.2f %12.2f", attr.ClwbPer(k), attr.FencePer(k))
	}
	fmt.Println()
}
