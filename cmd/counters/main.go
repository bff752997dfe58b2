// Command counters reproduces RECIPE's low-level performance-counter
// tables: Fig 4c (ordered indexes, integer keys), Fig 4d (ordered
// indexes, string keys) and Table 4 (hash indexes): average clwb and
// mfence instructions per insert, and average LLC misses per operation
// for each YCSB workload. The hardware counters of the paper (perf on a
// 32 MB LLC) are replaced by the simulated heap's clwb/fence counts and
// the set-associative LLC model.
//
// Usage:
//
//	go run ./cmd/counters -figure 4c
//	go run ./cmd/counters -table 4
//	go run ./cmd/counters -all
//	go run ./cmd/counters -selftest
//
// -selftest verifies the striped instrumentation (internal/stripe)
// against the shared-atomics reference heap: aggregated Stats() totals
// must match serial expectations exactly under concurrency, and a
// deterministic single-thread index run must produce bit-identical
// counters on both heap implementations.
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"

	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/keys"
	"repro/internal/pmem"
	"repro/internal/ycsb"
)

func main() {
	var (
		figure   = flag.String("figure", "", `"4c" or "4d"`)
		table    = flag.Int("table", 0, "4 for Table 4")
		all      = flag.Bool("all", false, "run 4c, 4d and Table 4")
		selftest = flag.Bool("selftest", false, "verify striped counter totals against serial expectations and the shared-atomics reference heap")
		loadN    = flag.Int("keys", 200_000, "keys loaded before the measured phase")
		opN      = flag.Int("ops", 200_000, "operations in the measured phase")
		threads  = flag.Int("threads", 4, "worker threads")
		seed     = flag.Int64("seed", 42, "workload seed")
	)
	// The paper's 64M-key working set dwarfs its 32 MB LLC; a scaled-down
	// run must scale the simulated LLC too or every access hits. 1 MB per
	// 200K keys keeps the ratio comparable.
	flag.IntVar(&llcKB, "llckb", 1024, "simulated LLC capacity in KB (paper machine: 32768 at 64M keys)")
	flag.Parse()
	if *selftest {
		runSelftest(*threads, *seed)
		return
	}
	if *all {
		ordered(keys.RandInt, *loadN, *opN, *threads, *seed)
		ordered(keys.YCSBString, *loadN, *opN, *threads, *seed)
		table4(*loadN, *opN, *threads, *seed)
		return
	}
	switch {
	case *figure == "4c":
		ordered(keys.RandInt, *loadN, *opN, *threads, *seed)
	case *figure == "4d":
		ordered(keys.YCSBString, *loadN, *opN, *threads, *seed)
	case *table == 4:
		table4(*loadN, *opN, *threads, *seed)
	default:
		fmt.Fprintln(os.Stderr, "specify -figure 4c|4d, -table 4, -selftest, or -all")
		os.Exit(2)
	}
}

// runSelftest proves the striped instrumentation loses nothing: (1) a
// concurrent hammer on the raw heap must aggregate to exact serial
// totals; (2) a deterministic single-thread P-ART run must produce
// bit-identical Stats on the striped and shared-atomics heaps.
func runSelftest(threads int, seed int64) {
	if threads < 2 {
		threads = 4
	}
	fail := false

	// (1) Conservation under concurrency.
	h := pmem.NewFast()
	const per = 100_000
	const size = 100 // 2 lines -> 2 clwb per Persist
	var wg sync.WaitGroup
	for g := 0; g < threads; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				o := h.Alloc(size)
				h.Persist(o, 0, size)
				h.Fence()
			}
		}()
	}
	wg.Wait()
	s := h.Stats()
	n := uint64(threads) * per
	fmt.Printf("conservation: %d goroutines x %d ops -> clwb=%d fence=%d allocs=%d bytes=%d\n",
		threads, per, s.Clwb, s.Fence, s.Allocs, s.AllocBytes)
	if s.Clwb != 2*n || s.Fence != n || s.Allocs != n || s.AllocBytes != n*size {
		fmt.Printf("  FAIL: want clwb=%d fence=%d allocs=%d bytes=%d\n", 2*n, n, n, n*size)
		fail = true
	} else {
		fmt.Println("  OK: totals exactly match serial expectations")
	}

	// (2) Striped vs shared-atomics equality on a real index, single
	// thread so the op interleaving (and therefore every counter) is
	// deterministic.
	stats := func(sharedAtomics bool) pmem.Stats {
		heap := pmem.New(pmem.Options{SharedAtomics: sharedAtomics})
		return run("P-ART", keys.RandInt, heap, ycsb.A, 20_000, 20_000, 1, seed).Stats
	}
	striped, shared := stats(false), stats(true)
	fmt.Printf("striped heap:  %+v\n", striped)
	fmt.Printf("shared heap:   %+v\n", shared)
	if striped != shared {
		fmt.Println("  FAIL: striped and shared-atomics stats diverge")
		fail = true
	} else {
		fmt.Println("  OK: bit-identical counters on both heap implementations")
	}

	if fail {
		os.Exit(1)
	}
	fmt.Println("selftest PASS")
}

var llcKB int

func statsHeap() *pmem.Heap {
	return pmem.New(pmem.Options{LLC: cachesim.New(cachesim.Config{
		CapacityBytes: llcKB << 10,
		Ways:          16,
	})})
}

// run loads and measures one workload on the named index (ordered or
// unordered) built on heap, through the paper's per-op write path.
func run(name string, kind keys.Kind, heap *pmem.Heap, w ycsb.Workload, loadN, opN, threads int, seed int64) harness.Result {
	res, err := harness.Run(name, harness.ByName(name, kind)(heap), harness.WritePath{}, w, loadN, opN, threads, seed, true)
	check(err)
	return res
}

// ordered prints clwb/insert and fence/insert from Load A only — the
// paper reports instruction counts per insert — and LLC misses/op per
// workload.
func ordered(kind keys.Kind, loadN, opN, threads int, seed int64) {
	fig := "4c"
	if kind == keys.YCSBString {
		fig = "4d"
	}
	fmt.Printf("\n=== Fig %s: performance counters, ordered indexes, %s keys ===\n", fig, kind)
	fmt.Printf("%-12s %6s %7s |", "PM Index", "clwb", "mfence")
	for _, w := range ycsb.All {
		fmt.Printf(" %7s", w.Name)
	}
	fmt.Println("   (insert instr | LLC miss/op)")
	for _, name := range core.OrderedNames {
		// clwb/mfence per insert, measured on the pure-insert load (the
		// paper's per-insert columns).
		res := run(name, kind, statsHeap(), ycsb.LoadA, loadN, opN, threads, seed)
		fmt.Printf("%-12s %6.1f %7.1f |", name, res.ClwbPerInsert(), res.FencePerInsert())
		fmt.Printf(" %7.1f", res.LLCMissPerOp())
		for _, w := range []ycsb.Workload{ycsb.A, ycsb.B, ycsb.C, ycsb.E} {
			res := run(name, kind, statsHeap(), w, loadN, opN, threads, seed)
			fmt.Printf(" %7.1f", res.LLCMissPerOp())
		}
		fmt.Println()
	}
}

func table4(loadN, opN, threads int, seed int64) {
	fmt.Printf("\n=== Table 4: performance counters, hash indexes, integer keys ===\n")
	fmt.Printf("%-14s %6s %7s |", "PM Index", "clwb", "mfence")
	hashWorkloads := []ycsb.Workload{ycsb.LoadA, ycsb.A, ycsb.B, ycsb.C}
	for _, w := range hashWorkloads {
		fmt.Printf(" %7s", w.Name)
	}
	fmt.Println("   (insert instr | LLC miss/op)")
	for _, name := range core.HashNames {
		res := run(name, keys.RandInt, statsHeap(), ycsb.LoadA, loadN, opN, threads, seed)
		fmt.Printf("%-14s %6.1f %7.1f |", name, res.ClwbPerInsert(), res.FencePerInsert())
		fmt.Printf(" %7.1f", res.LLCMissPerOp())
		for _, w := range hashWorkloads[1:] {
			res := run(name, keys.RandInt, statsHeap(), w, loadN, opN, threads, seed)
			fmt.Printf(" %7.1f", res.LLCMissPerOp())
		}
		fmt.Println()
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
