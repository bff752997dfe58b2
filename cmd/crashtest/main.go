// Command crashtest reproduces §5/§7.5: for every index it generates N
// crash states (probabilistic crashes during a write-heavy load), runs a
// multi-threaded mixed phase after recovery, and reads back every
// successfully inserted key. RECIPE-converted indexes must pass with no
// lost keys; the Faithful modes of FAST & FAIR and CCEH reproduce the
// published bugs (reported as FAIL rows, which is the expected outcome —
// the paper's finding, not a defect of the harness — and the command
// exits non-zero if one of those negative controls ever passes).
//
// Usage:
//
//	go run ./cmd/crashtest                 # paper scale-down: 200 states
//	go run ./cmd/crashtest -states 10000   # the paper's 10K states
//	go run ./cmd/crashtest -shards 8       # per-shard recovery campaign width
//
// The sharded section arms a crash in one shard of an H-shard front-end
// and requires recovery to replay only that shard (extraReplays must be
// 0) with no committed key lost anywhere.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/harness"
	"repro/internal/keys"
	"repro/internal/pmem"
)

func main() {
	var (
		states  = flag.Int("states", 200, "crash states per index (paper: 10000)")
		loadN   = flag.Int("load", 10_000, "entries loaded while crashes are armed (paper: 10000)")
		mixedN  = flag.Int("mixed", 10_000, "mixed post-crash operations (paper: 10000)")
		threads = flag.Int("threads", 4, "threads in the mixed phase (paper: 4)")
		shards  = flag.Int("shards", 4, "front-end width for the per-shard recovery campaign")
	)
	flag.Parse()
	if *shards < 1 {
		fmt.Fprintf(os.Stderr, "-shards must be >= 1, got %d\n", *shards)
		os.Exit(2)
	}
	campaign := func(name string) harness.CrashReport {
		return harness.CrashCampaign(name, harness.ByName(name, keys.RandInt), *states, *loadN, *mixedN, *threads)
	}

	fmt.Printf("=== §7.5 crash-recovery testing: %d states, load %d, mixed %d x %d threads ===\n\n",
		*states, *loadN, *mixedN, *threads)

	fmt.Println("RECIPE-converted indexes (must pass):")
	for _, name := range []string{"P-ART", "P-HOT", "P-BwTree", "P-Masstree", "P-CLHT"} {
		fmt.Println("  " + campaign(name).String())
	}

	// FAST & FAIR can lose keys here: §3 reports a data-loss design bug
	// in its split protocol under concurrent writes, and this campaign
	// (crash + concurrent post-crash writers) reproduces that class of
	// failure even with the durability fix applied — when the racing
	// writers happen to interleave that way, so the row is not a
	// deterministic control. CCEH's Fixed mode passes.
	fmt.Println("\nHand-crafted baselines (FAST & FAIR may FAIL — the §3 data-loss class, timing-dependent):")
	fmt.Println("  " + campaign("FAST & FAIR").String())
	fmt.Println("  " + campaign("CCEH").String())

	fmt.Printf("\nSharded front-end, %d shards (crash in shard k must replay only shard k):\n", *shards)
	for _, name := range []string{"P-ART", "P-Masstree"} {
		rep := harness.CrashCampaignSharded(name, keys.RandInt, *shards, *states, *loadN, *mixedN, *threads)
		fmt.Println("  " + rep.String())
	}

	fmt.Println("\nLossy power-failure images (crash at every site, power-cycle, recover, verify;")
	fmt.Println("PARTIAL = unacked in-flight op vanished atomically, LOST-ACK/CORRUPT = real bug):")
	for _, policy := range pmem.Policies {
		for _, name := range []string{"P-ART", "P-Masstree"} {
			rep := harness.LossyCampaign(name, harness.ByName(name, keys.RandInt), harness.WritePath{}, policy, 42, 500, 50, 0)
			fmt.Println("  " + rep.String())
		}
	}

	// The probabilistic campaign above almost never lands a crash inside
	// the directory-doubling window, so the published CCEH bug is driven
	// through the per-site sweep instead: it crashes once at every site
	// the load passes through, cceh.double.swapped included, where the
	// Faithful update order leaves pointer and depth torn and recovery
	// stalls (recoveryFail).
	controlsFailed := true
	fmt.Println("\nPublished-bug reproductions (FAIL expected — §3/§7.5 findings):")
	cf := harness.DurabilitySites("CCEH-faithful", harness.FaithfulCCEH, harness.WritePath{}, *loadN, 50, 0)
	fmt.Println("  " + cf.String() + "  (directory-doubling metadata torn -> stalls)")
	controlsFailed = controlsFailed && !cf.Pass()

	fmt.Println("\nDurability (§5: every dirtied line flushed; FAIL rows reproduce the")
	fmt.Println("unpersisted-initial-allocation finding):")
	for _, name := range []string{"P-ART", "P-HOT", "P-BwTree", "P-Masstree", "P-CLHT"} {
		fmt.Println("  " + harness.Durability(name, harness.ByName(name, keys.YCSBString), 2000).String())
	}
	for _, rep := range []harness.DurabilityReport{
		harness.Durability("FF-faithful", harness.FaithfulFF, 2000),
		harness.Durability("CCEH-faithful", harness.FaithfulCCEH, 2000),
	} {
		fmt.Println("  " + rep.String() + "  (initial allocation unpersisted — §7.5 finding)")
		controlsFailed = controlsFailed && !rep.Pass()
	}

	if !controlsFailed {
		fmt.Fprintln(os.Stderr, "a row labelled FAIL expected passed: the negative control no longer detects its bug")
		os.Exit(1)
	}
}
