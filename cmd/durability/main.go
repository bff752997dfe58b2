// Command durability runs the §5 durability test in isolation: it loads
// each index with traced allocations/stores/flushes (the shadow-tracker
// analogue of the paper's PIN tracing) and verifies that every dirtied
// cache line is written back and fenced by the time each operation
// returns. The Faithful modes reproduce the §7.5 finding that FAST & FAIR
// and CCEH fail to persist the initial node allocation.
//
// With -sites (the default) it also runs the per-crash-site durability
// campaign: for every crash site the load passes through, crash there,
// recover, and verify the recovery and repair write paths flush
// everything they dirty. The per-site trials are independent Track-mode
// heaps, so they fan out across -workers goroutines; the report is
// collected in site order and is identical for any worker count.
//
// -model lossy switches to the adversarial power-failure campaign: at
// every crash site the heap materialises a true post-power-loss image
// (stores never written back revert; unfenced write-backs follow
// -policy: revert, keep, torn, or all three), then recovery runs
// against that image and a full-dataset readback classifies each site
// CLEAN, PARTIAL (unacknowledged in-flight op vanished), LOST-ACK
// (acknowledged write missing — a real durability bug), or CORRUPT.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/harness"
	"repro/internal/keys"
	"repro/internal/pmem"
)

// indexes are the nine campaign subjects: the Fig 4 five plus WOART,
// then the three hash tables.
var indexes = []string{"P-ART", "P-HOT", "P-BwTree", "P-Masstree", "FAST & FAIR", "WOART", "P-CLHT", "CCEH", "Level Hashing"}

func main() {
	n := flag.Int("ops", 5000, "traced insert operations per index")
	sites := flag.Bool("sites", true, "also run the per-crash-site durability campaign")
	postOps := flag.Int("postops", 2000, "traced post-crash inserts per crash site")
	workers := flag.Int("workers", 0, "worker goroutines for the per-site campaign (0 = GOMAXPROCS)")
	model := flag.String("model", "tracker", "failure model: tracker (flush-coverage) or lossy (power-failure images)")
	policyFlag := flag.String("policy", "all", "lossy cycle policy for unfenced write-backs: revert, keep, torn, or all")
	seed := flag.Int64("seed", 42, "campaign seed (lossy model; torn coin flips derive from it)")
	batch := flag.Int("batch", 1, "group-commit batch size for the campaigns' write path (1 = per-op fences; >1 crashes inside fence-coalesced group commits too)")
	async := flag.Bool("async", false, "route campaign writes through the async commit pipeline (enqueue + ack-after-fence futures; -batch sets the committer's queue and drain size) and crash inside its drain loop too")
	flag.Parse()
	if *batch < 1 {
		fmt.Fprintf(os.Stderr, "-batch must be >= 1, got %d\n", *batch)
		os.Exit(2)
	}
	if *async && *batch < 2 {
		// A 1-deep queue acks per op; the interesting async crashes need
		// multi-op batches in flight, so default to the group size the
		// batched campaigns use.
		*batch = 8
	}
	path := harness.PathFromFlags(*batch, *async, 0, 0)
	// label names the write path in the section headers.
	label := ""
	switch path.Mode {
	case harness.Async:
		label = fmt.Sprintf(" (async commit pipeline, queue/batch %d)", *batch)
	case harness.Batched:
		label = fmt.Sprintf(" (batched, group size %d)", *batch)
	}

	switch *model {
	case "tracker":
	case "lossy":
		runLossy(*policyFlag, *seed, *n, *postOps, *workers, path, label)
		return
	default:
		fmt.Fprintf(os.Stderr, "unknown -model %q (want tracker or lossy)\n", *model)
		os.Exit(2)
	}

	fmt.Printf("=== §5 durability test: %d traced inserts per index ===\n\n", *n)
	for _, name := range indexes {
		fmt.Println(harness.Durability(name, harness.ByName(name, keys.YCSBString), *n))
	}

	fmt.Println("\nFaithful modes (FAIL expected — the §7.5 unpersisted-allocation finding):")
	controlsFailed := true
	for _, rep := range []harness.DurabilityReport{
		harness.Durability("FF-faithful", harness.FaithfulFF, *n),
		harness.Durability("CCEH-faithful", harness.FaithfulCCEH, *n),
	} {
		fmt.Println(rep)
		controlsFailed = controlsFailed && !rep.Pass()
	}

	if *sites {
		fmt.Printf("\n=== §5 durability across crash sites%s: crash, recover, %d traced post-crash inserts per site ===\n\n", label, *postOps)
		for _, name := range indexes {
			printSites(harness.DurabilitySites(name, harness.ByName(name, keys.RandInt), path, *n, *postOps, *workers))
		}
	}
	exitIfControlPassed(controlsFailed)
}

// exitIfControlPassed makes a negative control that stopped failing an
// error: a control that cannot fail controls nothing.
func exitIfControlPassed(controlsFailed bool) {
	if !controlsFailed {
		fmt.Fprintln(os.Stderr, "a row labelled FAIL expected passed: the negative control no longer detects its bug")
		os.Exit(1)
	}
}

// runLossy drives every index through the lossy power-failure campaign
// under the selected policies and write path, then replays the Faithful
// FAST & FAIR mode on the sync path as a negative control: its missing
// initial-allocation persist must surface as LOST-ACK/CORRUPT under the
// revert policy.
func runLossy(policyFlag string, seed int64, loadN, postN, workers int, path harness.WritePath, label string) {
	policies := pmem.Policies
	if policyFlag != "all" {
		p, err := pmem.ParsePolicy(policyFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		policies = []pmem.Policy{p}
	}

	acks := ""
	if path.Mode == harness.Async {
		acks = " per-future acks"
	}
	fmt.Printf("=== lossy power-failure campaign%s: crash at every site, power-cycle, recover, verify%s (seed %d) ===\n\n", label, acks, seed)
	failed := false
	for _, policy := range policies {
		for _, name := range indexes {
			rep := harness.LossyCampaign(name, harness.ByName(name, keys.RandInt), path, policy, seed, loadN, postN, workers)
			failed = printLossy(rep) || failed
		}
		fmt.Println()
	}

	fmt.Println("Faithful mode under revert (FAIL expected — the unpersisted allocation becomes observable loss):")
	control := harness.LossyCampaign("FF-faithful", harness.FaithfulFF, harness.WritePath{}, pmem.PolicyRevert, seed, loadN, postN, workers)
	exitIfControlPassed(printLossy(control))

	if failed {
		os.Exit(1)
	}
}

// printLossy prints the campaign summary plus one row per losing site,
// and reports whether the campaign found real loss.
func printLossy(rep harness.LossyCampaignReport) bool {
	fmt.Println(rep.String())
	for _, s := range rep.Sites {
		if s.Outcome == harness.OutcomeLostAck || s.Outcome == harness.OutcomeCorrupt {
			fmt.Printf("    %-28s %v lostAcks=%d %s\n", s.Site, s.Outcome, s.LostAcks, s.Detail)
		}
	}
	return !rep.Pass()
}

// printSites prints the campaign summary, with per-site rows only for
// sites that found something (the common all-PASS case stays one line).
func printSites(rep harness.SiteCampaignReport) {
	fmt.Println(rep.String())
	for _, s := range rep.Sites {
		if s.RecoveryFailed || s.RecoveryViolations != 0 || s.OpViolations != 0 {
			fmt.Printf("    %-28s recoveryFail=%v recoveryViol=%d opViol=%d\n",
				s.Site, s.RecoveryFailed, s.RecoveryViolations, s.OpViolations)
		}
	}
}
