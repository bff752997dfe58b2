package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/harness"
)

// campaign runs the command in-process.
func campaign(args ...string) (status int, stdout, stderr string) {
	var out, errs bytes.Buffer
	status = run(args, &out, &errs)
	return status, out.String(), errs.String()
}

// swap replaces a package-level table for the duration of the test.
func swap[T any](t *testing.T, table *T, with T) {
	old := *table
	*table = with
	t.Cleanup(func() { *table = old })
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"durability"},
		{"lossy"},
		{"sites", "-batch", "0"},
		{"crash", "-shards", "0"},
		{"crash", "-batch", "8"},
		{"sites", "-policy", "shredded"},
		// A campaign that fires no trial checks nothing.
		{"crash", "-states", "0", "-ops", "10", "-postops", "1"},
		{"crash", "-ops", "0"},
		{"sites", "-ops", "0", "-postops", "0", "-policy", "intact"},
		{"coverage", "-ops", "0"},
		{"sites", "-ops", "50", "-postops", "-3", "-policy", "intact"},
		{"crash", "-threads", "0"},
		{"crash", "-threads", "-2"},
	} {
		status, stdout, stderr := campaign(args...)
		if status != 2 || !strings.Contains(stderr, usage) || stdout != "" {
			t.Errorf("campaign %q: status %d, stdout %q, stderr %q; want 2, nothing on stdout and the usage line", args, status, stdout, stderr)
		}
	}
	for _, flag := range []string{"-nosuchflag", "-sites", "-mixed", "-async"} {
		if status, _, _ := campaign("sites", flag); status != 2 {
			t.Errorf("unknown flag %s: status %d, want 2", flag, status)
		}
	}
}

// TestVacuousRowsBreak: a row that fired no trial breaks the report
// whichever verdict it must have — an empty must-pass row does not
// pass, and a control whose only trial failed before its crash fired
// does not fail.
func TestVacuousRowsBreak(t *testing.T) {
	unfired := harness.CampaignReport{Index: "unfired", Sites: []harness.SiteReport{
		{Site: "state 0", Verdict: harness.Verdict{Outcome: harness.OutcomeCorrupt, Detail: "migration failed without a crash"}},
	}}
	for name, row := range map[string]func(*rows){
		"must-pass, no trials":       func(r *rows) { r.mustPass(harness.CampaignReport{Index: "empty"}) },
		"FAIL-expected, none fired":  func(r *rows) { r.mustFail(unfired) },
		"FAIL-expected, no trials":   func(r *rows) { r.mustFail(harness.CampaignReport{Index: "empty"}) },
		"must-pass, unfired failing": func(r *rows) { r.mustPass(unfired) },
	} {
		var out, errs bytes.Buffer
		r := &rows{out: &out, errs: &errs}
		row(r)
		if !r.broken || !strings.Contains(errs.String(), "fired no trial") {
			t.Errorf("%s: broken %v, stderr %q; want broken, naming the empty row", name, r.broken, errs.String())
		}
	}
}

// TestLossyReport drives one whole subcommand under a lossy image: nine
// must-pass rows, both controls failing as they must — FF-faithful
// CORRUPT under revert, CCEH-faithful under intact at exactly its stall
// site — exit 0.
func TestLossyReport(t *testing.T) {
	status, stdout, stderr := campaign("sites", "-policy", "torn", "-seed", "42", "-ops", "120", "-postops", "10")
	if status != 0 || stderr != "" {
		t.Fatalf("status %d, stderr %q; want 0 and silence\n%s", status, stderr, stdout)
	}
	lines := strings.Split(stdout, "\n")
	for _, s := range subjects {
		n := 0
		for _, l := range lines {
			if strings.HasPrefix(l, s.name+" ") && strings.Contains(l, "policy=torn") && strings.HasSuffix(l, "PASS") {
				n++
			}
		}
		if n != 1 {
			t.Errorf("%d PASS rows for %s under torn, want 1\n%s", n, s.name, stdout)
		}
	}
	ff, cceh := false, false
	for _, l := range lines {
		ff = ff || strings.HasPrefix(l, "FF-faithful ") && strings.Contains(l, "policy=revert") &&
			!strings.Contains(l, " corrupt=0 ") && strings.HasSuffix(l, "FAIL")
		cceh = cceh || strings.HasPrefix(l, "CCEH-faithful ") && strings.Contains(l, "policy=intact") &&
			strings.Contains(l, "corrupt=1 ") && strings.HasSuffix(l, "FAIL")
	}
	if !ff || !cceh || !strings.Contains(stdout, "    cceh.double.swapped ") {
		t.Errorf("controls: FF-faithful failing under revert %v, CCEH-faithful failing once under intact %v\n%s", ff, cceh, stdout)
	}
}

// TestCrashReport drives §7.5 at a small scale: nine index rows and two
// sharded rows, all passing with no violation, exit 0.
func TestCrashReport(t *testing.T) {
	status, stdout, stderr := campaign("crash", "-states", "4", "-ops", "500", "-postops", "100")
	if status != 0 || stderr != "" {
		t.Fatalf("status %d, stderr %q; want 0 and silence\n%s", status, stderr, stdout)
	}
	rows := 0
	for _, l := range strings.Split(stdout, "\n") {
		if strings.Contains(l, " trials=4 ") && strings.Contains(l, " corrupt=0 recoveryViol=0 opViol=0 ") && strings.HasSuffix(l, "PASS") {
			rows++
		}
	}
	if rows != len(subjects)+2 {
		t.Errorf("%d passing rows, want %d\n%s", rows, len(subjects)+2, stdout)
	}
}

// TestCoverageReportsWaste: every coverage row prints the run's dry
// fences and clean write-backs, and waste does not move the exit status
// — P-BwTree's helper write-backs are clean and its row still passes.
// Both controls fail on what construction left unpersisted.
func TestCoverageReportsWaste(t *testing.T) {
	status, stdout, stderr := campaign("coverage", "-ops", "300")
	if status != 0 || stderr != "" {
		t.Fatalf("status %d, stderr %q; want 0 and silence\n%s", status, stderr, stdout)
	}
	lines := strings.Split(stdout, "\n")
	for _, name := range []string{"FF-faithful", "CCEH-faithful"} {
		n := 0
		for i, l := range lines[:len(lines)-1] {
			if strings.HasPrefix(l, name+" ") && strings.Contains(l, " clean=1 ") && !strings.Contains(l, " recoveryViol=0 ") &&
				strings.HasSuffix(l, "FAIL") && strings.HasPrefix(lines[i+1], "    construction ") {
				n++
			}
		}
		if n != 1 {
			t.Errorf("%s: %d FAIL rows on construction violations alone, want 1\n%s", name, n, stdout)
		}
	}
	for _, l := range lines {
		if strings.Contains(l, "ops=") && (!strings.Contains(l, " dryFence=") || !strings.Contains(l, " cleanWB=")) {
			t.Errorf("row without waste fields: %q", l)
		}
		if strings.HasPrefix(l, "P-BwTree ") && (strings.Contains(l, " cleanWB=0 ") || !strings.HasSuffix(l, "PASS")) {
			t.Errorf("want P-BwTree passing with clean write-backs: %q", l)
		}
	}
}

// TestExitRule holds both halves of the exit-status rule, each on the
// §5 test and on the crash-site sweep: a published bug listed among the
// must-pass subjects, and a converted index listed as a control.
func TestExitRule(t *testing.T) {
	for _, args := range [][]string{
		{"coverage", "-ops", "100"},
		{"sites", "-policy", "revert", "-ops", "120", "-postops", "10"},
	} {
		sub := args[0]
		t.Run(sub+"/must-pass row fails", func(t *testing.T) {
			swap(t, &subjects, []subject{ffFaithful})
			status, stdout, stderr := campaign(args...)
			if status != 1 || !strings.Contains(stderr, "must-pass row failed: FF-faithful") {
				t.Errorf("status %d, stderr %q; want 1 naming the row\n%s", status, stderr, stdout)
			}
		})
		t.Run(sub+"/FAIL-expected row passes", func(t *testing.T) {
			var converted []control
			for _, k := range controls {
				if k.sub == sub {
					k.subject = registered("P-ART")
					converted = append(converted, k)
				}
			}
			swap(t, &controls, converted)
			status, stdout, stderr := campaign(args...)
			if status != 1 || !strings.Contains(stderr, "FAIL-expected row passed") || strings.Contains(stderr, "must-pass") {
				t.Errorf("status %d, stderr %q; want 1 for the control alone\n%s", status, stderr, stdout)
			}
		})
	}
}
