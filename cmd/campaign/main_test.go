package main

import (
	"bytes"
	"strings"
	"testing"
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
		{"sites", "-async", "-batch", "0"},
		{"crash", "-shards", "0"},
		{"crash", "-batch", "8"},
		{"coverage", "-async"},
		{"sites", "-policy", "shredded"},
	} {
		status, stdout, stderr := campaign(args...)
		if status != 2 || !strings.Contains(stderr, usage) || stdout != "" {
			t.Errorf("campaign %q: status %d, stdout %q, stderr %q; want 2, nothing on stdout and the usage line", args, status, stdout, stderr)
		}
	}
	for _, flag := range []string{"-nosuchflag", "-sites"} {
		if status, _, _ := campaign("sites", flag); status != 2 {
			t.Errorf("unknown flag %s: status %d, want 2", flag, status)
		}
	}
}

// TestLossyReport drives one whole subcommand under a lossy image: nine
// must-pass rows, both controls failing as they must — FF-faithful
// under revert, CCEH-faithful under intact at exactly its stall site —
// exit 0.
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
		ff = ff || strings.HasPrefix(l, "FF-faithful ") && strings.Contains(l, "policy=revert") && strings.HasSuffix(l, "FAIL")
		cceh = cceh || strings.HasPrefix(l, "CCEH-faithful ") && strings.Contains(l, "policy=intact") &&
			strings.Contains(l, "corrupt=1 ") && strings.HasSuffix(l, "FAIL")
	}
	if !ff || !cceh || !strings.Contains(stdout, "    cceh.double.swapped ") {
		t.Errorf("controls: FF-faithful failing under revert %v, CCEH-faithful failing once under intact %v\n%s", ff, cceh, stdout)
	}
}

// TestCoverageReportsWaste: every coverage row prints the run's dry
// fences and clean write-backs, and waste does not move the exit status
// — P-BwTree's helper write-backs are clean and its row still passes.
func TestCoverageReportsWaste(t *testing.T) {
	status, stdout, stderr := campaign("coverage", "-ops", "300")
	if status != 0 || stderr != "" {
		t.Fatalf("status %d, stderr %q; want 0 and silence\n%s", status, stderr, stdout)
	}
	for _, l := range strings.Split(stdout, "\n") {
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
