package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command itself when ycsbbench asks it to: main ends
// in os.Exit, so each case is a child process of the test binary.
func TestMain(m *testing.M) {
	if os.Getenv("YCSBBENCH_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// ycsbbench runs the command with args in a child process.
func ycsbbench(t *testing.T, args ...string) (status int, stdout, stderr string) {
	t.Helper()
	var out, errs bytes.Buffer
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "YCSBBENCH_RUN_MAIN=1")
	cmd.Stdout, cmd.Stderr = &out, &errs
	var exit *exec.ExitError
	if err := cmd.Run(); errors.As(err, &exit) {
		status = exit.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return status, out.String(), errs.String()
}

func TestUsageErrors(t *testing.T) {
	small := []string{"-figure", "4c", "-keys", "100", "-ops", "100", "-threads", "1"}
	for _, c := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-clwbdelay", "-3"}, "-clwbdelay must be >= 0, got -3"},
		{[]string{"-fencedelay", "-3"}, "-fencedelay must be >= 0, got -3"},
		{[]string{"-theta", "0.5"}, "-theta applies only to -dist zipfian or latest"},
		{[]string{"-dist", "uniform", "-theta", "0.5"}, "-theta applies only to -dist zipfian or latest"},
		{[]string{"-dist", "zipfian", "-theta", "5"}, "theta 5 outside (0, 1)"},
		{[]string{"-ops", "-5"}, "-ops must be >= 1, got -5"},
		{[]string{"-llckb", "-5"}, "-llckb must be >= 0, got -5"},
	} {
		status, stdout, stderr := ycsbbench(t, append(small, c.args...)...)
		if status != 2 || !strings.Contains(stderr, c.msg) || stdout != "" {
			t.Errorf("ycsbbench %q: status %d, stdout %q, stderr %q; want 2, nothing on stdout and %q", c.args, status, stdout, stderr, c.msg)
		}
	}
}

// TestCostFiguresRepeat: at one thread, Fig 4c's and 4d's cells — clwb
// and mfence per insert, LLC misses per operation — are the same in
// every run, so each figure's output is byte-identical three times over.
func TestCostFiguresRepeat(t *testing.T) {
	for _, fig := range []string{"4c", "4d"} {
		var first string
		for run := 0; run < 3; run++ {
			status, stdout, stderr := ycsbbench(t, "-figure", fig, "-keys", "5000", "-ops", "5000", "-threads", "1")
			if status != 0 {
				t.Fatalf("-figure %s: status %d, stderr %q", fig, status, stderr)
			}
			if run == 0 {
				first = stdout
			} else if stdout != first {
				t.Errorf("-figure %s run %d differs from run 1:\n%s\nrun 1:\n%s", fig, run+1, stdout, first)
			}
		}
	}
}
