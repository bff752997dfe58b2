package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"text/tabwriter"
)

// Verdicts of one (metric, workload) pairing.
const (
	verdictOK         = "OK"
	verdictRegressed  = "REGRESSED"
	verdictUnresolved = "UNRESOLVED"
)

// worsening is how much worse b is than a, as a share of a, in the
// metric's own direction (negative: b is better).
func worsening(d metricDef, a, b float64) float64 {
	if d.better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// uncertainty is the spread of a run's own estimate: the quartile width
// of its slices as a share of the value, scaled down by the square root
// of the slice count (it is the median that is reported, not a slice).
func uncertainty(m measure) float64 {
	if m.N == 0 {
		return 0
	}
	return m.iqrShare() / math.Sqrt(float64(m.N))
}

// judge applies d's direction and bound to one pairing. A pairing whose
// runs are themselves less certain than the bound is UNRESOLVED, not
// unchanged.
func judge(d metricDef, a, b measure) string {
	switch {
	case math.Max(uncertainty(a), uncertainty(b)) > d.bound:
		return verdictUnresolved
	case worsening(d, a.Value, b.Value) > d.bound:
		return verdictRegressed
	}
	return verdictOK
}

func readDocument(path string) (document, error) {
	var doc document
	b, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return doc, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// compareFiles prints one row per (workload, end-to-end metric) of two
// documents, baseline first, and fails on any REGRESSED row. An
// operation that failed in b is a regression at any share: the bound on
// failed_share is zero.
func compareFiles(pathA, pathB string) error {
	a, err := readDocument(pathA)
	if err != nil {
		return err
	}
	b, err := readDocument(pathB)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tunit\t%s\t%s\tworse by\tbound\tverdict\n", a.Commit, b.Commit)
	regressed := 0
	for _, w := range workloads {
		ra, okA := a.Workloads[w.name]
		rb, okB := b.Workloads[w.name]
		if !okA || !okB {
			return fmt.Errorf("workload %s is missing from a document", w.name)
		}
		verdict := verdictOK
		if rb.Failed > 0 {
			verdict = verdictRegressed
			regressed++
		}
		fmt.Fprintf(tw, "%s\tfailed_share\tfraction\t%.3g\t%.3g\t\t0%%\t%s\n", w.name,
			float64(ra.Failed)/float64(ra.Attempted), float64(rb.Failed)/float64(rb.Attempted), verdict)
		for _, d := range endToEnd {
			ma, okA := ra.Metrics[d.name]
			mb, okB := rb.Metrics[d.name]
			if !okA || !okB {
				return fmt.Errorf("%s: metric %s is missing from a document", w.name, d.name)
			}
			verdict := judge(d, ma, mb)
			if verdict == verdictRegressed {
				regressed++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.0f%%\t%s\n", w.name, d.name, d.unit,
				ma.Value, mb.Value, 100*worsening(d, ma.Value, mb.Value), 100*d.bound, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if regressed > 0 {
		return fmt.Errorf("%d regressed", regressed)
	}
	return nil
}
