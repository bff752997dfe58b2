package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"repro/shard"
)

func TestStreamDeterministic(t *testing.T) {
	for _, w := range workloads {
		a := streamHash(w, 7, 2, 5000)
		if b := streamHash(w, 7, 2, 5000); a != b {
			t.Errorf("%s: same seed gave stream hashes %x and %x", w.name, a, b)
		}
		if b := streamHash(w, 8, 2, 5000); a == b {
			t.Errorf("%s: seeds 7 and 8 gave the same stream hash %x", w.name, a)
		}
	}
}

// Every block of blockLen ops carries the workload's exact mix, clients
// own disjoint keys, and a read expects what the stream last wrote.
func TestStreamModel(t *testing.T) {
	for _, w := range workloads {
		const workers = 2
		for c := 0; c < workers; c++ {
			ops := make([]op, 200*blockLen)
			newGen(w, 3, c, workers).fill(ops)
			last := map[uint64]uint64{}
			for b := 0; b < len(ops); b += blockLen {
				var mix [numKinds]int
				for _, o := range ops[b : b+blockLen] {
					mix[o.kind]++
					if int(o.id%workers) != c {
						t.Fatalf("%s: client %d got key %d of another client", w.name, c, o.id)
					}
					switch o.kind {
					case kUpdate, kInsert:
						last[o.id] = o.val
					case kRead, kScan:
						want, written := last[o.id]
						if !written {
							want = valueOf(o.id, 0)
						}
						if o.val != want {
							t.Fatalf("%s: %s of key %d expects %d, stream last wrote %d", w.name, o.kind, o.id, o.val, want)
						}
					}
				}
				if mix != w.mix {
					t.Fatalf("%s: block at %d has mix %v, want %v", w.name, b, mix, w.mix)
				}
			}
		}
	}
}

func TestPercentile(t *testing.T) {
	s := make([]int64, 1000)
	for i := range s {
		s[i] = int64(i + 1)
	}
	if v, err := percentile(s, 0.5); err != nil || v != 500 {
		t.Errorf("p50 of 1..1000 = %d, %v; want 500", v, err)
	}
	// 1000 samples leave exactly minTail beyond p99; 999 leave nine.
	if v, err := percentile(s, 0.99); err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %d, %v; want 990", v, err)
	}
	if _, err := percentile(s[:999], 0.99); err == nil {
		t.Error("p99 of 999 samples accepted with fewer than 10 samples beyond it")
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("p50 of no samples accepted")
	}
}

func TestSummarize(t *testing.T) {
	m := summarize([]float64{5, 1, 3, 2, 4})
	if m.Value != 3 || m.Q1 != 2 || m.Q3 != 4 || m.N != 5 {
		t.Errorf("summarize(1..5) = %+v, want median 3, quartiles 2 and 4", m)
	}
	if got := m.iqrShare(); got != 2.0/3 {
		t.Errorf("iqrShare = %v, want 2/3", got)
	}
	// A burst in one slice of ten moves the median not at all.
	quiet := summarize([]float64{10, 10, 10, 10, 10, 10, 10, 10, 10, 10})
	burst := summarize([]float64{10, 10, 10, 10, 90, 10, 10, 10, 10, 10})
	if quiet.Value != burst.Value {
		t.Errorf("one slow slice moved the median from %v to %v", quiet.Value, burst.Value)
	}
}

// A run is a fixed amount of work: --seconds sets the number of slices,
// and at the default every phase has the ten slices its medians need and
// the latency phase the slices the persistence counts are taken over.
func TestSlicesFollowSeconds(t *testing.T) {
	for _, w := range workloads {
		for i, p := range w.phases {
			n := p.slices(defaultSeconds)
			if n < 10 || (i == 0 && n < countSlices) {
				t.Errorf("%s %s: %d slices at %d s, want >= 10", w.name, p.name, n, defaultSeconds)
			}
			if twice := p.slices(2 * defaultSeconds); twice < 2*n-1 || twice > 2*n+1 {
				t.Errorf("%s %s: %d slices at %d s but %d at twice that", w.name, p.name, n, defaultSeconds, twice)
			}
			if p.slices(0.001) != 1 {
				t.Errorf("%s %s: a run of no time must still be one slice", w.name, p.name)
			}
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{"lat", "us", "lower", 0.10}
	higher := metricDef{"thr", "ops/s", "higher", 0.10}
	cases := []struct {
		d    metricDef
		a, b measure
		want string
	}{
		{lower, exact(100), exact(109), verdictOK},
		{lower, exact(100), exact(111), verdictRegressed},
		{lower, exact(100), exact(50), verdictOK},
		{higher, exact(100), exact(91), verdictOK},
		{higher, exact(100), exact(89), verdictRegressed},
		{higher, exact(100), exact(200), verdictOK},
		// Quartiles 40% wide over 4 slices: the median is known to 20%,
		// which cannot resolve a 10% bound either way.
		{lower, measure{Value: 100, Q1: 80, Q3: 120, N: 4}, exact(150), verdictUnresolved},
		{lower, exact(100), measure{Value: 100, Q1: 80, Q3: 120, N: 4}, verdictUnresolved},
		// The same quartiles over 100 slices resolve it.
		{lower, measure{Value: 100, Q1: 80, Q3: 120, N: 100}, exact(150), verdictRegressed},
	}
	for _, c := range cases {
		if got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("judge(%s, %v -> %v) = %s, want %s", c.d.better, c.a, c.b, got, c.want)
		}
	}
}

// A result that differs from what the stream expects must count as a
// failure, in the library clients and on the wire alike.
func TestCorruptedExpectationFails(t *testing.T) {
	w, _ := workloadByName("lib-hash")
	w.loadN = 2000
	m, err := shard.NewHash("P-CLHT", shard.Options{Shards: libShards})
	if err != nil {
		t.Fatal(err)
	}
	c := &hashClient{m: m}
	c.prepare(loadOps(w.loadN))
	if _, failed, err := c.exec(0, 0, nil); err != nil || failed != 0 {
		t.Fatalf("preload: %d failed, %v", failed, err)
	}
	ops := make([]op, 2000)
	newGen(w, 1, 0, 1).fill(ops)
	c.prepare(ops)
	if _, failed, err := c.exec(0, 0, nil); err != nil || failed != 0 {
		t.Fatalf("clean stream: %d failed, %v", failed, err)
	}
	reads := 0
	for i := range ops {
		if ops[i].kind == kRead {
			ops[i].val++
			reads++
		}
	}
	c.prepare(ops)
	_, failed, err := c.exec(0, 0, nil)
	if err != nil || failed != reads {
		t.Errorf("corrupted stream: %d failed of %d corrupted reads, %v", failed, reads, err)
	}

	get := op{kind: kRead, id: 5, val: 5}
	set := op{kind: kInsert, id: 6, val: 6}
	for _, tc := range []struct {
		o     op
		reply string
		ok    bool
	}{
		{get, ":5\r\n", true},
		{get, ":6\r\n", false},
		{get, "$-1\r\n", false},
		{get, "+OK\r\n", false},
		{get, "-ERR boom\r\n", false},
		{set, "+OK\r\n", true},
		{set, "-BUSY queue full\r\n", false},
		{set, ":6\r\n", false},
	} {
		wc := &wireClient{br: bufio.NewReader(bytes.NewReader([]byte(tc.reply)))}
		ok, err := wc.checkReply(tc.o)
		if err != nil || ok != tc.ok {
			t.Errorf("%s with reply %q: ok=%v err=%v, want ok=%v", tc.o.kind, tc.reply, ok, err, tc.ok)
		}
	}
}

// BENCHMARK.json and spec.go name the same workloads and metrics, with
// the same units, directions and bounds.
func TestSpecMatchesJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, code default %d", spec.RunSeconds, defaultSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if j := spec.Workloads[i]; j.Name != w.name || j.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), code has %q (%q)", i, j.Name, j.Why, w.name, w.why)
		}
		if !name.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: bad name or why longer than 200", w.name)
		}
	}
	check := func(kind string, js []jsonMetric, defs []metricDef, bounded bool) {
		if len(js) != len(defs) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(js), len(defs))
		}
		seen := map[string]bool{}
		for i, d := range defs {
			j := js[i]
			if j.Name != d.name || j.Unit != d.unit || j.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, code has %+v", kind, i, j, d)
			}
			if bounded != (j.Bound != nil) || (bounded && (*j.Bound != d.bound || d.bound <= 0 || d.bound > 0.25)) {
				t.Errorf("%s %s: bound %v in BENCHMARK.json, %v in code", kind, d.name, j.Bound, d.bound)
			}
			if !name.MatchString(d.name) || !unit.MatchString(d.unit) || (d.better != "lower" && d.better != "higher") {
				t.Errorf("%s %s: bad name, unit %q or direction %q", kind, d.name, d.unit, d.better)
			}
			if seen[d.name] {
				t.Errorf("%s %s: named twice", kind, d.name)
			}
			seen[d.name] = true
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
}

// The whole benchmark at reduced size: every workload end to end against
// a real recipesrv, and one traced run. A change to the server's flags,
// its "listening on" line or the wire protocol fails here.
func TestQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("starts recipesrv and runs every workload")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	e := env{workers: numClients, scale: quickScale}
	if e.srvBin, err = buildServer(root); err != nil {
		t.Fatal(err)
	}
	run := func(w workload, traced bool) {
		var res result
		var err error
		defs := endToEnd
		if traced {
			defs = perLayer
			res, err = runTraced(w, e, 1, 1, t.TempDir())
		} else {
			res, err = runWorkload(w, e, 1, 1, 1)
		}
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d", w.name, res.Correct, res.Failed, res.Attempted)
		}
		if _, err := pick(res, defs); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		for _, d := range endToEnd {
			if !traced && res.Metrics[d.name].Value <= 0 {
				t.Errorf("%s: %s = %v, want positive", w.name, d.name, res.Metrics[d.name].Value)
			}
		}
	}
	for _, w := range workloads {
		run(w, false)
	}
	run(workloads[0], true)
}
