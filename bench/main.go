// Command bench is the repository's benchmark: four closed-loop
// workloads measured from outside the stack (a recipesrv subprocess over
// loopback, and the public shard front-end in process), eight end-to-end
// metrics per workload, and a separate traced run that costs the same
// seeded request streams layer by layer. README.md has the rationale;
// BENCHMARK.json at the repository root names every workload and metric.
//
//	bash bench/run.sh --workload wire-read --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh > A.json                  # every workload, full document
//	bash bench/run.sh -compare A.json B.json    # OK / REGRESSED / UNRESOLVED per metric
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

const (
	defaultSeed    = 1
	defaultSeconds = 20
	// defaultSetups is how many times a run sets its SUT up; setup_s is
	// the median.
	defaultSetups = 3
)

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	full     bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload and print the driver's one-line result (default: all, as one document)")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "how long each workload measures")
	trace := flag.Int("trace", 0, "1: traced run, print per-layer metrics; 0: end-to-end metrics")
	flag.BoolVar(&o.quick, "quick", false, "smoke mode: quarter sizes, one second, one set-up")
	flag.BoolVar(&o.full, "full", false, "with -workload: print the result with quartiles, as the document holds it")
	compare := flag.Bool("compare", false, "compare two documents: bench -compare A.json B.json")
	flag.BoolVar(&verbose, "v", false, "print every slice to standard error")
	flag.Parse()
	o.trace = *trace == 1
	if o.quick {
		o.seconds = 1
	}
	var err error
	switch {
	case *compare && flag.NArg() == 2:
		err = compareFiles(flag.Arg(0), flag.Arg(1))
	case *compare:
		err = errors.New("usage: bench -compare A.json B.json")
	case o.workload == "":
		err = runAll(o)
	default:
		err = runOne(o)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

// runOne runs one workload in this process and prints its result.
func runOne(o options) error {
	w, ok := workloadByName(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	if w.sut == sutWire {
		if err := pinToOneCPU(); err != nil {
			return err
		}
	}
	e := env{workers: numClients, scale: 1}
	if e.srvBin, err = buildServer(root); err != nil {
		return err
	}
	setups := defaultSetups
	if o.quick {
		e.scale, setups = quickScale, 1
	}
	var res result
	defs := endToEnd
	if o.trace {
		defs = perLayer
		res, err = runTraced(w, e, o.seed, o.seconds, filepath.Join(root, "bench", "out"))
	} else {
		res, err = runWorkload(w, e, o.seed, o.seconds, setups)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	if o.full && !o.trace {
		// The document also shows what an end-to-end run measures on
		// the side: the client's own cost and the ungated latencies.
		for _, d := range perLayer {
			if _, ok := res.Metrics[d.name]; ok {
				defs = append(defs[:len(defs):len(defs)], d)
			}
		}
	}
	if res, err = pick(res, defs); err != nil {
		return err
	}
	if o.full {
		out, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Println(string(out))
		return nil
	}
	return printDriverLine(res)
}

// runAll runs every workload and prints one document. Each workload runs
// in a process of its own, as the driver runs it: a library workload's
// SUT is the benchmark process, and its peak RSS must not include the
// workload before it.
func runAll(o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	doc := document{
		Commit: commitOf(root), Seed: o.seed, Seconds: o.seconds,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Clients: numClients, Trace: o.trace, Workloads: map[string]result{},
	}
	traceArg := "0"
	if o.trace {
		traceArg = "1"
	}
	failed := 0
	for _, w := range workloads {
		cmd := exec.Command(self, "-full", "-workload", w.name, "-seed", fmt.Sprint(o.seed),
			"-seconds", fmt.Sprint(o.seconds), "-trace", traceArg, fmt.Sprintf("-quick=%v", o.quick), fmt.Sprintf("-v=%v", verbose))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		var res result
		if err := json.Unmarshal(out, &res); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		doc.Workloads[w.name] = res
		failed += res.Failed
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

// quickScale divides preload, slice and warm-up sizes in -quick. Slices
// must keep 1000 samples for the p99 rule, so sizes shrink 4x and the
// measured time 12x.
const quickScale = 4

// document is what a run of every workload prints: the run header and
// one result per workload, with quartiles beside every median.
type document struct {
	Commit     string            `json:"commit"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	Clients    int               `json:"clients"`
	Trace      bool              `json:"trace"`
	Workloads  map[string]result `json:"workloads"`
}

// pick keeps exactly the metrics in defs, with their units.
func pick(res result, defs []metricDef) (result, error) {
	all := res.Metrics
	res.Metrics = make(map[string]measure, len(defs))
	for _, d := range defs {
		m, ok := all[d.name]
		if !ok {
			return res, fmt.Errorf("metric %s was not measured", d.name)
		}
		m.Unit = d.unit
		res.Metrics[d.name] = m
	}
	return res, nil
}

// printDriverLine prints the one-line result the driver reads, each
// metric as {"value", "unit"}.
func printDriverLine(res result) error {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]mv{}}
	for name, m := range res.Metrics {
		line.Metrics[name] = mv{m.Value, m.Unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// repoRoot finds the checkout: the nearest ancestor of the working
// directory whose go.mod declares module repro.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(b), "module repro\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the repository: no go.mod with module repro above the working directory")
		}
		dir = parent
	}
}

// buildServer builds cmd/recipesrv into the checkout's build directory.
func buildServer(root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "recipesrv")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/recipesrv")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/recipesrv: %v\n%s", err, out)
	}
	return bin, nil
}

func commitOf(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown" // an exported checkout is not a git repository
	}
	return strings.TrimSpace(string(out))
}
