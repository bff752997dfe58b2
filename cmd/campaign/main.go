// Command campaign runs the paper's test campaigns against the nine
// indexes — one subcommand per campaign, one flag set, one exit rule.
//
//	go run ./cmd/campaign crash -states 10000 -ops 10000   # §7.5 at the paper's scale (default: 200 states)
//	go run ./cmd/campaign coverage                          # §5 flush coverage of construction, inserts and updates
//	go run ./cmd/campaign sites -policy torn -batch 8       # crash at every site, through group commits
//
// All three run one trial (harness/trial.go) and differ in where it
// crashes. A trial loads -ops inserts with the crash armed, restarts,
// reads back, then inserts -postops fresh keys and rewrites each in
// place: recovery and every post-crash write must leave each line they
// dirtied written back and fenced (on a tracked heap, the analogue of
// the paper's PIN tracing), and a full readback classifies the trial
// CLEAN, PARTIAL (an unacknowledged op vanished atomically), LOST-ACK
// (an acknowledged write is missing) or CORRUPT. Every row prints the
// runs' persistence waste — dryFence= (fences that ordered no
// write-back) and cleanWB= (write-backs of lines that were not dirty) —
// which is a cost, not a failure: it does not move the verdict.
//
// crash reproduces §7.5: for every index, -states crash states
// (probabilistic crashes during the load) restarted from the intact
// image, with the post phase on -threads concurrent threads. Its
// sharded section arms state s's crash in shard s mod -shards of a
// front-end and requires recovery to replay only that shard.
//
// coverage is the §5 durability test: no crash, so index creation is
// checked where recovery would be, and the post phase is -ops inserts
// and their rewrites.
//
// sites crashes once at every crash site the load passes through and
// restarts from the -policy image: intact (the §5 crash: nothing is
// lost) or a post-power-loss image (stores never written back are gone;
// unfenced write-backs revert, survive with keep, or tear).
//
// Trials are independent heaps fanned out over -workers goroutines and
// collected in order: a sites report is identical for any worker
// count. -batch and -async route sites through the group-commit and
// async write paths, which adds their crash sites; crash and coverage
// measure the paper's per-op path only.
//
// Exit status: 2 on a usage error; otherwise non-zero iff a must-pass
// row FAILs or a FAIL-expected row PASSes. The FAIL-expected rows are
// the Faithful modes of FAST & FAIR and CCEH, which reproduce the
// published bugs (§3, §7.5): a control that stops failing controls
// nothing.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/harness"
	"repro/internal/keys"
	"repro/internal/pmem"
)

const usage = "usage: campaign crash|coverage|sites [flags]   (campaign <subcommand> -h lists the flags)"

// subject is one row of a campaign: an index and how to build it.
type subject struct {
	name  string
	build func(keys.Kind) harness.Build
}

func registered(name string) subject {
	return subject{name, func(kind keys.Kind) harness.Build { return harness.ByName(name, kind) }}
}

func faithful(name string, b harness.Build) subject {
	return subject{name, func(keys.Kind) harness.Build { return b }}
}

// subjects are the nine must-pass indexes: the Fig 4 five plus WOART,
// then the three hash tables.
var subjects = []subject{
	registered("P-ART"), registered("P-HOT"), registered("P-BwTree"), registered("P-Masstree"),
	registered("FAST & FAIR"), registered("WOART"),
	registered("P-CLHT"), registered("CCEH"), registered("Level Hashing"),
}

// doublingLoad is a load that takes CCEH through its first directory
// doubling (2,000 inserts do not reach it; 2,500 do), where the
// Faithful update order leaves pointer and depth torn at
// cceh.double.swapped and recovery stalls.
const doublingLoad = 5000

// control is a FAIL-expected row: the campaign that must keep detecting
// a published bug, closing the report of subcommand sub.
type control struct {
	sub string
	subject
	run func(subject, config) harness.CampaignReport
}

var (
	ffFaithful   = faithful("FF-faithful", harness.FaithfulFF)
	ccehFaithful = faithful("CCEH-faithful", harness.FaithfulCCEH)

	// controls: both Faithful modes leave their initial allocation
	// unpersisted (§7.5), which the tracker sees at construction and the
	// revert image turns into observable loss; CCEH-faithful also tears
	// its directory-doubling metadata, which only a crash inside the
	// doubling shows — the probabilistic crash campaign almost never
	// lands there, the per-site sweep always does, even in the intact
	// image.
	controls = []control{
		{"coverage", ffFaithful, construction},
		{"coverage", ccehFaithful, construction},
		{"sites", ccehFaithful, func(s subject, c config) harness.CampaignReport {
			c.ops, c.policy = max(c.ops, doublingLoad), pmem.PolicyIntact
			return siteSweep(s, c)
		}},
		{"sites", ffFaithful, func(s subject, c config) harness.CampaignReport {
			c.policy = pmem.PolicyRevert
			return siteSweep(s, c)
		}},
	}
)

// config is the one flag set.
type config struct {
	ops, postOps, workers   int
	seed                    int64
	policies                []pmem.Policy
	policy                  pmem.Policy // of policies, the one being run
	path                    harness.WritePath
	label                   string // names a queued path in section headers
	states, threads, shards int
}

func construction(s subject, c config) harness.CampaignReport {
	return harness.Durability(s.name, s.build(keys.YCSBString), c.ops)
}

func siteSweep(s subject, c config) harness.CampaignReport {
	return harness.SiteCampaign(s.name, s.build(keys.RandInt), c.path, c.policy, c.seed, c.ops, c.postOps, c.workers)
}

// rows prints campaign rows and holds the exit-status rule: broken is
// set when a row's verdict is not the one it must have.
type rows struct {
	out, errs io.Writer
	broken    bool
}

// print writes the row, plus one line per trial that found something
// (the common all-PASS case stays one line).
func (r *rows) print(rep harness.CampaignReport) {
	fmt.Fprintln(r.out, rep)
	for _, s := range rep.Sites {
		if !s.Pass() {
			fmt.Fprintf(r.out, "    %-28s %v lostAcks=%d recoveryViol=%d opViol=%d replays=%v %s\n",
				s.Site, s.Outcome, s.LostAcks, s.RecoveryViolations, s.OpViolations, s.Replays, s.Detail)
		}
	}
}

func (r *rows) mustPass(rep harness.CampaignReport) {
	r.print(rep)
	if !rep.Pass() {
		r.broken = true
		fmt.Fprintln(r.errs, "must-pass row failed: "+rep.String())
	}
}

func (r *rows) mustFail(rep harness.CampaignReport) {
	r.print(rep)
	if rep.Pass() {
		r.broken = true
		fmt.Fprintln(r.errs, "FAIL-expected row passed (the negative control no longer detects its bug): "+rep.String())
	}
}

// controls closes a report with the FAIL-expected rows of subcommand
// sub. They run on the per-op write path whatever the flags say — the
// bugs are in the index — and each sweep under the image its bug shows
// in.
func (r *rows) controls(c config, sub string) {
	c.path = harness.WritePath{}
	fmt.Fprintln(r.out, "\nFaithful modes (FAIL expected — the published bugs of §3/§7.5):")
	for _, k := range controls {
		if k.sub == sub {
			r.mustFail(k.run(k.subject, c))
		}
	}
}

var subcommands = map[string]func(*rows, config){"crash": crash, "coverage": coverage, "sites": sites}

func crash(r *rows, c config) {
	fmt.Fprintf(r.out, "=== §7.5 crash-recovery testing: %d states, load %d, %d post-crash inserts and rewrites x %d threads ===\n\n",
		c.states, c.ops, c.postOps, c.threads)
	fmt.Fprintln(r.out, "Must pass:")
	for _, s := range subjects {
		r.mustPass(harness.CrashCampaign(s.name, s.build(keys.RandInt), c.states, c.ops, c.postOps, c.threads))
	}
	fmt.Fprintf(r.out, "\nSharded front-end, %d shards (crash in shard k must replay only shard k):\n", c.shards)
	for _, name := range []string{"P-ART", "P-Masstree"} {
		r.mustPass(harness.CrashCampaign(name, harness.Sharded(name, keys.RandInt, c.shards, nil), c.states, c.ops, c.postOps, c.threads))
	}
}

func coverage(r *rows, c config) {
	fmt.Fprintf(r.out, "=== §5 durability test: %d traced inserts and in-place rewrites per index ===\n\n", c.ops)
	for _, s := range subjects {
		r.mustPass(construction(s, c))
	}
	r.controls(c, "coverage")
}

func sites(r *rows, c config) {
	fmt.Fprintf(r.out, "=== crash-site campaign%s: crash at every site, power-cycle, recover, verify, %d traced post-crash inserts and rewrites (seed %d) ===\n",
		c.label, c.postOps, c.seed)
	for _, c.policy = range c.policies {
		fmt.Fprintln(r.out)
		for _, s := range subjects {
			r.mustPass(siteSweep(s, c))
		}
	}
	r.controls(c, "sites")
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its streams and exit status as values, for the test.
func run(args []string, stdout, stderr io.Writer) int {
	usageError := func(format string, a ...any) int {
		fmt.Fprintf(stderr, format+"\n", a...)
		fmt.Fprintln(stderr, usage)
		return 2
	}
	if len(args) == 0 {
		return usageError("no subcommand")
	}
	sub, ok := subcommands[args[0]]
	if !ok {
		return usageError("unknown subcommand %q", args[0])
	}

	var c config
	fs := flag.NewFlagSet("campaign "+args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.IntVar(&c.ops, "ops", 5000, "inserts per index: the load crashes are armed in (crash, paper: 10000; sites); coverage: the traced inserts, each then rewritten in place")
	fs.IntVar(&c.postOps, "postops", 2000, "crash, sites: post-crash inserts per trial, each then rewritten in place")
	fs.IntVar(&c.workers, "workers", 0, "goroutines the per-site trials fan out over (0 = GOMAXPROCS)")
	fs.Int64Var(&c.seed, "seed", 42, "sites: campaign seed (torn coin flips derive from it)")
	policy := fs.String("policy", "all", "sites: the restart image: intact (nothing lost), or what becomes of unfenced write-backs: revert, keep, torn; or all")
	batch := fs.Int("batch", 1, "sites: group-commit batch size (1 = per-op fences; >1 crashes inside fence-coalesced group commits too)")
	async := fs.Bool("async", false, "sites: route the sweep through the async commit pipeline (ack-after-fence futures; -batch sets the committer's queue and drain size) and crash inside its drain loop too")
	fs.IntVar(&c.states, "states", 200, "crash: crash states per index (paper: 10000)")
	fs.IntVar(&c.threads, "threads", 4, "crash: threads in the post-crash phase (paper: 4)")
	fs.IntVar(&c.shards, "shards", 4, "crash: front-end width of the per-shard recovery section")
	if err := fs.Parse(args[1:]); err != nil {
		return 2 // the flag set has printed the error and the flags
	}
	if *async && *batch == 1 {
		// A 1-deep queue acks per op; the interesting async crashes need
		// multi-op batches in flight, so default to the group size the
		// batched campaigns use.
		*batch = 8
	}
	switch c.path = harness.PathFromFlags(*batch, *async, 0, 0); {
	case *batch < 1:
		return usageError("-batch must be >= 1, got %d", *batch)
	case c.shards < 1:
		return usageError("-shards must be >= 1, got %d", c.shards)
	case c.path.Mode != harness.Sync && args[0] != "sites":
		return usageError("%s runs the paper's per-op write path; -batch and -async apply to sites", args[0])
	case c.path.Mode == harness.Async:
		c.label = fmt.Sprintf(" (async commit pipeline, queue/batch %d)", *batch)
	case c.path.Mode == harness.Batched:
		c.label = fmt.Sprintf(" (batched, group size %d)", *batch)
	}
	c.policies = pmem.Policies
	if *policy != "all" {
		p, err := pmem.ParsePolicy(*policy)
		if err != nil {
			return usageError("%v", err)
		}
		c.policies = []pmem.Policy{p}
	}

	r := &rows{out: stdout, errs: stderr}
	sub(r, c)
	if r.broken {
		return 1
	}
	return 0
}
