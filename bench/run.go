package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/pmem"
)

// sut is one freshly started system under test with its clients
// attached: a recipesrv subprocess (wire.go) or an in-process sharded
// front-end (lib.go).
type sut interface {
	clients() []client
	// stats returns the SUT's cumulative pmem counters.
	stats() (pmem.Stats, error)
	// cpu returns the SUT process's cumulative user+sys CPU time.
	cpu() (time.Duration, error)
	// pid is the SUT's process (the benchmark's own for a library SUT).
	pid() int
	// close stops the SUT; a wire SUT must drain cleanly.
	close() error
	// kill stops the SUT at once, on an abort path.
	kill()
}

// client is one closed-loop load source.
type client interface {
	// prepare stages ops outside the timed section (encodes frames,
	// renders keys).
	prepare(ops []op)
	// exec issues the staged ops with window outstanding, checks every
	// result against its op, and appends the latency in ns of one op in
	// sampleEvery to lat. It returns lat and the number of wrong results.
	exec(window, sampleEvery int, lat []int64) ([]int64, int, error)
}

// env is what a run needs from its surroundings.
type env struct {
	srvBin  string // built cmd/recipesrv
	workers int    // closed-loop clients
	scale   int    // divisor on preload, chunk and warm-up sizes (-quick)
}

// numClients is the number of closed-loop clients of every workload: one.
// The machine this runs on is a few cores of a shared host, and whatever
// runs more threads than it has cores measures the scheduler. A wire
// workload's client and server take turns, so they share one CPU
// (pinToOneCPU); a library workload's client leaves the other cores to the
// collector, which marks the SUT's heap while it runs. min(nproc, 4)
// clients, as first specified, spread every timing up to four times as
// wide (README.md, "Loop model").
const numClients = 1

func (e env) scaled(n int) int {
	n /= e.scale
	if r := n % blockLen; r != 0 {
		n += blockLen - r
	}
	return max(n, blockLen)
}

// verbose (-v) prints every slice to standard error.
var verbose bool

// sliceRec is one slice: a fixed amount of work, executed timed.
type sliceRec struct {
	ops      int
	wall     time.Duration
	sutCPU   time.Duration // SUT process CPU over the timed section
	selfCPU  time.Duration // benchmark process CPU over the timed section
	genCPU   time.Duration // benchmark process CPU generating and staging
	p50, p99 float64       // µs
	samples  int
}

func (s sliceRec) rate() float64 { return float64(s.ops) / s.wall.Seconds() }

// phaseRec is one phase's slices plus its counted window: the pmem
// counter delta over the first countSlices slices.
type phaseRec struct {
	slices   []sliceRec
	timed    time.Duration
	cut      bool // stopped by maxOverrun before its last slice
	countOps int
	counted  pmem.Stats
}

// session is one SUT with its clients' streams.
type session struct {
	w         workload
	e         env
	sut       sut
	gens      []*gen
	bufs      [][]op
	lats      [][]int64
	merged    []int64 // one slice's samples from every client, sorted
	attempted int
	failed    int

	setup       time.Duration
	bytesPerKey float64
	peakRSSMB   float64
}

// openSession sets a SUT up: start, preload with one loader, verify the
// preload, warm up in each phase's shape. The elapsed time is setup_s;
// the pmem bytes per key are read right after preload and the peak RSS
// right after warm-up, both at a fixed amount of work.
func openSession(w workload, e env, seed int64) (_ *session, err error) {
	w.loadN = e.scaled(w.loadN)
	t0 := time.Now()
	var s sut
	switch w.sut {
	case sutWire:
		s, err = startWire(e)
	default:
		s, err = startLib(w, e)
	}
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			s.kill()
		}
	}()
	ss := &session{w: w, e: e, sut: s}
	for i := 0; i < e.workers; i++ {
		ss.gens = append(ss.gens, newGen(w, seed, i, e.workers))
	}
	ss.bufs = make([][]op, e.workers)
	ss.lats = make([][]int64, e.workers)

	ss.attempted = w.loadN
	if ss.failed, err = preload(s.clients()[0], w.loadN); err != nil || ss.failed > 0 {
		return nil, fmt.Errorf("preload: %d of %d inserts failed: %v", ss.failed, w.loadN, err)
	}
	st, err := s.stats()
	if err != nil {
		return nil, err
	}
	ss.bytesPerKey = float64(st.AllocBytes) / float64(w.loadN)

	for _, p := range w.phases {
		p.chunk = e.scaled(w.warm)
		if _, err := ss.runSlice(p); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	ss.setup = time.Since(t0)
	if ss.peakRSSMB, err = procPeakRSSMB(s.pid()); err != nil {
		return nil, err
	}
	return ss, nil
}

// preload inserts identifiers [0, n) through one client, 512
// outstanding, and returns how many inserts failed.
func preload(c client, n int) (failed int, err error) {
	c.prepare(loadOps(n))
	_, failed, err = c.exec(512, 0, nil)
	return failed, err
}

// runSlice generates one chunk per client untimed, then executes all
// clients' chunks concurrently, timed.
func (ss *session) runSlice(p phaseSpec) (sliceRec, error) {
	cls := ss.sut.clients()
	gen0 := selfCPU()
	ss.each(func(i int) error {
		if cap(ss.bufs[i]) < p.chunk {
			ss.bufs[i] = make([]op, p.chunk)
		}
		ss.bufs[i] = ss.bufs[i][:p.chunk]
		ss.gens[i].fill(ss.bufs[i])
		cls[i].prepare(ss.bufs[i])
		return nil
	})
	genCPU := selfCPU() - gen0

	failed := make([]int, len(cls))
	sut0, err := ss.sut.cpu()
	if err != nil {
		return sliceRec{}, err
	}
	self0 := selfCPU()
	t0 := time.Now()
	err = ss.each(func(i int) error {
		var err error
		ss.lats[i], failed[i], err = cls[i].exec(p.window, p.sampleEvery, ss.lats[i][:0])
		return err
	})
	wall := time.Since(t0)
	self1 := selfCPU()
	if err != nil {
		return sliceRec{}, err
	}
	sut1, err := ss.sut.cpu()
	if err != nil {
		return sliceRec{}, err
	}

	all := ss.merged[:0]
	for i := range cls {
		all = append(all, ss.lats[i]...)
		ss.failed += failed[i]
	}
	ss.merged = all
	ss.attempted += p.chunk * len(cls)
	slices.Sort(all)
	p50, err := percentile(all, 0.50)
	if err != nil {
		return sliceRec{}, err
	}
	p99, err := percentile(all, 0.99)
	if err != nil {
		return sliceRec{}, err
	}
	return sliceRec{
		ops: p.chunk * len(cls), wall: wall,
		sutCPU: sut1 - sut0, selfCPU: self1 - self0, genCPU: genCPU,
		p50: float64(p50) / 1e3, p99: float64(p99) / 1e3, samples: len(all),
	}, nil
}

// each runs fn once per client, concurrently, and returns the first error.
func (ss *session) each(fn func(i int) error) error {
	errs := make([]error, ss.e.workers)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runPhases runs the workload's phases: of each, the fixed number of
// slices --seconds stands for (phaseSpec.slices). Phases alternate slice
// by slice, so every phase samples the whole run and a slow spell of the
// machine lands on part of each phase, not all of one. A phase that has
// measured for maxOverrun times its share of seconds stops short, so a
// slow machine or a slow commit cannot run into the driver's time limit.
func (ss *session) runPhases(seconds float64) ([]phaseRec, error) {
	phases := append([]phaseSpec(nil), ss.w.phases...)
	for i := range phases {
		phases[i].chunk = ss.e.scaled(phases[i].chunk)
	}
	recs := make([]phaseRec, len(phases))
	for running := true; running; {
		running = false
		for i, p := range phases {
			rec := &recs[i]
			want := p.slices(seconds)
			if len(rec.slices) >= want {
				continue
			}
			if rec.timed.Seconds() >= maxOverrun*seconds*p.share {
				if !rec.cut {
					fmt.Fprintf(os.Stderr, "bench: %s: %s phase cut short after %d of %d slices (%.1fs measured)\n",
						ss.w.name, p.name, len(rec.slices), want, rec.timed.Seconds())
				}
				rec.cut = true
				continue
			}
			running = true
			count := len(rec.slices) < countSlices
			var st0 pmem.Stats
			var err error
			if count {
				if st0, err = ss.sut.stats(); err != nil {
					return nil, err
				}
			}
			sl, err := ss.runSlice(p)
			if err != nil {
				return nil, fmt.Errorf("%s phase: %w", p.name, err)
			}
			if count {
				st1, err := ss.sut.stats()
				if err != nil {
					return nil, err
				}
				rec.counted = rec.counted.Add(st1.Sub(st0))
				rec.countOps += sl.ops
			}
			rec.slices = append(rec.slices, sl)
			rec.timed += sl.wall
		}
	}
	return recs, nil
}

// readback re-reads every new key the clients were acknowledged for.
func (ss *session) readback() error {
	n := make([]int, ss.e.workers)
	failed := make([]int, ss.e.workers)
	err := ss.each(func(i int) error {
		g := ss.gens[i]
		ops := make([]op, g.inserted)
		for j := range ops {
			id := g.newID(uint64(j))
			ops[j] = op{kind: kRead, id: id, val: valueOf(id, 0)}
		}
		cl := ss.sut.clients()[i]
		cl.prepare(ops)
		var err error
		n[i] = len(ops)
		_, failed[i], err = cl.exec(64, 0, nil)
		return err
	})
	for i := range n {
		ss.attempted += n[i]
		ss.failed += failed[i]
	}
	return err
}

// result is one workload run in the form both output formats share.
type result struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]measure `json:"metrics"`
}

// runWorkload measures one workload end to end with tracing off: the
// measured SUT first, then setups-1 further set-ups whose only product
// is their set-up time. client.* metrics ride along for the traced run.
func runWorkload(w workload, e env, seed int64, seconds float64, setups int) (result, error) {
	ss, err := openSession(w, e, seed)
	if err != nil {
		return result{}, err
	}
	defer func() {
		if ss != nil {
			ss.sut.kill()
		}
	}()
	phases, err := ss.runPhases(seconds)
	if err != nil {
		return result{}, err
	}
	if verbose {
		for i, rec := range phases {
			for j, s := range rec.slices {
				fmt.Fprintf(os.Stderr, "%s %s slice %2d: %8.0f ops/s p50 %7.2fus p99 %8.2fus sutcpu %v self %v gen %v n=%d\n",
					w.name, w.phases[i].name, j, s.rate(), s.p50, s.p99, s.sutCPU, s.selfCPU, s.genCPU, s.samples)
			}
		}
	}
	if err := ss.readback(); err != nil {
		return result{}, fmt.Errorf("readback: %w", err)
	}
	closeErr := ss.sut.close()
	attempted, failed := ss.attempted, ss.failed
	if closeErr != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, closeErr)
		failed++ // a non-clean drain fails the run
	}
	setupS := []float64{ss.setup.Seconds()}
	bytesPerKey, peakRSS := ss.bytesPerKey, ss.peakRSSMB
	ss = nil

	for i := 1; i < setups; i++ {
		runtime.GC()
		extra, err := openSession(w, e, seed)
		if err != nil {
			return result{}, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setupS = append(setupS, extra.setup.Seconds())
		attempted += extra.attempted
		failed += extra.failed
		if err := extra.sut.close(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: set-up %d: %v\n", w.name, i+1, err)
			failed++
		}
	}

	m := phaseMetrics(w, phases)
	m["pm_bytes_per_key"] = exact(bytesPerKey)
	m["peak_rss_mb"] = exact(peakRSS)
	m["setup_s"] = summarize(setupS)
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// phaseMetrics turns the measured phases into metrics: latency and the
// persistence counts from the first phase, throughput and CPU from the
// last (the same phase on a library workload), and the client.* metrics
// the traced run reports.
func phaseMetrics(w workload, phases []phaseRec) map[string]measure {
	lat, thr := phases[0], phases[len(phases)-1]
	col := func(rec phaseRec, f func(sliceRec) float64) measure {
		vs := make([]float64, len(rec.slices))
		for i, s := range rec.slices {
			vs[i] = f(s)
		}
		return summarize(vs)
	}
	var ops int
	var sutCPU, clientCPU time.Duration
	for _, s := range thr.slices {
		ops += s.ops
		sutCPU += s.sutCPU
		clientCPU += s.genCPU
		if w.sut == sutWire {
			clientCPU += s.selfCPU
		}
	}
	rates := col(thr, sliceRec.rate)
	return map[string]measure{
		// Total over total, not the median slice: slice rates are
		// periodic with the collector and fall as the data grows.
		"throughput_ops_s": {Value: float64(ops) / thr.timed.Seconds(), Q1: rates.Q1, Q3: rates.Q3, N: rates.N},
		"lat_p50_us":       col(lat, func(s sliceRec) float64 { return s.p50 }),
		"cpu_us_per_op":    exact(float64(sutCPU.Microseconds()) / float64(ops)),
		"clwb_per_op":      exact(float64(lat.counted.Clwb) / float64(lat.countOps)),
		"fence_per_op":     exact(float64(lat.counted.Fence) / float64(lat.countOps)),

		"client.cpu_us_per_op":   exact(float64(clientCPU.Microseconds()) / float64(ops)),
		"client.lat_p99_us":      col(lat, func(s sliceRec) float64 { return s.p99 }),
		"client.loaded_p50_us":   col(thr, func(s sliceRec) float64 { return s.p50 }),
		"client.loaded_p99_us":   col(thr, func(s sliceRec) float64 { return s.p99 }),
		"client.slice_iqr_share": exact(rates.iqrShare()),
	}
}

// selfCPU is the benchmark process's cumulative user+sys CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPU is another process's cumulative user+sys CPU time, from
// /proc/<pid>/stat in clock ticks (USER_HZ is 100 on Linux).
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after the last ')'.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat cpu fields", pid)
	}
	return time.Duration(ut+st) * (time.Second / 100), nil
}

// procPeakRSSMB is a process's peak resident set (VmHWM) in MB.
func procPeakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("bad VmHWM line %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
