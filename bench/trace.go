package main

// The traced run. End-to-end numbers are measured from outside with
// tracing off; here the same seeded request streams are replayed by one
// client against in-process twin stacks, one twin per level, and every
// call into a layer's exported functions is wrapped in a span. A level's
// self time is its span minus the span one level down for the same op.
// This file is the only one that reaches below the public front-end
// (pmem primitives, shard.Deferred, commit, server.ParseCommand); a
// later change to those APIs lands here and nowhere else.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/commit"
	"repro/internal/keys"
	"repro/internal/pmem"
	"repro/internal/server"
	"repro/shard"
)

// Levels, innermost first; a span's parent is the same op one level up.
var levelNames = [...]string{"index", "shard", "server", "wire"}

const (
	lvIndex  = iota // the owning shard's index, called directly
	lvShard         // the sharded front-end
	lvServer        // an in-process server.Server on a loopback listener
	lvWire          // a recipesrv subprocess: the process boundary on top
)

type span struct {
	op         int32
	kind       opKind
	level      uint8
	start, end int64 // ns since the trace began
}

// tracer collects the spans of the traced workload's own stream and the
// replay's correctness tally.
type tracer struct {
	base      time.Time
	spans     []span
	attempted int
	failed    int
}

// doer is a client that can issue its staged ops one at a time.
type doer interface {
	prepare(ops []op)
	do(i int) (bool, error)
}

// replay stages ops on c and issues them one by one, returning each
// op's duration in ns. With keep, the spans are recorded at level.
func (t *tracer) replay(c doer, ops []op, level uint8, keep bool) ([]int64, error) {
	c.prepare(ops)
	d := make([]int64, len(ops))
	for i := range ops {
		t0 := time.Since(t.base)
		ok, err := c.do(i)
		t1 := time.Since(t.base)
		if err != nil {
			return nil, fmt.Errorf("%s level, op %d: %w", levelNames[level], i, err)
		}
		if !ok {
			t.failed++
		}
		d[i] = int64(t1 - t0)
		if keep {
			t.spans = append(t.spans, span{int32(i), ops[i].kind, level, int64(t0), int64(t1)})
		}
	}
	t.attempted += len(ops)
	return d, nil
}

// writeSpans writes the kept spans as JSON lines.
func (t *tracer) writeSpans(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+workload+".jsonl"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		parent := ""
		if int(s.level)+1 < len(levelNames) {
			parent = levelNames[s.level+1]
		}
		if err := enc.Encode(struct {
			Workload string `json:"workload"`
			Op       int32  `json:"op"`
			Level    string `json:"level"`
			Kind     string `json:"kind"`
			Start    int64  `json:"start_ns"`
			End      int64  `json:"end_ns"`
			Parent   string `json:"parent,omitempty"`
		}{workload, s.op, levelNames[s.level], s.kind.String(), s.start, s.end, parent}); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceStream is the single-client stream the twins replay, and the
// same number of ops that follow it: those run untraced at the top level
// after the traced replay, so the two can be compared like for like.
func traceStream(w workload, e env, seed int64) (_ workload, ops, next []op) {
	w.loadN = e.scaled(w.loadN)
	n := e.scaled(w.traceOps)
	ops = make([]op, 2*n)
	newGen(w, seed, 0, 1).fill(ops)
	return w, ops[:n], ops[n:]
}

// untracedP50 runs ops on c the way the end-to-end run does — no spans,
// one request outstanding — and returns the median latency in ns.
func (t *tracer) untracedP50(c client, ops []op) (float64, error) {
	c.prepare(ops)
	lat, failed, err := c.exec(1, 1, nil)
	t.attempted += len(ops)
	t.failed += failed
	return medianNS(lat), err
}

// preload loads a twin (or a server) through c and tallies the outcome.
func (t *tracer) preload(c client, n int) error {
	failed, err := preload(c, n)
	t.attempted += n
	t.failed += failed
	return err
}

// wireHeap is the heap recipesrv builds its shards on.
var wireHeap = pmem.Options{Track: true}

// orderedTwin builds a preloaded P-ART front-end.
func (t *tracer) orderedTwin(n, shards int, heap pmem.Options) (*shard.Ordered, error) {
	m, err := shard.NewOrdered("P-ART", keys.YCSBString, shard.Options{Shards: shards, Heap: heap})
	if err != nil {
		return nil, err
	}
	return m, t.preload(&orderedClient{m: m}, n)
}

// hashTwin builds a preloaded P-CLHT front-end on the library heap.
func (t *tracer) hashTwin(n int) (*shard.Hash, error) {
	m, err := shard.NewHash("P-CLHT", shard.Options{Shards: libShards, Heap: libHeap})
	if err != nil {
		return nil, err
	}
	return m, t.preload(&hashClient{m: m}, n)
}

// byKind is the median of f(i) over the ops of one kind.
func byKind(ops []op, kind opKind, f func(i int) float64) float64 {
	var vs []float64
	for i, o := range ops {
		if o.kind == kind {
			vs = append(vs, f(i))
		}
	}
	return median(vs)
}

func medianNS(d []int64) float64 {
	vs := make([]float64, len(d))
	for i, v := range d {
		vs[i] = float64(v)
	}
	return median(vs)
}

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// batches times fn(n) — n calls of something — rounds times and returns
// the median ns per call.
func batches(rounds, n int, fn func(n int)) float64 {
	vs := make([]float64, rounds)
	for r := range vs {
		t0 := time.Now()
		fn(n)
		vs[r] = float64(time.Since(t0)) / float64(n)
	}
	return median(vs)
}

// tracePmem costs the heap primitives on the three heap flavours the
// stack runs on. persist is Dirty+Persist of one line; fence is what a
// Fence adds to that pair; alloc is what allocating the line fresh adds
// over re-dirtying an existing one.
func tracePmem(m map[string]measure, e env) {
	flavours := []struct {
		name string
		opts pmem.Options
		n    int
	}{
		{"fast", pmem.Options{}, 200_000},
		{"track", wireHeap, 20_000},
		{"delay", libHeap, 100_000},
	}
	for _, fl := range flavours {
		h := pmem.New(fl.opts)
		o := h.Alloc(pmem.LineSize)
		h.PersistFence(o, 0, pmem.LineSize)
		n := e.scaled(fl.n)
		persist := batches(9, n, func(n int) {
			for i := 0; i < n; i++ {
				h.Dirty(o, 0, pmem.LineSize)
				h.Persist(o, 0, pmem.LineSize)
			}
		})
		h.Fence()
		withFence := batches(9, n, func(n int) {
			for i := 0; i < n; i++ {
				h.Dirty(o, 0, pmem.LineSize)
				h.Persist(o, 0, pmem.LineSize)
				h.Fence()
			}
		})
		withAlloc := batches(9, n, func(n int) {
			for i := 0; i < n; i++ {
				a := h.Alloc(pmem.LineSize)
				h.Persist(a, 0, pmem.LineSize)
				h.Fence()
			}
		})
		m["pmem."+fl.name+".persist_ns"] = exact(persist)
		m["pmem."+fl.name+".fence_ns"] = exact(withFence - persist)
		m["pmem."+fl.name+".alloc_ns"] = exact(withAlloc - withFence)
		h.Release()
	}
}

// pointTrace is one point-op stream replayed level by level.
type pointTrace struct {
	ops                 []op
	idx, shd, srv, wire []int64 // per-op span durations, ns
	untracedTop         float64 // median ns of the ops after, untraced at the top level
}

// selfNS is the median over kind's ops of the outer span minus the inner.
func selfNS(ops []op, kind opKind, outer, inner []int64) float64 {
	return byKind(ops, kind, func(i int) float64 { return float64(outer[i] - inner[i]) })
}

// sideCosts are what traceOrdered measures beside the replays.
type sideCosts struct {
	routeNS     float64 // ns per m.Route of the stream's keys
	pingRTT     float64 // ns, median empty round trip
	parseNS     float64 // ns per ParseCommand of the stream's frames
	parseAllocs float64
	encodeNS    float64 // ns per request generated and encoded
	allocsPerOp float64 // process mallocs per op over the wire-level replay, minus the client's own
}

// traceOrdered replays a GET/SET/UPDATE stream against P-ART twins built
// as recipesrv builds them: index level, shard level, an in-process
// server on a loopback listener, and recipesrv itself. The in-process
// server costs the server package without the scheduler's share; the
// subprocess on top of it is what a client of the shipped binary sees.
func (t *tracer) traceOrdered(w workload, e env, seed int64, keep bool) (pointTrace, sideCosts, error) {
	w, ops, next := traceStream(w, e, seed)
	pt := pointTrace{ops: ops}
	var sc sideCosts
	for level := lvIndex; level <= lvShard; level++ {
		m, err := t.orderedTwin(w.loadN, libShards, wireHeap)
		if err != nil {
			return pt, sc, err
		}
		d, err := t.replay(&orderedClient{m: m, direct: level == lvIndex}, ops, uint8(level), keep)
		m.Release()
		if err != nil {
			return pt, sc, err
		}
		if level == lvIndex {
			pt.idx = d
		} else {
			pt.shd = d
		}
	}

	m, err := t.orderedTwin(w.loadN, libShards, wireHeap)
	if err != nil {
		return pt, sc, err
	}
	defer m.Release()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return pt, sc, err
	}
	srv := server.New(m, server.Options{IndexName: "P-ART"})
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	defer func() {
		srv.Shutdown()
		<-served
	}()
	c, err := dialWire(l.Addr().String())
	if err != nil {
		return pt, sc, err
	}
	defer c.nc.Close()

	router := &orderedClient{m: m}
	router.prepare(ops)
	sc.routeNS = batches(9, len(ops), func(n int) {
		for i := 0; i < n; i++ {
			m.Route(router.key(i))
		}
	})

	// The empty round trip: transport, connection loop and syscalls with
	// no work behind them.
	ping := server.AppendFrame(nil, [][]byte{[]byte("PING")})
	rtts := make([]int64, e.scaled(20_000))
	for i := range rtts {
		t0 := time.Now()
		if _, err := c.nc.Write(ping); err != nil {
			return pt, sc, err
		}
		line, err := c.br.ReadSlice('\n')
		if err != nil || string(line) != "+PONG\r\n" {
			return pt, sc, fmt.Errorf("PING: reply %q: %v", line, err)
		}
		rtts[i] = int64(time.Since(t0))
	}
	sc.pingRTT = medianNS(rtts)

	m0 := mallocs()
	if pt.srv, err = t.replay(c, ops, lvServer, keep); err != nil {
		return pt, sc, err
	}
	sc.allocsPerOp = float64(mallocs()-m0) / float64(len(ops))

	// The codec and the client alone, off the wire: the frames the
	// replay just sent are parsed back, and the client's issue loop runs
	// against canned replies to find the allocations that are its own.
	frames := append([]byte(nil), c.frame...)
	m0 = mallocs()
	const parseRounds = 5 // the collector shares the CPU; one round can hold a whole mark phase
	sc.parseNS = batches(parseRounds, len(ops), func(n int) {
		br := bufio.NewReader(bytes.NewReader(frames))
		for i := 0; i < n; i++ {
			if _, err := server.ParseCommand(br); err != nil {
				panic(err) // frames the server just accepted
			}
		}
	})
	sc.parseAllocs = float64(mallocs()-m0) / float64(parseRounds*len(ops))
	g := newGen(w, seed, 0, 1)
	buf := make([]op, len(ops))
	sc.encodeNS = batches(5, len(buf), func(n int) {
		g.fill(buf[:n])
		c.prepare(buf[:n])
	})
	var canned []byte
	for _, o := range c.ops {
		if o.kind == kRead {
			canned = append(append(append(canned, ':'), fmt.Sprint(o.val)...), '\r', '\n')
		} else {
			canned = append(canned, "+OK\r\n"...)
		}
	}
	alone := &wireClient{nc: discard{}, br: bufio.NewReader(bytes.NewReader(canned))}
	alone.prepare(c.ops)
	m0 = mallocs()
	if _, failed, err := alone.exec(1, 0, nil); err != nil || failed > 0 {
		return pt, sc, fmt.Errorf("client against canned replies: %d failed: %v", failed, err)
	}
	sc.allocsPerOp -= float64(mallocs()-m0) / float64(len(ops))

	one := e
	one.workers = 1
	sub, err := startWire(one)
	if err != nil {
		return pt, sc, err
	}
	defer sub.kill()
	wc := sub.clients()[0].(*wireClient)
	if err := t.preload(wc, w.loadN); err != nil {
		return pt, sc, err
	}
	if pt.wire, err = t.replay(wc, ops, lvWire, keep); err != nil {
		return pt, sc, err
	}
	if pt.untracedTop, err = t.untracedP50(wc, next); err != nil {
		return pt, sc, err
	}
	return pt, sc, sub.close()
}

// discard is a connection write side that goes nowhere.
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
func (discard) Close() error                { return nil }

// countWrites replays ops through c, reading the pmem counters around
// every write, and returns the per-kind counter totals and op counts.
// Single client, so the counts repeat exactly.
func (t *tracer) countWrites(c doer, stats func() pmem.Stats, ops []op) (per [numKinds]pmem.Stats, n [numKinds]int, err error) {
	c.prepare(ops)
	for i, o := range ops {
		write := o.kind == kInsert || o.kind == kUpdate
		var st0 pmem.Stats
		if write {
			st0 = stats()
		}
		ok, err := c.do(i)
		if err != nil {
			return per, n, err
		}
		if !ok {
			t.failed++
		}
		if write {
			per[o.kind] = per[o.kind].Add(stats().Sub(st0))
			n[o.kind]++
		}
	}
	t.attempted += len(ops)
	return per, n, nil
}

// window is the group size of the batched and async write paths' replay.
const window = 64

// traceWritePaths costs wire-write's writes through the three write
// paths recipesrv can be started with: synchronous point writes (from
// the shard-level replay and the counting twin), shard.Deferred group
// commits, and the commit pipeline's enqueue-then-wait, the latter two
// in windows of 64.
func (t *tracer) traceWritePaths(m map[string]measure, w workload, e env, seed int64, pt pointTrace, syncFences uint64) error {
	w, ops, _ := traceStream(w, e, seed)
	var writes []int
	for i, o := range ops {
		if o.kind == kInsert || o.kind == kUpdate {
			writes = append(writes, i)
		}
	}
	var syncNS []float64
	for _, i := range writes {
		syncNS = append(syncNS, float64(pt.shd[i]))
	}
	m["writepath.sync.ns_per_op"] = exact(median(syncNS))
	m["writepath.sync.ops_per_fence"] = exact(float64(len(writes)) / float64(syncFences))

	for _, path := range []string{"batched", "async"} {
		tw, err := t.orderedTwin(w.loadN, libShards, wireHeap)
		if err != nil {
			return err
		}
		keyOf := &orderedClient{m: tw}
		keyOf.prepare(ops)
		// enqueue hands one write to the path; settle returns once every
		// write enqueued since the last settle is fenced.
		var enqueue func(key []byte, o op) error
		var settle, finish func() error
		if path == "batched" {
			def := shard.NewDeferred(tw, window+1)
			enqueue = func(key []byte, o op) error {
				if o.kind == kUpdate {
					return def.Update(key, o.val)
				}
				return def.Insert(key, o.val)
			}
			settle, finish = def.Flush, func() error { return nil }
		} else {
			pipe := commit.NewOrdered(tw, commit.Options{})
			futs := make([]*commit.Future, 0, window)
			enqueue = func(key []byte, o op) error {
				apply := pipe.Insert
				if o.kind == kUpdate {
					apply = pipe.Update
				}
				f, err := apply(key, o.val)
				if err == nil {
					futs = append(futs, f)
				}
				return err
			}
			settle = func() (err error) {
				for _, f := range futs {
					err = errors.Join(err, f.Wait())
				}
				futs = futs[:0]
				return err
			}
			finish = pipe.Close
		}
		f0 := tw.Stats().Fence
		var perOp, ackWait []float64
		var errs error
		for lo := 0; lo+window <= len(writes); lo += window {
			t0 := time.Now()
			for _, i := range writes[lo : lo+window] {
				errs = errors.Join(errs, enqueue(keyOf.key(i), ops[i]))
			}
			t1 := time.Now()
			errs = errors.Join(errs, settle())
			t2 := time.Now()
			perOp = append(perOp, float64(t2.Sub(t0))/window)
			ackWait = append(ackWait, float64(t2.Sub(t1)))
			t.attempted += window
		}
		errs = errors.Join(errs, finish())
		fences := tw.Stats().Fence - f0
		tw.Release()
		if errs != nil {
			return fmt.Errorf("%s write path: %w", path, errs)
		}
		m["writepath."+path+".ns_per_op"] = exact(median(perOp))
		m["writepath."+path+".ops_per_fence"] = exact(float64(len(perOp)*window) / float64(fences))
		if path == "async" {
			m["writepath.async.ack_wait_ns"] = exact(median(ackWait))
		}
	}
	return nil
}

// traceCounts fills the per-write clwb/fence counts of both indexes and
// the H=4 over H=1 clwb-per-insert ratio, and returns the fences the
// synchronous write path spent on the ordered stream's writes.
func (t *tracer) traceCounts(m map[string]measure, e env, seed int64) (syncFences uint64, err error) {
	ww, _ := workloadByName("wire-write")
	ww, ops, _ := traceStream(ww, e, seed)
	var insertClwb [2]float64
	for i, shards := range []int{libShards, 1} {
		tw, err := t.orderedTwin(ww.loadN, shards, wireHeap)
		if err != nil {
			return 0, err
		}
		per, n, err := t.countWrites(&orderedClient{m: tw}, tw.Stats, ops)
		tw.Release()
		if err != nil {
			return 0, err
		}
		insertClwb[i] = float64(per[kInsert].Clwb) / float64(n[kInsert])
		if shards == 1 {
			break
		}
		for _, k := range []opKind{kInsert, kUpdate} {
			m["index.art."+k.String()+"_clwb"] = exact(float64(per[k].Clwb) / float64(n[k]))
			m["index.art."+k.String()+"_fence"] = exact(float64(per[k].Fence) / float64(n[k]))
		}
		syncFences = per[kInsert].Fence + per[kUpdate].Fence
	}
	m["shard.insert_clwb_ratio"] = exact(insertClwb[0] / insertClwb[1])

	hw, _ := workloadByName("lib-hash")
	hw, ops, _ = traceStream(hw, e, seed)
	tw, err := t.hashTwin(hw.loadN)
	if err != nil {
		return 0, err
	}
	defer tw.Release()
	per, n, err := t.countWrites(&hashClient{m: tw}, tw.Stats, ops)
	if err != nil {
		return 0, err
	}
	for _, k := range []opKind{kInsert, kUpdate} {
		m["index.clht."+k.String()+"_clwb"] = exact(float64(per[k].Clwb) / float64(n[k]))
		m["index.clht."+k.String()+"_fence"] = exact(float64(per[k].Fence) / float64(n[k]))
	}
	return syncFences, nil
}

// traceHash replays lib-hash's stream at the index and shard levels.
func (t *tracer) traceHash(e env, seed int64, keep bool) (pointTrace, error) {
	w, _ := workloadByName("lib-hash")
	w, ops, next := traceStream(w, e, seed)
	pt := pointTrace{ops: ops}
	for level := lvIndex; level <= lvShard; level++ {
		m, err := t.hashTwin(w.loadN)
		if err != nil {
			return pt, err
		}
		c := &hashClient{m: m, direct: level == lvIndex}
		d, err := t.replay(c, ops, uint8(level), keep)
		if err == nil && level == lvShard {
			pt.untracedTop, err = t.untracedP50(c, next)
		}
		m.Release()
		if err != nil {
			return pt, err
		}
		if level == lvIndex {
			pt.idx = d
		} else {
			pt.shd = d
		}
	}
	return pt, nil
}

// traceScan replays lib-scan's stream on one twin, twice: scans are
// reads, so the index-level pass (each scan on the shard that owns its
// start key) and the shard-level pass (the merged scan) see the same
// data; the second pass's inserts overwrite the first's.
func (t *tracer) traceScan(m map[string]measure, e env, seed int64, keep bool) (pointTrace, error) {
	w, _ := workloadByName("lib-scan")
	w, ops, next := traceStream(w, e, seed)
	pt := pointTrace{ops: ops}
	tw, err := t.orderedTwin(w.loadN, libShards, libHeap)
	if err != nil {
		return pt, err
	}
	defer tw.Release()
	if pt.idx, err = t.replay(&orderedClient{m: tw, direct: true}, ops, lvIndex, keep); err != nil {
		return pt, err
	}
	c := &orderedClient{m: tw}
	if pt.shd, err = t.replay(c, ops, lvShard, keep); err != nil {
		return pt, err
	}
	perEntry := func(d []int64) func(i int) float64 {
		return func(i int) float64 { return float64(d[i]) / float64(ops[i].n) }
	}
	m["index.art.scan_ns_per_entry"] = exact(byKind(ops, kScan, perEntry(pt.idx)))
	m["shard.scan.self_ns_per_entry"] = exact(byKind(ops, kScan, func(i int) float64 {
		return float64(pt.shd[i]-pt.idx[i]) / float64(ops[i].n)
	}))

	// Scans only, once more and untimed, for what one merged scan
	// visits and allocates.
	scans, entries := 0, 0
	m0 := mallocs()
	for i, o := range ops {
		if o.kind != kScan {
			continue
		}
		if ok, err := c.do(i); err != nil || !ok {
			return pt, fmt.Errorf("scan %d: wrong page: %v", i, err)
		}
		scans++
		entries += c.visited
	}
	m["shard.scan.allocs_per_scan"] = exact(float64(mallocs()-m0) / float64(scans))
	m["shard.scan.entries_per_scan"] = exact(float64(entries) / float64(scans))
	pt.untracedTop, err = t.untracedP50(c, next)
	return pt, err
}

// runTraced is the traced run of workload w: a shortened end-to-end
// measurement with tracing off (the client.* metrics and the untraced
// latency the trace is reconciled with), then every layer costed by
// replaying the four workloads' streams. Every per-layer metric is
// defined whichever workload is named; w selects the end-to-end
// measurement, the reconciliation, and the stream whose spans are
// written to outDir.
func runTraced(w workload, e env, seed int64, seconds float64, outDir string) (result, error) {
	res, err := runWorkload(w, e, seed, seconds/2, 1)
	if err != nil {
		return res, err
	}
	// The replays issue one call at a time at every level, so all of them
	// run on one CPU: the levels that cross a goroutine or a process then
	// cost the same wake-up whichever workload was named.
	if err := pinToOneCPU(); err != nil {
		return res, err
	}
	m := res.Metrics
	t := &tracer{base: time.Now()}
	tracePmem(m, e)

	// P-ART as recipesrv serves it: wire-write's stream has all three
	// point ops, so it costs the ordered index, shard and server layers.
	ww, _ := workloadByName("wire-write")
	pt, sc, err := t.traceOrdered(ww, e, seed, w.name == ww.name)
	if err != nil {
		return res, fmt.Errorf("trace wire-write stream: %w", err)
	}
	for _, k := range []opKind{kRead, kInsert, kUpdate} {
		name := k.String()
		m["index.art."+name+"_ns"] = exact(byKind(pt.ops, k, func(i int) float64 { return float64(pt.idx[i]) }))
		m["shard.ordered."+name+"_self_ns"] = exact(selfNS(pt.ops, k, pt.shd, pt.idx))
		m["server."+strings.ToLower(string(cmdNames[k]))+"_self_us"] = exact(selfNS(pt.ops, k, pt.srv, pt.shd) / 1e3)
	}
	m["os.process_hop_us"] = exact(byKind(pt.ops, kRead, func(i int) float64 { return float64(pt.wire[i] - pt.srv[i]) }) / 1e3)
	m["server.ping_rtt_us"] = exact(sc.pingRTT / 1e3)
	m["server.parse_ns"] = exact(sc.parseNS)
	m["server.parse_allocs"] = exact(sc.parseAllocs)
	m["server.allocs_per_op"] = exact(sc.allocsPerOp)

	m["shard.ordered.route_ns"] = exact(sc.routeNS)

	syncFences, err := t.traceCounts(m, e, seed)
	if err != nil {
		return res, fmt.Errorf("trace counts: %w", err)
	}
	if err := t.traceWritePaths(m, ww, e, seed, pt, syncFences); err != nil {
		return res, err
	}

	ht, err := t.traceHash(e, seed, w.sut == sutLibHash)
	if err != nil {
		return res, fmt.Errorf("trace lib-hash stream: %w", err)
	}
	for _, k := range []opKind{kRead, kInsert, kUpdate} {
		m["index.clht."+k.String()+"_ns"] = exact(byKind(ht.ops, k, func(i int) float64 { return float64(ht.idx[i]) }))
		m["shard.hash."+k.String()+"_self_ns"] = exact(selfNS(ht.ops, k, ht.shd, ht.idx))
	}
	st, err := t.traceScan(m, e, seed, w.sut == sutLibScan)
	if err != nil {
		return res, fmt.Errorf("trace lib-scan stream: %w", err)
	}

	// Reconciliation, on w's own stream and under the trace's own
	// conditions (one client, one request outstanding): what recording
	// spans costs the top level, and what of the top level no named
	// layer accounts for.
	var own pointTrace
	var top []int64
	var named float64
	switch w.sut {
	case sutWire:
		osc := sc
		if own = pt; w.name != ww.name {
			if own, osc, err = t.traceOrdered(w, e, seed, true); err != nil {
				return res, fmt.Errorf("trace %s stream: %w", w.name, err)
			}
		}
		m["client.encode_ns"] = exact(osc.encodeNS)
		top = own.wire
		hop := make([]int64, len(top))
		for i := range hop {
			hop[i] = own.wire[i] - own.srv[i]
		}
		named = medianNS(hop) + osc.pingRTT + osc.parseNS + medianNS(own.shd)
	case sutLibHash:
		own, top = ht, ht.shd
		named = medianNS(ht.idx) // routing is a hash of the integer key
	case sutLibScan:
		own, top = st, st.shd
		named = medianNS(st.idx) + m["shard.ordered.route_ns"].Value
	}
	if w.sut != sutWire {
		// A library client's "encoding" is generating the op.
		g := newGen(w, seed, 0, 1)
		buf := make([]op, e.scaled(w.traceOps))
		m["client.encode_ns"] = exact(batches(5, len(buf), func(n int) { g.fill(buf[:n]) }))
	}
	m["trace.overhead_share"] = exact((medianNS(top) - own.untracedTop) / own.untracedTop)
	m["trace.unattributed_share"] = exact((medianNS(top) - named) / medianNS(top))

	if err := t.writeSpans(outDir, w.name); err != nil {
		return res, err
	}
	res.Attempted += t.attempted
	res.Failed += t.failed
	res.Correct = res.Failed == 0
	return res, nil
}
