// Package loadgen is the client-side open-loop load generator for the
// serving tier: it drives a recipesrv-compatible endpoint at a target
// aggregate QPS with Poisson arrivals, the way production traffic
// arrives — send times follow the arrival schedule, not the replies,
// so a slow server faces a growing backlog instead of a politely
// waiting client (the closed-loop coordinated-omission trap the
// ROADMAP calls out).
//
// Each of Conns connections runs an independent Poisson process of
// rate QPS/Conns (their superposition is Poisson at QPS): a sender
// draws exponential inter-arrival gaps, picks an operation kind by the
// configured mix and a key by the configured ycsb.Distribution
// sampler, and pipelines the request; a receiver consumes replies in
// order and tallies outcomes per kind. At the end of the run every
// sender half-closes its connection (CloseWrite) and the receiver
// drains the remaining replies — a missing reply for an accepted
// request is a reported deficit, which is how the CI smoke proves
// clean server drain.
//
// Key identifiers are scattered through keys.Mix64 and rendered as
// fixed-width hex, so hot identifiers land on arbitrary shards and
// range partitioning sees a uniform key space.
package loadgen

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/keys"
	"repro/internal/server"
	"repro/internal/ycsb"
)

// Kind is the operation kind axis of the report.
type Kind int

// Operation kinds the generator issues.
const (
	KindRead Kind = iota
	KindInsert
	KindUpdate
	KindScan
	KindDelete
	numKinds
)

// String names the kind for reports.
func (k Kind) String() string {
	switch k {
	case KindRead:
		return "read"
	case KindInsert:
		return "insert"
	case KindUpdate:
		return "update"
	case KindScan:
		return "scan"
	case KindDelete:
		return "delete"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Options configures a load run.
type Options struct {
	// Addr is the server's TCP address.
	Addr string
	// Conns is the number of client connections (workers). Values < 1
	// select 4.
	Conns int
	// QPS is the target aggregate arrival rate. Must be positive.
	QPS float64
	// Duration is the measured open-loop window.
	Duration time.Duration
	// LoadN preloads keys [0, LoadN) with SET before the window opens
	// (skipped when 0). Read-like ops sample from this population.
	LoadN int
	// Dist picks which existing key read-like operations target; nil
	// selects ycsb.Uniform.
	Dist ycsb.Distribution
	// Seed drives arrivals, op mix and key choice deterministically.
	Seed int64
	// ReadFrac, InsertFrac, UpdateFrac, ScanFrac, DeleteFrac define the
	// op mix; they must sum to at most 1 and reads absorb the
	// remainder. All zero selects 90/5/5 read/insert/update.
	ReadFrac, InsertFrac, UpdateFrac, ScanFrac, DeleteFrac float64
	// ScanLen is the SCAN page size (default 16).
	ScanLen int
	// DialRetry bounds how long the first dial retries a refused
	// connection (server still starting). Default 2s.
	DialRetry time.Duration
}

func (o Options) conns() int {
	if o.Conns < 1 {
		return 4
	}
	return o.Conns
}

func (o Options) scanLen() int {
	if o.ScanLen < 1 {
		return 16
	}
	return o.ScanLen
}

func (o Options) dist() ycsb.Distribution {
	if o.Dist == nil {
		return ycsb.Uniform{}
	}
	return o.Dist
}

func (o Options) mix() (cum [numKinds]float64, err error) {
	r, i, u, s, d := o.ReadFrac, o.InsertFrac, o.UpdateFrac, o.ScanFrac, o.DeleteFrac
	if r == 0 && i == 0 && u == 0 && s == 0 && d == 0 {
		r, i, u = 0.90, 0.05, 0.05
	}
	sum := r + i + u + s + d
	if sum > 1+1e-9 || i < 0 || u < 0 || s < 0 || d < 0 || r < 0 {
		return cum, fmt.Errorf("loadgen: op fractions sum to %v (> 1) or are negative", sum)
	}
	// Reads absorb any remainder; cumulative thresholds in draw order.
	r += 1 - sum
	cum[KindInsert] = i
	cum[KindUpdate] = i + u
	cum[KindScan] = i + u + s
	cum[KindDelete] = i + u + s + d
	cum[KindRead] = 1 // remainder
	return cum, nil
}

// KindCount is one op kind's tally.
type KindCount struct {
	// Ops counts replies received for this kind.
	Ops uint64
	// Errors counts error replies among them.
	Errors uint64
}

// Report is one load run's outcome.
type Report struct {
	// Target is the configured aggregate QPS.
	Target float64
	// Achieved is completed operations per second of elapsed wall time
	// (including the drain tail).
	Achieved float64
	// Sent and Done count requests written and replies received; after
	// a clean run and drain they are equal.
	Sent, Done uint64
	// Late counts arrivals dispatched more than 1ms behind their
	// open-loop schedule (the generator fell behind, not the server).
	Late uint64
	// Elapsed is the wall time from window open to last reply.
	Elapsed time.Duration
	// Kinds tallies replies per op kind.
	Kinds [5]KindCount
	// ProtoErrors counts replies that failed to parse or had an
	// impossible shape — any non-zero value is a server bug.
	ProtoErrors uint64
	// ErrorCodes tallies error replies by typed code (ERR, UNAVAIL,
	// SHUTDOWN).
	ErrorCodes map[string]uint64
	// PreloadErrors counts failed preload SETs.
	PreloadErrors uint64
}

// TotalErrors sums error replies across kinds.
func (r Report) TotalErrors() uint64 {
	n := uint64(0)
	for _, k := range r.Kinds {
		n += k.Errors
	}
	return n
}

// Deficit is Sent - Done: accepted requests whose reply never arrived.
// Non-zero after a drain means the server dropped acknowledged work.
func (r Report) Deficit() uint64 { return r.Sent - r.Done }

func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "target=%.0f qps achieved=%.0f qps sent=%d done=%d deficit=%d late=%d elapsed=%v\n",
		r.Target, r.Achieved, r.Sent, r.Done, r.Deficit(), r.Late, r.Elapsed.Round(time.Millisecond))
	for k := KindRead; k < numKinds; k++ {
		kc := r.Kinds[k]
		if kc.Ops == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-7s ops=%-8d errors=%d\n", k.String(), kc.Ops, kc.Errors)
	}
	if len(r.ErrorCodes) > 0 {
		codes := make([]string, 0, len(r.ErrorCodes))
		for c := range r.ErrorCodes {
			codes = append(codes, c)
		}
		sort.Strings(codes)
		b.WriteString("  error codes:")
		for _, c := range codes {
			fmt.Fprintf(&b, " %s=%d", c, r.ErrorCodes[c])
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "  proto errors=%d preload errors=%d\n", r.ProtoErrors, r.PreloadErrors)
	return b.String()
}

// Key renders identifier id as its wire key: "k" + 16 hex digits of
// the mixed id — fixed width, scattered across the key space.
func Key(id uint64) []byte { return AppendKey(nil, id) }

// AppendKey appends Key(id) to dst.
func AppendKey(dst []byte, id uint64) []byte {
	m := keys.Mix64(id)
	dst = append(dst, 'k')
	for sh := 60; sh >= 0; sh -= 4 {
		dst = append(dst, "0123456789abcdef"[(m>>uint(sh))&0xf])
	}
	return dst
}

// Run preloads (when LoadN > 0), opens the window, drives the
// open-loop schedule, drains, and reports. It returns an error only
// for configuration or connection-establishment failures; server-side
// error replies are counted in the report instead.
func Run(o Options) (Report, error) {
	cum, err := o.mix()
	if err != nil {
		return Report{}, err
	}
	if o.QPS <= 0 {
		return Report{}, fmt.Errorf("loadgen: QPS must be positive, got %v", o.QPS)
	}
	if o.Duration <= 0 {
		return Report{}, fmt.Errorf("loadgen: Duration must be positive, got %v", o.Duration)
	}
	rep := Report{Target: o.QPS, ErrorCodes: make(map[string]uint64)}
	if o.LoadN > 0 {
		if err := preload(o, &rep); err != nil {
			return rep, err
		}
	}
	conns := o.conns()
	workers := make([]*worker, conns)
	for i := range workers {
		nc, err := dial(o)
		if err != nil {
			for _, w := range workers[:i] {
				w.nc.Close()
			}
			return rep, err
		}
		workers[i] = newWorker(o, nc, i, cum)
	}
	var nextInsert atomic.Uint64
	nextInsert.Store(uint64(o.LoadN))
	start := time.Now()
	deadline := start.Add(o.Duration)
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			w.run(start, deadline, &nextInsert)
		}(w)
	}
	wg.Wait()
	end := start
	for _, w := range workers {
		rep.Sent += w.sent
		rep.Done += w.done
		rep.Late += w.late
		rep.ProtoErrors += w.protoErrs
		for k := range w.kinds {
			rep.Kinds[k].Ops += w.kinds[k].Ops
			rep.Kinds[k].Errors += w.kinds[k].Errors
		}
		for code, n := range w.codes {
			rep.ErrorCodes[code] += n
		}
		if w.lastReply.After(end) {
			end = w.lastReply
		}
	}
	rep.Elapsed = end.Sub(start)
	if rep.Elapsed > 0 {
		rep.Achieved = float64(rep.Done) / rep.Elapsed.Seconds()
	}
	return rep, nil
}

// dial connects, retrying refused connections for DialRetry (the CI
// smoke starts client and server near-simultaneously).
func dial(o Options) (net.Conn, error) {
	retry := o.DialRetry
	if retry <= 0 {
		retry = 2 * time.Second
	}
	deadline := time.Now().Add(retry)
	for {
		nc, err := net.Dial("tcp", o.Addr)
		if err == nil {
			return nc, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("loadgen: dial %s: %w", o.Addr, err)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// preload pipelines SET id for ids [0, LoadN) over one connection,
// flushing in windows, and verifies every reply.
func preload(o Options, rep *Report) error {
	nc, err := dial(o)
	if err != nil {
		return err
	}
	defer nc.Close()
	bw := bufio.NewWriterSize(nc, 1<<16)
	br := bufio.NewReaderSize(nc, 1<<16)
	const window = 512
	var frame []byte
	var val [20]byte
	pendingReplies := 0
	settle := func() error {
		if err := bw.Flush(); err != nil {
			return fmt.Errorf("loadgen: preload flush: %w", err)
		}
		for ; pendingReplies > 0; pendingReplies-- {
			rp, err := server.ReadReply(br)
			if err != nil {
				return fmt.Errorf("loadgen: preload reply: %w", err)
			}
			if rp.Kind != server.ReplySimple {
				rep.PreloadErrors++
			}
		}
		return nil
	}
	for id := 0; id < o.LoadN; id++ {
		frame = frame[:0]
		frame = append(frame, "*3\r\n$3\r\nSET\r\n$17\r\n"...)
		frame = AppendKey(frame, uint64(id))
		frame = append(frame, '\r', '\n')
		v := strconv.AppendUint(val[:0], uint64(id), 10)
		frame = append(frame, '$')
		frame = strconv.AppendInt(frame, int64(len(v)), 10)
		frame = append(frame, '\r', '\n')
		frame = append(frame, v...)
		frame = append(frame, '\r', '\n')
		if _, err := bw.Write(frame); err != nil {
			return fmt.Errorf("loadgen: preload write: %w", err)
		}
		if pendingReplies++; pendingReplies >= window {
			if err := settle(); err != nil {
				return err
			}
		}
	}
	return settle()
}

// worker is one connection's open-loop state.
type worker struct {
	o       Options
	nc      net.Conn
	bw      *bufio.Writer
	br      *bufio.Reader
	rng     *rand.Rand
	sampler ycsb.Sampler
	cum     [numKinds]float64
	gapMean float64 // mean inter-arrival in seconds (conn-local rate)

	expect chan Kind // kinds of requests in flight, in order

	// Sender-side tallies.
	sent, late uint64
	// Receiver-side tallies.
	done, protoErrs uint64
	kinds           [numKinds]KindCount
	codes           map[string]uint64
	lastReply       time.Time
}

func newWorker(o Options, nc net.Conn, i int, cum [numKinds]float64) *worker {
	rng := rand.New(rand.NewSource(o.Seed + int64(i)*0x9e3779b9))
	return &worker{
		o:       o,
		nc:      nc,
		bw:      bufio.NewWriterSize(nc, 1<<15),
		br:      bufio.NewReaderSize(nc, 1<<15),
		rng:     rng,
		sampler: o.dist().NewSampler(o.LoadN, rng),
		cum:     cum,
		gapMean: float64(o.conns()) / o.QPS,
		expect:  make(chan Kind, 8192),
		codes:   make(map[string]uint64),
	}
}

// run drives the worker's Poisson schedule until the deadline, then
// half-closes and drains.
func (w *worker) run(start, deadline time.Time, nextInsert *atomic.Uint64) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.receive()
	}()
	next := start
	var frame []byte
	for {
		// Exponential gap: Poisson arrivals at the conn-local rate.
		next = next.Add(time.Duration(w.rng.ExpFloat64() * w.gapMean * float64(time.Second)))
		if next.After(deadline) {
			break
		}
		if d := time.Until(next); d > 0 {
			// About to idle: push buffered requests to the server first,
			// so pipelining never trades latency for the schedule.
			w.bw.Flush()
			time.Sleep(d)
		} else if d < -time.Millisecond {
			w.late++
		}
		kind, args := w.draw(nextInsert)
		frame = server.AppendFrame(frame[:0], args)
		if _, err := w.bw.Write(frame); err != nil {
			break // connection gone (server crash test); receiver sees EOF
		}
		w.sent++
		w.expect <- kind
	}
	w.bw.Flush()
	close(w.expect)
	// Half-close: no more requests, replies still flow — the server's
	// EOF drain path settles and answers everything accepted.
	if tc, ok := w.nc.(*net.TCPConn); ok {
		tc.CloseWrite()
	}
	<-done
	w.nc.Close()
}

// draw picks one operation and materialises its wire arguments.
func (w *worker) draw(nextInsert *atomic.Uint64) (Kind, [][]byte) {
	u := w.rng.Float64()
	var kind Kind
	switch {
	case u < w.cum[KindInsert]:
		kind = KindInsert
	case u < w.cum[KindUpdate]:
		kind = KindUpdate
	case u < w.cum[KindScan]:
		kind = KindScan
	case u < w.cum[KindDelete]:
		kind = KindDelete
	default:
		kind = KindRead
	}
	switch kind {
	case KindInsert:
		id := nextInsert.Add(1) - 1
		w.sampler.NoteInsert(id)
		return kind, [][]byte{[]byte("SET"), Key(id), []byte(strconv.FormatUint(id, 10))}
	case KindUpdate:
		id := w.sampler.Next()
		return kind, [][]byte{[]byte("UPDATE"), Key(id), []byte(strconv.FormatUint(id^0x5a5a, 10))}
	case KindScan:
		id := w.sampler.Next()
		return kind, [][]byte{[]byte("SCAN"), Key(id), []byte(strconv.Itoa(w.o.scanLen()))}
	case KindDelete:
		id := w.sampler.Next()
		return kind, [][]byte{[]byte("DEL"), Key(id)}
	default:
		id := w.sampler.Next()
		return kind, [][]byte{[]byte("GET"), Key(id)}
	}
}

// receive consumes one reply per expected request, classifying
// outcomes; it exits when the sender closes the expectation stream and
// every in-flight reply arrived (or the connection died).
func (w *worker) receive() {
	for kind := range w.expect {
		rp, err := server.ReadReply(w.br)
		if err != nil {
			// Connection died with replies owed (server crash): the
			// remaining expectations are the deficit.
			for range w.expect {
			}
			return
		}
		w.lastReply = time.Now()
		w.done++
		kc := &w.kinds[kind]
		kc.Ops++
		if rp.Kind == server.ReplyError {
			kc.Errors++
			w.codes[rp.ErrorCode()]++
			continue
		}
		if !plausible(kind, rp) {
			w.protoErrs++
		}
	}
}

// plausible checks a success reply's shape against its op kind.
func plausible(kind Kind, rp server.Reply) bool {
	switch kind {
	case KindRead:
		return rp.Kind == server.ReplyInt || (rp.Kind == server.ReplyBulk && rp.Null)
	case KindInsert, KindUpdate:
		return rp.Kind == server.ReplySimple
	case KindDelete:
		return rp.Kind == server.ReplyInt
	case KindScan:
		return rp.Kind == server.ReplyArray && len(rp.Elems) == 2
	}
	return false
}
