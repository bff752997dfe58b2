package commit_test

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/commit"
	"repro/internal/crash"
	"repro/internal/group"
	"repro/internal/keys"
	"repro/internal/pmem"
	"repro/shard"
)

// watchdog bounds on anything that could hang: a deadlocked committer
// must fail the test, not wedge the run.
const guardTimeout = 30 * time.Second

// waitGuarded waits for f with the watchdog.
func waitGuarded(t *testing.T, f *commit.Future) error {
	t.Helper()
	select {
	case <-f.Done():
		return f.Err()
	case <-time.After(guardTimeout):
		t.Fatal("future wait timed out — pipeline hung")
		return nil
	}
}

// closeGuarded closes with the watchdog.
func closeGuarded(t *testing.T, close func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- close() }()
	select {
	case err := <-done:
		return err
	case <-time.After(guardTimeout):
		t.Fatal("Close timed out — graceful drain hung")
		return nil
	}
}

// oneShard starts the pipeline over a one-shard P-ART front-end on a
// heap made with o, and returns its one committer and the front-end.
func oneShard(t *testing.T, o pmem.Options, opts commit.Options) (*commit.Committer[group.Op[[]byte]], *shard.Ordered) {
	t.Helper()
	m, err := shard.NewOrdered("P-ART", keys.RandInt, shard.Options{Heap: o})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Release)
	return commit.NewOrdered(m, opts).Committer(0), m
}

// TestAckAfterFence: a future that resolved nil is durable — at every
// acknowledgment point the flush tracker reports no dirty unfenced
// line, and every acked key reads back.
func TestAckAfterFence(t *testing.T) {
	c, idx := oneShard(t, pmem.Options{Track: true}, commit.Options{Queue: 32, MaxBatch: 8})
	heap := idx.Heap(0)
	gen := keys.NewGenerator(keys.RandInt)

	const n = 200
	futs := make([]*commit.Future, n)
	for i := 0; i < n; i++ {
		f, err := c.Enqueue(group.Op[[]byte]{Key: gen.Key(uint64(i)), Value: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		futs[i] = f
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	for i, f := range futs {
		if err := f.Err(); err != nil {
			t.Fatalf("future %d after Drain: %v", i, err)
		}
	}
	// Every ack implies its covering fence retired, so after the drain
	// barrier nothing durable is outstanding.
	if v := heap.Tracker().Check(); len(v) != 0 {
		t.Fatalf("acked writes left %d undurable lines: %v", len(v), v)
	}
	for i := 0; i < n; i++ {
		if v, ok := idx.Lookup(gen.Key(uint64(i))); !ok || v != uint64(i) {
			t.Fatalf("acked key %d: ok=%v v=%d", i, ok, v)
		}
	}
	if err := closeGuarded(t, c.Close); err != nil {
		t.Fatal(err)
	}
}

// gatedApply is an apply function a test can stall: each batch signals
// entered, then blocks until the gate is opened.
type gatedApply struct {
	entered chan struct{}
	gate    chan struct{}
	applied atomic.Int64
}

func newGatedApply() *gatedApply {
	return &gatedApply{entered: make(chan struct{}, 64), gate: make(chan struct{})}
}

func (g *gatedApply) apply(ops []group.Op[[]byte], obs group.Observer) error {
	g.entered <- struct{}{}
	<-g.gate
	g.applied.Add(int64(len(ops)))
	return nil
}

// fill stalls the committer in one in-flight batch and fills the
// queue: enqueue one op, wait for the committer to take it into apply,
// then enqueue `queue` more to occupy every slot.
func fill(t *testing.T, c *commit.Committer[group.Op[[]byte]], g *gatedApply, queue int) {
	t.Helper()
	if _, err := c.Enqueue(group.Op[[]byte]{Key: []byte("k0"), Value: 0}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-g.entered:
	case <-time.After(guardTimeout):
		t.Fatal("committer never entered apply")
	}
	for i := 0; i < queue; i++ {
		if _, err := c.Enqueue(group.Op[[]byte]{Key: []byte(fmt.Sprintf("k%d", i+1)), Value: uint64(i + 1)}); err != nil {
			t.Fatalf("filling enqueue %d: %v", i, err)
		}
	}
}

// TestBlockPolicy: a full queue blocks the enqueuer until the
// committer frees space — and completes rather than hanging.
func TestBlockPolicy(t *testing.T) {
	g := newGatedApply()
	c := commit.NewCommitter(g.apply, commit.Options{Queue: 2, MaxBatch: 1})
	fill(t, c, g, 2)

	unblocked := make(chan *commit.Future, 1)
	go func() {
		f, err := c.Enqueue(group.Op[[]byte]{Key: []byte("blocked")})
		if err != nil {
			panic(err)
		}
		unblocked <- f
	}()
	select {
	case <-unblocked:
		t.Fatal("enqueue on a full queue did not block")
	case <-time.After(50 * time.Millisecond):
	}

	close(g.gate)
	select {
	case f := <-unblocked:
		if err := waitGuarded(t, f); err != nil {
			t.Fatal(err)
		}
	case <-time.After(guardTimeout):
		t.Fatal("blocked enqueue never unblocked")
	}
	if err := closeGuarded(t, c.Close); err != nil {
		t.Fatal(err)
	}
}

// TestFlushIntervalBoundsStaleness: with a huge MaxBatch a trickle of
// writes must not wait for a full batch — the flush deadline commits
// the partial batch.
func TestFlushIntervalBoundsStaleness(t *testing.T) {
	c, idx := oneShard(t, pmem.Options{}, commit.Options{
		Queue: 1024, MaxBatch: 1024, FlushInterval: 20 * time.Millisecond,
	})
	gen := keys.NewGenerator(keys.RandInt)

	for i := 0; i < 3; i++ {
		f, err := c.Enqueue(group.Op[[]byte]{Key: gen.Key(uint64(i)), Value: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if err := waitGuarded(t, f); err != nil {
			t.Fatal(err)
		}
		if v, ok := idx.Lookup(gen.Key(uint64(i))); !ok || v != uint64(i) {
			t.Fatalf("trickle key %d after ack: ok=%v v=%d", i, ok, v)
		}
	}
	if err := closeGuarded(t, c.Close); err != nil {
		t.Fatal(err)
	}
}

// TestGracefulDrain is the shutdown guarantee: after Close returns,
// every accepted future is resolved, post-close enqueues fail with
// ErrClosed, and the committer goroutine has exited (no leak).
func TestGracefulDrain(t *testing.T) {
	gen := keys.NewGenerator(keys.RandInt)
	baseline := runtime.NumGoroutine()

	c, idx := oneShard(t, pmem.Options{}, commit.Options{Queue: 32, MaxBatch: 8})

	const n = 500
	futs := make([]*commit.Future, n)
	for i := 0; i < n; i++ {
		f, err := c.Enqueue(group.Op[[]byte]{Key: gen.Key(uint64(i)), Value: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		futs[i] = f
	}
	if err := closeGuarded(t, c.Close); err != nil {
		t.Fatal(err)
	}

	// No future unresolved, every accepted op durable and readable.
	for i, f := range futs {
		if err := f.Err(); errors.Is(err, commit.ErrPending) {
			t.Fatalf("future %d unresolved after Close", i)
		} else if err != nil {
			t.Fatalf("future %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		if v, ok := idx.Lookup(gen.Key(uint64(i))); !ok || v != uint64(i) {
			t.Fatalf("key %d lost across Close: ok=%v v=%d", i, ok, v)
		}
	}

	// Post-close enqueues fail typed, without a future.
	if f, err := c.Enqueue(group.Op[[]byte]{Key: gen.Key(0)}); !errors.Is(err, commit.ErrClosed) || f != nil {
		t.Fatalf("post-close enqueue = (%v, %v), want (nil, ErrClosed)", f, err)
	}
	if err := c.Drain(); !errors.Is(err, commit.ErrClosed) {
		t.Fatalf("post-close drain = %v, want ErrClosed", err)
	}
	// Close is idempotent.
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	// The committer goroutine exited: the count returns to baseline
	// (with retries — exiting goroutines need a scheduler beat).
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > baseline {
		t.Fatalf("goroutines after Close = %d, baseline %d — committer leaked", got, baseline)
	}
}

// TestDrainUnderFire races concurrent enqueuers against Close:
// every enqueue must end in a durably-resolved future or a typed
// rejection — never a hang, never a lost ack.
func TestDrainUnderFire(t *testing.T) {
	m, err := shard.NewOrdered("P-ART", keys.RandInt, shard.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	p := commit.NewOrdered(m, commit.Options{Queue: 16, MaxBatch: 8})
	gen := keys.NewGenerator(keys.RandInt)

	const writers = 8
	type acked struct {
		id  uint64
		fut *commit.Future
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		accepted []acked
		started  atomic.Int64
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				id := uint64(w*1_000_000 + i)
				f, err := p.Insert(gen.Key(id), id)
				started.Add(1)
				switch {
				case err == nil:
					mu.Lock()
					accepted = append(accepted, acked{id: id, fut: f})
					mu.Unlock()
				case errors.Is(err, commit.ErrClosed):
					return // the race resolved: typed rejection
				default:
					panic(fmt.Sprintf("writer %d: unexpected enqueue error %v", w, err))
				}
			}
		}(w)
	}

	// Let the enqueuers get going, then slam the door mid-stream.
	for started.Load() < 2_000 {
		time.Sleep(time.Millisecond)
	}
	if err := closeGuarded(t, p.Close); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	if len(accepted) == 0 {
		t.Fatal("no enqueue was accepted before Close")
	}
	for _, a := range accepted {
		if err := a.fut.Err(); errors.Is(err, commit.ErrPending) {
			t.Fatalf("accepted future for id %d unresolved after Close", a.id)
		} else if err != nil {
			t.Fatalf("accepted future for id %d failed: %v", a.id, err)
		}
		// Resolved nil = acked = must read back.
		if v, ok := m.Lookup(gen.Key(a.id)); !ok || v != a.id {
			t.Fatalf("acked id %d lost across Close: ok=%v v=%d", a.id, ok, v)
		}
	}
}

// TestCommitterDeathContainment: a panic escaping the apply function
// kills that committer without deadlocking anyone — the in-flight
// batch and everything queued resolve with *CommitterError, the
// quarantine hook fires once, and Close returns the cause.
func TestCommitterDeathContainment(t *testing.T) {
	var batches atomic.Int64
	var quarantined atomic.Int64
	var quarCause error
	apply := func(ops []group.Op[[]byte], obs group.Observer) error {
		if batches.Add(1) == 2 {
			panic("wild pointer in batch 2")
		}
		return nil
	}
	c := commit.NewShardCommitter(apply, commit.Options{Queue: 8, MaxBatch: 1}, 3,
		func(cause error) { quarantined.Add(1); quarCause = cause })

	f1, err := c.Enqueue(group.Op[[]byte]{Key: []byte("a")})
	if err != nil {
		t.Fatal(err)
	}
	if err := waitGuarded(t, f1); err != nil {
		t.Fatalf("batch 1: %v", err)
	}

	f2, err := c.Enqueue(group.Op[[]byte]{Key: []byte("b")})
	if err != nil {
		t.Fatal(err)
	}
	werr := waitGuarded(t, f2)
	if !errors.Is(werr, commit.ErrCommitterFailed) {
		t.Fatalf("in-flight future after panic: %v, want ErrCommitterFailed", werr)
	}
	var ce *commit.CommitterError
	if !errors.As(werr, &ce) || ce.Shard != 3 {
		t.Fatalf("error %v does not carry the shard label", werr)
	}

	// A dead committer keeps consuming: post-death enqueues are accepted
	// (the caller cannot know yet) and fail typed, promptly.
	f3, err := c.Enqueue(group.Op[[]byte]{Key: []byte("c")})
	if err != nil {
		t.Fatal(err)
	}
	if err := waitGuarded(t, f3); !errors.Is(err, commit.ErrCommitterFailed) {
		t.Fatalf("post-death future: %v, want ErrCommitterFailed", err)
	}

	if err := closeGuarded(t, c.Close); !errors.Is(err, commit.ErrCommitterFailed) {
		t.Fatalf("Close after death = %v, want the death cause", err)
	}
	if got := quarantined.Load(); got != 1 {
		t.Fatalf("quarantine hook fired %d times, want 1", got)
	}
	if !errors.Is(quarCause, commit.ErrCommitterFailed) {
		t.Fatalf("quarantine cause = %v", quarCause)
	}
}

// TestQuarantinedShardFailsFutures: ops routed to a quarantined shard
// resolve with the shard's typed unavailability error instead of
// hanging, while the healthy shards keep acking.
func TestQuarantinedShardFailsFutures(t *testing.T) {
	m, err := shard.NewOrdered("P-ART", keys.RandInt, shard.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	cause := errors.New("image rejected")
	m.Quarantine(1, cause)
	p := commit.NewOrdered(m, commit.Options{Queue: 8, MaxBatch: 4})
	gen := keys.NewGenerator(keys.RandInt)

	blocked, served := 0, 0
	for id := uint64(0); id < 200; id++ {
		key := gen.Key(id)
		f, err := p.Insert(key, id)
		if err != nil {
			t.Fatal(err)
		}
		werr := waitGuarded(t, f)
		if m.Route(key) == 1 {
			if !errors.Is(werr, shard.ErrShardUnavailable) {
				t.Fatalf("quarantined-shard future: %v, want ErrShardUnavailable", werr)
			}
			var se *shard.ShardUnavailableError
			if !errors.As(werr, &se) || se.Shard != 1 {
				t.Fatalf("error %v does not carry shard 1", werr)
			}
			blocked++
			continue
		}
		if werr != nil {
			t.Fatalf("healthy-shard future: %v", werr)
		}
		served++
	}
	if blocked == 0 || served == 0 {
		t.Fatalf("both paths must be exercised (blocked=%d served=%d)", blocked, served)
	}
	if err := closeGuarded(t, p.Close); err != nil {
		t.Fatalf("Close with a quarantined shard should be clean (no committer died): %v", err)
	}
}

// TestCrashSiteAckFenced: an injected crash between the covering fence
// and the ack withholds the acknowledgment (futures fail typed) even
// though the batch is durable — the safe direction of the ack
// contract. The shard quarantines; recovery heals it.
func TestCrashSiteAckFenced(t *testing.T) {
	m, err := shard.NewOrdered("P-ART", keys.RandInt, shard.Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	inj := crash.NewAtSite(commit.SiteAckFenced, 1)
	m.Heap(0).SetInjector(inj)
	p := commit.NewOrdered(m, commit.Options{Queue: 16, MaxBatch: 4})
	gen := keys.NewGenerator(keys.RandInt)

	futs := make([]*commit.Future, 8)
	for i := range futs {
		f, err := p.Insert(gen.Key(uint64(i)), uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		futs[i] = f
	}
	if err := closeGuarded(t, p.Close); err == nil {
		t.Fatal("Close after an injected committer crash returned nil")
	}
	if !inj.Fired() {
		t.Fatal("ack-fenced site never fired")
	}
	if len(m.Quarantined()) != 1 {
		t.Fatalf("crashed committer did not quarantine its shard: %v", m.Quarantined())
	}

	unacked := 0
	for i, f := range futs {
		err := f.Err()
		if errors.Is(err, commit.ErrPending) {
			t.Fatalf("future %d unresolved after Close", i)
		}
		if err != nil {
			if !errors.Is(err, commit.ErrCommitterFailed) || !crash.IsCrash(err) {
				t.Fatalf("future %d error %v, want committer-failed wrapping the crash", i, err)
			}
			unacked++
		}
	}
	if unacked == 0 {
		t.Fatal("a crash before the ack must leave unacked futures")
	}

	// Restart: the machine recovers and the durable-but-unacked batch is
	// allowed (not required) to be present — never torn.
	m.Heap(0).SetInjector(nil)
	if err := m.RecoverShard(0); err != nil {
		t.Fatal(err)
	}
	for i := range futs {
		if v, ok := m.Lookup(gen.Key(uint64(i))); ok && v != uint64(i) {
			t.Fatalf("key %d present with wrong value %d after crash", i, v)
		}
	}
}

// TestCrashSitesDiscovered: a committer drain visits both commit crash
// sites, the two TestLossyPipeline crashes at.
func TestCrashSitesDiscovered(t *testing.T) {
	m, err := shard.NewOrdered("P-ART", keys.RandInt, shard.Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	inj := crash.NewProbabilistic(0, 1) // records sites, never fires
	m.Heap(0).SetInjector(inj)
	p := commit.NewOrdered(m, commit.Options{Queue: 16, MaxBatch: 4})
	gen := keys.NewGenerator(keys.RandInt)

	for i := uint64(0); i < 64; i++ {
		if _, err := p.Insert(gen.Key(i), i); err != nil {
			t.Fatal(err)
		}
	}
	if err := closeGuarded(t, p.Close); err != nil {
		t.Fatal(err)
	}
	sites := inj.Sites()
	for _, site := range []string{commit.SiteDrainApplied, commit.SiteAckFenced, group.SiteOpApplied, group.SiteCommitFenced} {
		if sites[site] == 0 {
			t.Errorf("site %q never visited (sites: %v)", site, sites)
		}
	}
}

// TestDrainCutsFlushWait: a Drain commits what is pending at once — the
// barrier ends the batch's wait for the flush interval.
func TestDrainCutsFlushWait(t *testing.T) {
	m, err := shard.NewOrdered("P-ART", keys.RandInt, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	p := commit.NewOrdered(m, commit.Options{FlushInterval: 2 * time.Second})
	defer p.Close()
	f, err := p.Insert([]byte("pending"), 1)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("Drain of one pending op took %v under a 2s flush interval", took)
	}
	if err := f.Err(); err != nil {
		t.Fatalf("pending op after Drain: %v", err)
	}
}

// TestAsyncWriteStraddlingFlip: writes enqueued to a shard's committer
// before a migration moves every slot of the shard, and committed after
// its flip, land on the new owner — every acknowledged id reads back.
func TestAsyncWriteStraddlingFlip(t *testing.T) {
	m, err := shard.NewOrdered("P-ART", keys.RandInt, shard.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	p := commit.NewOrdered(m, commit.Options{FlushInterval: time.Hour})
	gen := keys.NewGenerator(keys.RandInt)
	var ids []uint64
	var futs []*commit.Future
	for id := uint64(0); len(ids) < 16; id++ {
		if m.Route(gen.Key(id)) != 0 {
			continue
		}
		f, err := p.Insert(gen.Key(id), id)
		if err != nil {
			t.Fatal(err)
		}
		ids, futs = append(ids, id), append(futs, f)
	}
	if err := m.MigrateSlots(0, 1, m.SlotsOf(0), 8); err != nil {
		t.Fatal(err)
	}
	if err := closeGuarded(t, p.Close); err != nil {
		t.Fatal(err)
	}
	lost := 0
	for i, f := range futs {
		if err := f.Err(); err != nil {
			t.Fatalf("id %d: %v", ids[i], err)
		}
		if v, ok := m.Lookup(gen.Key(ids[i])); !ok || v != ids[i] {
			lost++
		}
	}
	if lost != 0 {
		t.Fatalf("%d of %d acknowledged writes unreadable after the flip", lost, len(ids))
	}
}

// TestForeignCrashFailsOnlyItsSubBatch: a crash on the shard a flip
// moved a queue's keys to fails that sub-batch's ops, unacknowledged —
// none of them was fenced — and leaves the committer and its own shard
// serving.
func TestForeignCrashFailsOnlyItsSubBatch(t *testing.T) {
	m, err := shard.NewOrdered("P-ART", keys.RandInt, shard.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	p := commit.NewOrdered(m, commit.Options{FlushInterval: time.Hour})
	gen := keys.NewGenerator(keys.RandInt)
	var futs []*commit.Future
	for id := uint64(0); len(futs) < 8; id++ {
		if m.Route(gen.Key(id)) != 0 {
			continue
		}
		f, err := p.Insert(gen.Key(id), id)
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	if err := m.MigrateSlots(0, 1, m.SlotsOf(0), 8); err != nil {
		t.Fatal(err)
	}
	m.Heap(1).SetInjector(crash.NewAtSite(group.SiteOpApplied, 1))
	if err := closeGuarded(t, p.Close); err != nil {
		t.Fatalf("Close after a crash on another shard: %v", err)
	}
	for i, f := range futs {
		if err := f.Err(); !crash.IsCrash(err) || errors.Is(err, commit.ErrCommitterFailed) {
			t.Fatalf("future %d: %v, want the other shard's crash", i, err)
		}
	}
	if q := m.Quarantined(); len(q) != 0 {
		t.Fatalf("quarantined %v after a crash on another shard", q)
	}
	if got, err := m.RecoverCrashed(); err != nil || len(got) != 1 || got[0] != 1 {
		t.Fatalf("RecoverCrashed = %v, %v; want [1]", got, err)
	}
}
