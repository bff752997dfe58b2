// Server lifecycle and write-path plumbing: a Server accepts
// connections on a listener, serves the wire protocol over a sharded
// ordered front-end, and shuts down by draining — every write accepted
// before the connection closes is fenced before its reply is flushed,
// so a client that saw +OK holds a durable write even across SIGTERM.
//
// Three write paths, selected at construction:
//
//   - ModeSync: point writes through shard.Ordered — each op's own
//     persistence fences synchronously before the reply is staged.
//   - ModeBatched: per-connection shard.Deferred combiners — pipelined
//     writes group-commit with fence coalescing; replies for the batch
//     are withheld until the flush that makes them durable returns.
//   - ModeAsync: a shared internal/commit pipeline — writes enqueue
//     into per-shard committer queues and replies are withheld until
//     each op's ack-after-fence future resolves.
//
// In every mode the reply for a write reaches the socket only after
// the write's covering fence retired: the connection's settle step
// (commit staged writes, resolve withheld replies) always runs before
// the output buffer is flushed.
//
// An injected machine crash (crash.Signal out of an index operation,
// or a crash error surfacing from a group commit) fails the whole
// server: connections drop without further replies — exactly a power
// failure's client-visible shape — and Serve returns the cause. The
// crash-restart tests power-cycle the damaged heap, RecoverCrashed the
// front-end, and start a fresh Server over it; shards whose recovery
// failed stay quarantined and surface as UNAVAIL replies while the
// rest keep serving.
package server

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/commit"
	"repro/internal/crash"
	"repro/shard"
)

// WriteMode selects how SET/UPDATE reach persistence.
type WriteMode int

const (
	// ModeSync applies point writes synchronously (default).
	ModeSync WriteMode = iota
	// ModeBatched group-commits pipelined writes per connection via
	// shard.Deferred, one covering fence per batch.
	ModeBatched
	// ModeAsync enqueues writes into the shared internal/commit
	// pipeline and acks on the future's fence.
	ModeAsync
)

// String names the mode for flags and INFO.
func (m WriteMode) String() string {
	switch m {
	case ModeSync:
		return "sync"
	case ModeBatched:
		return "batched"
	case ModeAsync:
		return "async"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// ParseWriteMode parses a -mode flag value.
func ParseWriteMode(s string) (WriteMode, error) {
	switch s {
	case "sync":
		return ModeSync, nil
	case "batched":
		return ModeBatched, nil
	case "async":
		return ModeAsync, nil
	}
	return 0, fmt.Errorf("server: unknown write mode %q (want sync, batched or async)", s)
}

// Options configures a Server.
type Options struct {
	// Mode is the write path (default ModeSync).
	Mode WriteMode
	// Batch caps a batched-mode connection's deferred queue: a settle
	// is forced once this many writes are staged. Values < 1 select
	// DefaultBatch. Ignored outside ModeBatched.
	Batch int
	// Commit configures the async pipeline's per-shard committers
	// (queue depth, max batch, backpressure policy, flush interval).
	// Ignored outside ModeAsync.
	Commit commit.Options
	// MaxPipeline caps commands handled per settle round, bounding the
	// reply bytes buffered for one connection. Values < 1 select
	// DefaultMaxPipeline.
	MaxPipeline int
	// IndexName labels INFO output (the converted index in use).
	IndexName string
}

// Defaults for Options.
const (
	DefaultBatch       = 64
	DefaultMaxPipeline = 256
)

func (o Options) batch() int {
	if o.Batch < 1 {
		return DefaultBatch
	}
	return o.Batch
}

func (o Options) maxPipeline() int {
	if o.MaxPipeline < 1 {
		return DefaultMaxPipeline
	}
	return o.MaxPipeline
}

// Server serves the wire protocol over one sharded ordered front-end.
// Start it with Serve, stop it with Shutdown. A Server is single-use:
// after Shutdown (or a machine crash) build a new one — the crash
// tests do exactly that, over the same recovered front-end.
type Server struct {
	m    *shard.Ordered
	opts Options
	pipe *commit.Pipeline[[]byte] // ModeAsync: the shared ack-after-fence pipeline

	mu       sync.Mutex
	lis      net.Listener
	conns    map[*conn]struct{}
	cause    error          // machine-crash cause (guarded by mu, read via Cause)
	wg       sync.WaitGroup // live connection goroutines; Add under mu, gated by draining
	draining atomic.Bool
	failed   atomic.Bool
}

// New builds a Server over front-end m. In ModeAsync it starts the
// commit pipeline's per-shard committer goroutines immediately;
// Shutdown (or Close) releases them.
func New(m *shard.Ordered, opts Options) *Server {
	s := &Server{m: m, opts: opts, conns: make(map[*conn]struct{})}
	if opts.Mode == ModeAsync {
		s.pipe = commit.NewOrdered(m, opts.Commit)
	}
	return s
}

// Frontend returns the front-end the server serves — the crash tests
// recover and re-serve it.
func (s *Server) Frontend() *shard.Ordered { return s.m }

// Mode returns the configured write path.
func (s *Server) Mode() WriteMode { return s.opts.Mode }

// Serve accepts connections on l until Shutdown or a machine crash.
// It returns nil after a clean drain and the crash cause after a
// failure. The listener is owned by the server from here on.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.lis != nil {
		s.mu.Unlock()
		return errors.New("server: Serve called twice")
	}
	s.lis = l
	if s.draining.Load() || s.failed.Load() {
		// Shutdown (or a crash) ran before this call and found no
		// listener to close; close it here, under the same hold that
		// publishes it, so the Accept below fails at once instead of
		// blocking forever.
		l.Close()
	}
	s.mu.Unlock()

	for {
		nc, err := l.Accept()
		if err != nil {
			// Listener closed by Shutdown or fail; wait for the
			// connections to settle and report the verdict.
			s.wg.Wait()
			s.closePipe()
			return s.Cause()
		}
		c := newConn(s, nc)
		if !s.track(c) {
			nc.Close() // raced Shutdown/fail past Accept
			continue
		}
		go func() {
			defer s.wg.Done()
			c.serve()
			s.untrack(c)
		}()
	}
}

// track registers a live connection; it refuses (false) once draining
// or failed, so late accepts cannot outlive Shutdown. The WaitGroup
// Add happens under the same mutex Shutdown uses to set draining, so
// Shutdown's Wait races no Add.
func (s *Server) track(c *conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining.Load() || s.failed.Load() {
		return false
	}
	s.conns[c] = struct{}{}
	s.wg.Add(1)
	return true
}

func (s *Server) untrack(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// Shutdown drains the server gracefully: no new connections, data
// commands on live connections answer with SHUTDOWN errors, every
// write accepted before the drain began is fenced and its reply
// flushed, then connections close. It blocks until every connection
// has settled and (in ModeAsync) the commit pipeline has drained and
// stopped. Safe to call more than once and concurrently with traffic.
func (s *Server) Shutdown() error {
	s.mu.Lock()
	s.draining.Store(true) // under mu: no conn can register after this
	lis := s.lis
	// Kick connections blocked in read: an already-expired read deadline
	// fails the pending (and any future) read with a timeout, which the
	// conn loop treats as "settle what you hold, reply, and close".
	for c := range s.conns {
		c.kick()
	}
	s.mu.Unlock()
	if lis != nil {
		lis.Close()
	}
	// Each connection settles (fences accepted writes, flushes replies)
	// before exiting; only then stop the async committers.
	s.wg.Wait()
	s.closePipe()
	return s.Cause()
}

// closePipe stops the async committers exactly once.
func (s *Server) closePipe() {
	s.mu.Lock()
	pipe := s.pipe
	s.pipe = nil
	s.mu.Unlock()
	if pipe != nil {
		pipe.Close()
	}
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// fail is the machine-death path: an injected crash escaped an index
// operation or surfaced from a group commit. The server records the
// cause and drops everything on the floor — listener, connections,
// buffered replies — because a machine that lost power sends no more
// bytes. Unreplied operations are thereby unacknowledged, which is
// exactly what the crash-restart classification needs.
func (s *Server) fail(cause error) {
	s.mu.Lock()
	if s.cause == nil {
		s.cause = cause
	}
	lis := s.lis
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	s.failed.Store(true)
	if lis != nil {
		lis.Close()
	}
	for _, c := range conns {
		c.nc.Close()
	}
}

// Cause returns the machine-crash cause, nil after a clean lifetime.
func (s *Server) Cause() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cause
}

// Failed reports whether the server died to an injected crash.
func (s *Server) Failed() bool { return s.failed.Load() }

// infoText renders the INFO reply: one key:value per line.
func (s *Server) infoText() []byte {
	q := s.m.Quarantined()
	recov := s.m.Recoveries()
	var b []byte
	b = append(b, "mode:"...)
	b = append(b, s.opts.Mode.String()...)
	b = append(b, "\nindex:"...)
	b = append(b, s.opts.IndexName...)
	b = append(b, "\nshards:"...)
	b = strconv.AppendInt(b, int64(s.m.NumShards()), 10)
	b = append(b, "\npartitioner:"...)
	b = append(b, s.m.PartitionerName()...)
	b = append(b, "\nkeys:"...)
	b = strconv.AppendInt(b, int64(s.m.Len()), 10)
	b = append(b, "\ndraining:"...)
	b = strconv.AppendBool(b, s.draining.Load())
	b = append(b, "\ndegraded:"...)
	b = strconv.AppendBool(b, s.m.Degraded())
	b = append(b, "\nquarantined:"...)
	sort.Ints(q)
	for i, sh := range q {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(sh), 10)
	}
	b = append(b, "\nrecoveries:"...)
	for i, r := range recov {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, r, 10)
	}
	b = append(b, '\n')
	return b
}

// statsText renders the STATS reply: the aggregate pmem counters.
func (s *Server) statsText() []byte {
	st := s.m.Stats()
	var b []byte
	b = append(b, "clwb:"...)
	b = strconv.AppendUint(b, st.Clwb, 10)
	b = append(b, "\nfence:"...)
	b = strconv.AppendUint(b, st.Fence, 10)
	b = append(b, "\nallocs:"...)
	b = strconv.AppendUint(b, st.Allocs, 10)
	b = append(b, "\nalloc_bytes:"...)
	b = strconv.AppendUint(b, st.AllocBytes, 10)
	b = append(b, '\n')
	return b
}

// isMachineCrash reports whether err carries an injected power-failure
// signal (through group/batch error chains).
func isMachineCrash(err error) bool {
	return err != nil && errors.Is(err, crash.ErrCrashed)
}
