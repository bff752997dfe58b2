// Server lifecycle: a Server accepts connections on a listener, serves
// the wire protocol over a sharded ordered front-end, and shuts down by
// draining.
//
// There is one write path: SET, UPDATE and DEL are point writes through
// shard.Ordered, and a converted index operation returns only after its
// last store is flushed and fenced — so "the call returned" is the
// acknowledgement, and a reply is staged only after the index call that
// fenced its write has returned. A client that saw +OK holds a durable
// write, across SIGTERM too: a drain lets every connection send the
// replies it has staged, all of them already fenced. The library's
// fence-coalescing paths (group commit, the async commit pipeline) are
// not served; DESIGN.md §"What recipesrv runs on" has the measurement.
//
// An injected machine crash (crash.Signal out of an index operation,
// or a crash error returned by one) fails the whole server: connections
// drop without further replies — exactly a power failure's
// client-visible shape — and Serve returns the cause. The crash-restart
// tests power-cycle the damaged heap, RecoverCrashed the front-end, and
// start a fresh Server over it; shards whose recovery failed stay
// quarantined and surface as UNAVAIL replies while the rest keep
// serving.
package server

import (
	"errors"
	"net"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/crash"
	"repro/shard"
)

// Options configures a Server.
type Options struct {
	// IndexName labels INFO output (the converted index in use).
	IndexName string
}

// DefaultMaxPipeline caps commands handled per round, bounding the reply
// bytes buffered for one connection.
const DefaultMaxPipeline = 256

// Server serves the wire protocol over one sharded ordered front-end.
// Start it with Serve, stop it with Shutdown. A Server is single-use:
// after Shutdown (or a machine crash) build a new one — the crash
// tests do exactly that, over the same recovered front-end.
type Server struct {
	m    *shard.Ordered
	opts Options

	mu       sync.Mutex
	lis      net.Listener
	conns    map[*conn]struct{}
	cause    error          // machine-crash cause (guarded by mu, read via Cause)
	wg       sync.WaitGroup // live connection goroutines; Add under mu, gated by draining
	draining atomic.Bool
	failed   atomic.Bool
}

// New builds a Server over front-end m.
func New(m *shard.Ordered, opts Options) *Server {
	return &Server{m: m, opts: opts, conns: make(map[*conn]struct{})}
}

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
			// connections to finish and report the verdict.
			s.wg.Wait()
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
// has finished. Safe to call more than once and concurrently with
// traffic.
func (s *Server) Shutdown() error {
	s.mu.Lock()
	s.draining.Store(true) // under mu: no conn can register after this
	lis := s.lis
	// Kick connections blocked in read: an already-expired read deadline
	// fails the pending (and any future) read with a timeout, which the
	// conn loop treats as "send the replies you hold and close".
	for c := range s.conns {
		c.kick()
	}
	s.mu.Unlock()
	if lis != nil {
		lis.Close()
	}
	s.wg.Wait()
	return s.Cause()
}

// fail is the machine-death path: an injected crash escaped an index
// operation or was returned by one. The server records the
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
	b = append(b, "index:"...)
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
// signal.
func isMachineCrash(err error) bool {
	return err != nil && errors.Is(err, crash.ErrCrashed)
}
