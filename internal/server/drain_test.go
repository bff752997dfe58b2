// Drain-under-fire: concurrent clients race a SIGTERM-style Shutdown.
// The contract under test — run it under -race — is the ack-after-fence
// invariant at drain time: every reply a client received before its
// connection closed corresponds to a fenced (durable, readable) write,
// and data commands arriving after the drain began get the typed
// SHUTDOWN error instead of silence.
package server

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/keys"
	"repro/shard"
)

// TestDrainUnderFire: several clients hammer SETs while Shutdown fires
// mid-traffic. After Shutdown returns, every acked write must be in
// the store.
func TestDrainUnderFire(t *testing.T) {
	const clients = 4
	t.Run("sync", func(t *testing.T) {
		ts := startServer(t, 4)

		type result struct {
			acked    map[string]uint64
			shutdown int // typed SHUTDOWN replies observed
		}
		results := make([]result, clients)
		var wg sync.WaitGroup
		for g := 0; g < clients; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				res := result{acked: map[string]uint64{}}
				defer func() { results[g] = res }()
				nc, err := net.Dial("tcp", ts.addr())
				if err != nil {
					return
				}
				defer nc.Close()
				br := bufio.NewReader(nc)
				for i := 0; ; i++ {
					k, v := fmt.Sprintf("g%d-%06d", g, i), uint64(i)
					if _, err := nc.Write(frame("SET", k, fmt.Sprint(v))); err != nil {
						return // drain closed the conn
					}
					rp, err := ReadReply(br)
					if err != nil {
						return // kicked mid-read: the write was never acked
					}
					switch {
					case rp.Kind == ReplySimple:
						res.acked[k] = v
					case rp.Kind == ReplyError && rp.ErrorCode() == "SHUTDOWN":
						res.shutdown++
						return // draining: no more data commands accepted
					default:
						t.Errorf("client %d: unexpected reply %q %q", g, rp.Kind, rp.Str)
						return
					}
				}
			}(g)
		}

		time.Sleep(20 * time.Millisecond) // let traffic build
		if err := ts.srv.Shutdown(); err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
		wg.Wait()

		total, shutdownSeen := 0, 0
		for g := range results {
			for k, v := range results[g].acked {
				got, ok := ts.m.Lookup([]byte(k))
				if !ok || got != v {
					t.Fatalf("acked write %s=%d not durable after drain (present=%v got=%d)",
						k, v, ok, got)
				}
				total++
			}
			shutdownSeen += results[g].shutdown
		}
		if total == 0 {
			t.Fatal("no writes acked before the drain; test raced wrong")
		}
		t.Logf("acked-and-durable=%d shutdown-replies=%d", total, shutdownSeen)

		// Post-drain connections are refused or closed without service.
		if nc, err := net.Dial("tcp", ts.addr()); err == nil {
			nc.SetReadDeadline(time.Now().Add(2 * time.Second))
			if _, err := bufio.NewReader(nc).ReadByte(); err == nil {
				t.Fatal("post-drain connection was served")
			}
			nc.Close()
		}
	})
}

// servePipe runs one server connection over an in-memory pipe and
// returns its client end. It bypasses the accept loop — which refuses
// connections once draining — so a test can set the drain flag before
// the connection reads its first byte, and a net.Pipe write is consumed
// by a single server-side read, so frames sent in one write are
// provably buffered together.
func servePipe(t *testing.T, s *Server) *tclient {
	t.Helper()
	cli, srv := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		newConn(s, srv).serve()
	}()
	t.Cleanup(func() {
		cli.Close()
		<-done
	})
	return &tclient{t: t, nc: cli, br: bufio.NewReader(cli)}
}

// TestEnqueueAfterDrainTypedError pins the typed reply deterministically:
// once draining is set, a buffered data command answers SHUTDOWN (not
// silence, not ERR), liveness commands still answer, and the connection
// closes after the reply flush.
//
// The drain flag is observed at two places: at dispatch (data commands
// get SHUTDOWN) and at the idle check after a reply flush (the
// connection closes). Flipping it behind a served round trip races the
// second: the connection goroutine may not yet have passed the idle
// check that followed the PONG, and closes before the SET arrives. So
// the flag is set before the connection starts, and PING+SET travel in
// one write — both frames are buffered when PING dispatches, no idle
// check runs between them, and SET meets the flag at dispatch.
func TestEnqueueAfterDrainTypedError(t *testing.T) {
	t.Run("sync", func(t *testing.T) {
		ts := startServer(t, 2)
		// The deterministic version of bytes that were already buffered
		// when SIGTERM hit.
		ts.srv.draining.Store(true)
		defer ts.srv.draining.Store(false) // let cleanup's Shutdown run its own drain

		c := servePipe(t, ts.srv)
		c.send(append(frame("PING"), frame("SET", "late", "1")...))
		wantSimple(t, c.read(), "PONG") // liveness, not data: still served
		wantCode(t, c.read(), "SHUTDOWN")
		if _, err := c.br.ReadByte(); err == nil {
			t.Fatal("connection must close after the drain reply")
		}
		if _, ok := ts.m.Lookup([]byte("late")); ok {
			t.Fatal("post-drain write must not reach the store")
		}

		// Liveness alone: PING answers, then the idle check closes the
		// connection.
		c2 := servePipe(t, ts.srv)
		wantSimple(t, c2.do("PING"), "PONG")
		if _, err := c2.br.ReadByte(); err == nil {
			t.Fatal("connection must close once draining")
		}
	})
}

// TestShutdownBeforeServe: a Shutdown that runs before Serve has stored
// its listener finds nothing to close, so Serve must close the listener
// it is handed and return instead of blocking in Accept forever — the
// order a one-processor run produces when nothing waits for the accept
// loop before shutting down.
func TestShutdownBeforeServe(t *testing.T) {
	m, err := shard.NewOrdered("P-ART", keys.YCSBString, shard.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	t.Run("sync", func(t *testing.T) {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer lis.Close()
		srv := New(m, Options{IndexName: "P-ART"})
		if err := srv.Shutdown(); err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
		fin := make(chan error, 1)
		go func() { fin <- srv.Serve(lis) }()
		select {
		case err := <-fin:
			if err != nil {
				t.Fatalf("Serve after Shutdown: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Serve blocked in Accept after Shutdown had already run")
		}
		if nc, err := net.Dial("tcp", lis.Addr().String()); err == nil {
			nc.Close()
			t.Fatal("listener still open after Serve returned")
		}
	})
}
