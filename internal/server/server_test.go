// In-process protocol conformance: every command crossed with the
// failure axes — ok, missing key, quarantined shard, oversized frame,
// pipelined burst, half-closed connection — against a real listener.
// Tests whose axis involves writes run as a subtest named "sync", the
// library's name for the one write path the server has (the call's
// return is the fence).
package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"

	"repro/shard"
)

// testServer is an in-process server on a loopback listener.
type testServer struct {
	srv *Server
	m   *shard.Ordered
	lis net.Listener
	fin chan error

	once   sync.Once
	finErr error
}

// wait blocks until Serve returned and reports its result; safe to
// call repeatedly (tests consume it, the cleanup consumes it again).
func (ts *testServer) wait() error {
	ts.once.Do(func() { ts.finErr = <-ts.fin })
	return ts.finErr
}

func startServer(t *testing.T, shards int) *testServer {
	t.Helper()
	return serveOver(t, trackedPART(t, shards), Options{IndexName: "P-ART"})
}

// serveOver starts a server over an existing front-end (the crash
// tests re-serve a recovered one). The front-end's lifetime belongs to
// the caller; the cleanup only drains the server.
func serveOver(t *testing.T, m *shard.Ordered, opts Options) *testServer {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ts := &testServer{srv: New(m, opts), m: m, lis: lis, fin: make(chan error, 1)}
	go func() { ts.fin <- ts.srv.Serve(lis) }()
	t.Cleanup(func() {
		ts.srv.Shutdown()
		ts.wait()
	})
	return ts
}

func (ts *testServer) addr() string { return ts.lis.Addr().String() }

// tclient is a test client over one connection.
type tclient struct {
	t  *testing.T
	nc net.Conn
	br *bufio.Reader
}

func dialT(t *testing.T, addr string) *tclient {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { nc.Close() })
	return &tclient{t: t, nc: nc, br: bufio.NewReader(nc)}
}

func frame(args ...string) []byte {
	bs := make([][]byte, len(args))
	for i, a := range args {
		bs[i] = []byte(a)
	}
	return AppendFrame(nil, bs)
}

// send writes raw bytes (one or more frames) without reading replies.
func (c *tclient) send(raw []byte) {
	c.t.Helper()
	if _, err := c.nc.Write(raw); err != nil {
		c.t.Fatalf("write: %v", err)
	}
}

// read reads one reply.
func (c *tclient) read() Reply {
	c.t.Helper()
	rp, err := ReadReply(c.br)
	if err != nil {
		c.t.Fatalf("read reply: %v", err)
	}
	return rp
}

// do sends one command and reads its reply.
func (c *tclient) do(args ...string) Reply {
	c.t.Helper()
	c.send(frame(args...))
	return c.read()
}

func wantSimple(t *testing.T, rp Reply, s string) {
	t.Helper()
	if rp.Kind != ReplySimple || string(rp.Str) != s {
		t.Fatalf("want +%s, got kind %q %q", s, rp.Kind, rp.Str)
	}
}

func wantInt(t *testing.T, rp Reply, n int64) {
	t.Helper()
	if rp.Kind != ReplyInt || rp.Int != n {
		t.Fatalf("want :%d, got kind %q int=%d str=%q", n, rp.Kind, rp.Int, rp.Str)
	}
}

func wantNull(t *testing.T, rp Reply) {
	t.Helper()
	if rp.Kind != ReplyBulk || !rp.Null {
		t.Fatalf("want $-1, got kind %q null=%v %q", rp.Kind, rp.Null, rp.Str)
	}
}

func wantCode(t *testing.T, rp Reply, code string) {
	t.Helper()
	if rp.Kind != ReplyError {
		t.Fatalf("want -%s..., got kind %q %q int=%d", code, rp.Kind, rp.Str, rp.Int)
	}
	if got := rp.ErrorCode(); got != code {
		t.Fatalf("want error code %s, got %s (%q)", code, got, rp.Str)
	}
}

// TestCommandsOK: the happy path of every command.
func TestCommandsOK(t *testing.T) {
	t.Run("sync", func(t *testing.T) {
		ts := startServer(t, 4)
		c := dialT(t, ts.addr())

		wantSimple(t, c.do("PING"), "PONG")
		wantSimple(t, c.do("SET", "ka", "1"), "OK")
		wantSimple(t, c.do("SET", "kb", "2"), "OK")
		wantSimple(t, c.do("set", "kc", "3"), "OK") // case-folded
		wantInt(t, c.do("GET", "ka"), 1)
		wantSimple(t, c.do("UPDATE", "ka", "10"), "OK")
		wantInt(t, c.do("GET", "ka"), 10)
		wantInt(t, c.do("DEL", "kb"), 1)
		wantNull(t, c.do("GET", "kb"))

		rp := c.do("SCAN", "", "10")
		if rp.Kind != ReplyArray || len(rp.Elems) != 2 {
			t.Fatalf("SCAN reply shape: kind %q elems %d", rp.Kind, len(rp.Elems))
		}
		if !rp.Elems[0].Null {
			t.Fatalf("partial page must have null resume key, got %q", rp.Elems[0].Str)
		}
		kv := rp.Elems[1]
		if len(kv.Elems) != 4 { // ka, kc
			t.Fatalf("want 2 entries (4 elems), got %d", len(kv.Elems))
		}
		if string(kv.Elems[0].Str) != "ka" || kv.Elems[1].Int != 10 ||
			string(kv.Elems[2].Str) != "kc" || kv.Elems[3].Int != 3 {
			t.Fatalf("SCAN entries wrong: %q=%d %q=%d",
				kv.Elems[0].Str, kv.Elems[1].Int, kv.Elems[2].Str, kv.Elems[3].Int)
		}

		info := c.do("INFO")
		const wantInfo = "index:P-ART\nshards:4\npartitioner:hash\nkeys:2\ndraining:false\ndegraded:false\nquarantined:\nrecoveries:"
		if info.Kind != ReplyBulk || !strings.HasPrefix(string(info.Str), wantInfo) {
			t.Fatalf("INFO: got %q, want it to begin %q", info.Str, wantInfo)
		}
		stats := c.do("STATS")
		if stats.Kind != ReplyBulk || !strings.Contains(string(stats.Str), "fence:") {
			t.Fatalf("STATS missing fence counter: %q", stats.Str)
		}

		wantSimple(t, c.do("QUIT"), "OK")
		if _, err := c.br.ReadByte(); err == nil {
			t.Fatal("connection still open after QUIT")
		}
	})
}

// TestMissingKeyAndArity: missing keys and malformed arguments answer
// without disturbing the connection.
func TestMissingKeyAndArity(t *testing.T) {
	t.Run("sync", func(t *testing.T) {
		ts := startServer(t, 2)
		c := dialT(t, ts.addr())

		wantNull(t, c.do("GET", "nope"))
		wantInt(t, c.do("DEL", "nope"), 0)
		// Blind-write semantics: UPDATE of an absent key inserts it
		// (YCSB contract, documented on core.OrderedIndex.Update).
		wantSimple(t, c.do("UPDATE", "nope", "5"), "OK")
		wantInt(t, c.do("GET", "nope"), 5)

		wantCode(t, c.do("GET"), "ERR")
		wantCode(t, c.do("SET", "k"), "ERR")
		wantCode(t, c.do("SET", "k", "notanumber"), "ERR")
		wantCode(t, c.do("SCAN", "a", "0"), "ERR")
		wantCode(t, c.do("SCAN", "a", fmt.Sprint(MaxScanCount+1)), "ERR")
		wantCode(t, c.do("NOSUCH", "x"), "ERR")

		// The connection survived all of it.
		wantSimple(t, c.do("PING"), "PONG")
	})
}

// TestQuarantinedShard: ops routed to a quarantined shard answer
// UNAVAIL; other shards and merged scans keep serving (degraded, not
// down).
func TestQuarantinedShard(t *testing.T) {
	t.Run("sync", func(t *testing.T) {
		ts := startServer(t, 4)
		c := dialT(t, ts.addr())

		// Find keys on shard 0 and on some other shard.
		var hit, miss string
		for i := 0; hit == "" || miss == ""; i++ {
			k := fmt.Sprintf("key%04d", i)
			if ts.m.Route([]byte(k)) == 0 {
				if hit == "" {
					hit = k
				}
			} else if miss == "" {
				miss = k
			}
		}
		wantSimple(t, c.do("SET", miss, "7"), "OK")
		ts.m.Quarantine(0, errors.New("verifier: corrupt image"))

		wantCode(t, c.do("GET", hit), "UNAVAIL")
		wantCode(t, c.do("SET", hit, "1"), "UNAVAIL")
		wantCode(t, c.do("UPDATE", hit, "1"), "UNAVAIL")
		wantCode(t, c.do("DEL", hit), "UNAVAIL")

		// Healthy shards unaffected; scans degrade past the hole.
		wantInt(t, c.do("GET", miss), 7)
		rp := c.do("SCAN", "", "10")
		if rp.Kind != ReplyArray {
			t.Fatalf("degraded SCAN failed: kind %q %q", rp.Kind, rp.Str)
		}
		info := string(c.do("INFO").Str)
		if !strings.Contains(info, "degraded:true") || !strings.Contains(info, "quarantined:0") {
			t.Fatalf("INFO must surface quarantine: %q", info)
		}
	})
}

// TestOversizedAndMalformedFrames: framing violations get one typed
// ERR proto/... reply, then the connection closes (framing is lost).
func TestOversizedAndMalformedFrames(t *testing.T) {
	cases := []struct {
		name, kind string
		raw        []byte
	}{
		{"bulk over MaxBulk", KindOversized, []byte(fmt.Sprintf("*2\r\n$3\r\nGET\r\n$%d\r\n", MaxBulk+1))},
		{"args over MaxArgs", KindOversized, []byte(fmt.Sprintf("*%d\r\n", MaxArgs+1))},
		{"huge length literal", KindOversized, []byte("*1\r\n$99999999\r\n")},
		{"not an array", KindMalformed, []byte("+PING\r\n")},
		{"inline command", KindMalformed, []byte("GET k\r\n")},
		{"leading zero length", KindMalformed, []byte("*01\r\n$4\r\nPING\r\n")},
		{"signed length", KindMalformed, []byte("*-1\r\n")},
		{"element not bulk", KindMalformed, []byte("*1\r\n:42\r\n")},
		{"bulk missing CRLF", KindMalformed, []byte("*1\r\n$4\r\nPINGxx")},
		{"empty array", KindEmpty, []byte("*0\r\n")},
	}
	ts := startServer(t, 1)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := dialT(t, ts.addr())
			// A write accepted before the bad frame must still be acked.
			c.send(frame("SET", "pre", "1"))
			c.send(tc.raw)
			wantSimple(t, c.read(), "OK")
			rp := c.read()
			wantCode(t, rp, "ERR")
			if !strings.HasPrefix(string(rp.Str), "ERR proto/"+tc.kind) {
				t.Fatalf("want ERR proto/%s..., got %q", tc.kind, rp.Str)
			}
			if _, err := c.br.ReadByte(); err == nil {
				t.Fatal("connection must close after a protocol error")
			}
		})
	}
}

// TestPipelinedBurst: hundreds of commands in one write, replies in
// exact order — across round boundaries (burst > MaxPipeline) and
// refills of the connection's read buffer (burst > readBufSize).
// Arguments alias that buffer, so the test is also the one that would
// see a key retained past dispatch: k1 and k2 differ in their last byte
// only and sit in one read, and the keys stored first are read back
// after the burst has overwritten the buffer many times.
func TestPipelinedBurst(t *testing.T) {
	const n = 700 // > DefaultMaxPipeline
	t.Run("sync", func(t *testing.T) {
		ts := startServer(t, 4)
		c := dialT(t, ts.addr())

		const k1, k2 = "user000000000000000000a", "user000000000000000000b"
		c.send(bytes.Join([][]byte{
			frame("SET", k1, "1"), frame("SET", k2, "2"), frame("UPDATE", k1, "3"),
			frame("GET", k1), frame("GET", k2),
		}, nil))
		for i := 0; i < 3; i++ {
			wantSimple(t, c.read(), "OK")
		}
		wantInt(t, c.read(), 3)
		wantInt(t, c.read(), 2)

		var burst []byte
		for i := 0; i < n; i++ {
			burst = append(burst, frame("SET", fmt.Sprintf("k%05d", i), fmt.Sprint(i))...)
		}
		for i := 0; i < n; i++ {
			burst = append(burst, frame("GET", fmt.Sprintf("k%05d", i))...)
		}
		if len(burst) <= 2*readBufSize {
			t.Fatalf("burst of %d bytes does not outgrow the %d-byte read buffer", len(burst), readBufSize)
		}
		c.send(burst)
		for i := 0; i < n; i++ {
			wantSimple(t, c.read(), "OK")
		}
		for i := 0; i < n; i++ {
			wantInt(t, c.read(), int64(i))
		}
		wantInt(t, c.do("GET", k1), 3)
		wantInt(t, c.do("GET", k2), 2)
	})
}

// TestHostileKeys: the wire admits keys up to MaxBulk, P-ART (the
// default index) admits 256 bytes. Twelve SETs whose 301-byte keys share
// 300 bytes used to kill the server (a prefix that long does not pack);
// they are error replies now, and the connection goes on serving.
// Re-inserting below a long-prefix node that deletes have emptied is an
// ordinary write.
func TestHostileKeys(t *testing.T) {
	ts := startServer(t, 4)
	c := dialT(t, ts.addr())
	var burst []byte
	for i := 0; i < 12; i++ {
		burst = append(burst, frame("SET", strings.Repeat("p", 300)+string(rune('a'+i)), "1")...)
	}
	c.send(burst)
	for i := 0; i < 12; i++ {
		wantCode(t, c.read(), "ERR")
	}
	wantSimple(t, c.do("PING"), "PONG")

	// One shard, so both keys meet in one tree: a Node4 under a 200-byte
	// prefix, emptied.
	one := dialT(t, startServer(t, 1).addr())
	k1, k2 := strings.Repeat("q", 200)+"a", strings.Repeat("q", 200)+"b"
	wantSimple(t, one.do("SET", k1, "1"), "OK")
	wantSimple(t, one.do("SET", k2, "2"), "OK")
	wantInt(t, one.do("DEL", k1), 1)
	wantInt(t, one.do("DEL", k2), 1)
	wantInt(t, one.do("DEL", k2), 0)
	wantSimple(t, one.do("SET", k1, "3"), "OK")
	wantInt(t, one.do("GET", k1), 3)
	wantSimple(t, one.do("PING"), "PONG")
}

// TestHalfClosedConnection: the client half-closes after pipelining
// writes; every accepted write is acked and durable.
func TestHalfClosedConnection(t *testing.T) {
	const n = 100
	t.Run("sync", func(t *testing.T) {
		ts := startServer(t, 4)
		c := dialT(t, ts.addr())

		var burst []byte
		for i := 0; i < n; i++ {
			burst = append(burst, frame("SET", fmt.Sprintf("h%04d", i), fmt.Sprint(i))...)
		}
		c.send(burst)
		c.nc.(*net.TCPConn).CloseWrite()
		for i := 0; i < n; i++ {
			wantSimple(t, c.read(), "OK")
		}
		if _, err := c.br.ReadByte(); err == nil {
			t.Fatal("server must close after draining a half-closed conn")
		}
		// Acked ⇒ readable on a fresh connection.
		c2 := dialT(t, ts.addr())
		for i := 0; i < n; i++ {
			wantInt(t, c2.do("GET", fmt.Sprintf("h%04d", i)), int64(i))
		}
	})
}

// TestScanPagination: a full page returns the exclusive-successor
// resume key; chained pages cover the key space exactly once.
func TestScanPagination(t *testing.T) {
	ts := startServer(t, 4)
	c := dialT(t, ts.addr())
	const n = 57
	want := make([]string, 0, n)
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("p%04d", i)
		wantSimple(t, c.do("SET", k, fmt.Sprint(i)), "OK")
		want = append(want, k)
	}
	var got []string
	start := ""
	for page := 0; ; page++ {
		rp := c.do("SCAN", start, "10")
		if rp.Kind != ReplyArray || len(rp.Elems) != 2 {
			t.Fatalf("page %d: bad shape", page)
		}
		kv := rp.Elems[1]
		for i := 0; i < len(kv.Elems); i += 2 {
			got = append(got, string(kv.Elems[i].Str))
		}
		if rp.Elems[0].Null {
			break
		}
		next := string(rp.Elems[0].Str)
		if !(next > start) {
			t.Fatalf("resume key %q not past %q", next, start)
		}
		start = next
		if page > n {
			t.Fatal("pagination does not terminate")
		}
	}
	if len(got) != n {
		t.Fatalf("pages covered %d keys, want %d", len(got), n)
	}
	for i, k := range got {
		if k != want[i] {
			t.Fatalf("entry %d: got %q want %q", i, k, want[i])
		}
	}
}

// TestFrameHelperCanonical: the test client's own frames match the
// codec's canonical form (guards the helpers the other tests lean on).
func TestFrameHelperCanonical(t *testing.T) {
	f := frame("SET", "k", "1")
	parsed, err := ParseCommand(bufio.NewReader(bytes.NewReader(f)))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if !bytes.Equal(parsed.Encode(), f) {
		t.Fatalf("round trip: %q vs %q", parsed.Encode(), f)
	}
}
