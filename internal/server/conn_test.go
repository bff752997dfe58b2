// The connection loop off the network: a conn served over byte slices,
// so its allocations, its read buffer's size and its cost per command
// can be measured without a socket in the way.
package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/keys"
	"repro/internal/pmem"
	"repro/shard"
)

// sliceConn is the server end of a connection whose peer is a byte
// slice: each Read asks feed for the next bytes (io.EOF once it
// returns none), and Write keeps the last round's replies and says so
// on wrote, if there is one.
type sliceConn struct {
	net.Conn // the methods a conn never calls
	feed     func(p []byte) int
	out      []byte
	wrote    chan struct{}
}

func (c *sliceConn) Read(p []byte) (int, error) {
	if n := c.feed(p); n > 0 {
		return n, nil
	}
	return 0, io.EOF
}

func (c *sliceConn) Write(p []byte) (int, error) {
	c.out = append(c.out[:0], p...)
	if c.wrote != nil {
		c.wrote <- struct{}{}
	}
	return len(p), nil
}

func (c *sliceConn) Close() error                    { return nil }
func (c *sliceConn) SetReadDeadline(time.Time) error { return nil }

// trackedPART is the front-end recipesrv ships — P-ART over hash
// shards on tracker-mode heaps — released when the test ends.
func trackedPART(tb testing.TB, shards int) *shard.Ordered {
	tb.Helper()
	m, err := shard.NewOrdered("P-ART", keys.YCSBString, shard.Options{Shards: shards, Heap: pmem.Options{Track: true}})
	if err != nil {
		tb.Fatalf("NewOrdered: %v", err)
	}
	tb.Cleanup(m.Release)
	return m
}

// TestConnSteadyStateAllocs: once a connection's buffers have reached
// their working size, a pipelined round of GETs and UPDATEs on existing
// keys allocates nothing — the tokenizer works in place,
// the replies are staged in the arena and leave in one Write.
func TestConnSteadyStateAllocs(t *testing.T) {
	m := trackedPART(t, 4)
	gen := keys.NewGenerator(keys.YCSBString)
	var round, want []byte
	for id := uint64(0); id < 8; id++ {
		k := gen.Key(id)
		if err := m.Insert(k, id); err != nil {
			t.Fatal(err)
		}
		round = AppendFrame(round, [][]byte{[]byte("GET"), k})
		round = AppendFrame(round, [][]byte{[]byte("UPDATE"), k, []byte(strconv.FormatUint(id, 10))})
		want = appendSimple(appendInt(want, int64(id)), "OK")
	}
	// The connection blocks in Read between rounds, as on a socket; a
	// run hands it one round and waits for the round's Write.
	rounds := make(chan []byte)
	sc := &sliceConn{wrote: make(chan struct{}), feed: func(p []byte) int { return copy(p, <-rounds) }}
	c := newConn(New(m, Options{}), sc)
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.serve()
	}()
	allocs := testing.AllocsPerRun(200, func() {
		rounds <- round
		<-sc.wrote
	})
	close(rounds) // EOF
	<-done
	if !bytes.Equal(sc.out, want) {
		t.Fatalf("round's replies:\n got  %q\n want %q", sc.out, want)
	}
	if allocs != 0 {
		t.Fatalf("a steady-state GET+UPDATE round allocated %.0f times, want 0", allocs)
	}
}

// TestParseCommandAllocs: the copy-out wrapper costs two allocations a
// frame — the argument table and one block for all the payloads.
func TestParseCommandAllocs(t *testing.T) {
	const frames = 64
	var stream []byte
	for i := 0; i < frames; i++ {
		stream = append(stream, frame("SET", fmt.Sprintf("user%020d", i), fmt.Sprint(i))...)
	}
	src := bytes.NewReader(nil)
	br := bufio.NewReader(src)
	allocs := testing.AllocsPerRun(50, func() {
		src.Reset(stream)
		br.Reset(src)
		for i := 0; i < frames; i++ {
			if _, err := ParseCommand(br); err != nil {
				t.Fatal(err)
			}
		}
	})
	if per := allocs / frames; per > 2 {
		t.Fatalf("ParseCommand allocated %.2f times per frame, want <= 2", per)
	}
}

// TestParseCommandLargerThanReader: a frame the bufio.Reader cannot show
// whole is still read exactly — nothing of the frame behind it consumed
// — and a stream that ends inside it is io.ErrUnexpectedEOF.
func TestParseCommandLargerThanReader(t *testing.T) {
	big := frame("SET", "k", strings.Repeat("9", 10_000))
	stream := append(append([]byte(nil), big...), frame("PING")...)
	for _, size := range []int{16, 100, 4096} {
		br := bufio.NewReaderSize(bytes.NewReader(stream), size)
		for _, want := range [][]byte{big, frame("PING")} {
			fr, err := ParseCommand(br)
			if err != nil || !bytes.Equal(fr.Encode(), want) {
				t.Fatalf("reader of %d bytes: got %.40q, %v; want %.40q", size, fr.Encode(), err, want)
			}
		}
		if _, err := ParseCommand(br); err != io.EOF {
			t.Fatalf("reader of %d bytes: end of stream: %v", size, err)
		}
		br = bufio.NewReaderSize(bytes.NewReader(big[:len(big)-1]), size)
		if _, err := ParseCommand(br); err != io.ErrUnexpectedEOF {
			t.Fatalf("reader of %d bytes: truncated frame: %v", size, err)
		}
	}
}

// TestReadBufferBounded: a frame larger than the base buffer is parsed
// over a buffer that grows only as its bytes arrive — never from the
// length it declares, never past maxFrameSize — and the reader is back
// on the base buffer once the frame is consumed.
func TestReadBufferBounded(t *testing.T) {
	big := bytes.Repeat([]byte("v"), MaxBulk)
	args := make([][]byte, MaxArgs)
	for i := range args {
		args[i] = big
	}
	stream := AppendFrame(nil, args)
	if len(stream) != maxFrameSize {
		t.Fatalf("the largest frame encodes to %d bytes, maxFrameSize says %d", len(stream), maxFrameSize)
	}
	stream = append(stream, frame("GET", "k")...)

	arrived := 0
	fr := newFrameReader(&sliceConn{feed: func(p []byte) int {
		n := copy(p, stream[arrived:min(arrived+10_000, len(stream))])
		arrived += n
		return n
	}})
	next := func() [][]byte {
		for {
			args, ok, err := fr.next()
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				return args
			}
			if err := fr.fill(); err != nil {
				t.Fatal(err)
			}
			if c := cap(fr.buf); c > readBufSize && (c > 2*arrived || c > maxFrameSize) {
				t.Fatalf("buffer is %d bytes with %d arrived (limit %d)", c, arrived, maxFrameSize)
			}
		}
	}
	if got := next(); len(got) != MaxArgs || !bytes.Equal(got[MaxArgs-1], big) {
		t.Fatalf("largest frame came back with %d args", len(got))
	}
	if got := next(); len(got) != 2 || string(got[1]) != "k" {
		t.Fatalf("frame after the largest: %q", got)
	}
	if err := fr.fill(); err != io.EOF {
		t.Fatalf("fill at the end of the stream: %v", err)
	}
	if &fr.buf[0] != &fr.base[0] || len(fr.buf) != readBufSize {
		t.Fatalf("reader did not return to its base buffer (len %d)", len(fr.buf))
	}
}

// TestOversizedValueKeepsConnection: a SET whose value is MaxBulk bytes
// is a legal frame with an illegal value. It gets the command error, not
// a protocol error; the same connection then serves a normal GET; and
// the 64 KB it needed is not pinned for the connection's life.
func TestOversizedValueKeepsConnection(t *testing.T) {
	ts := startServer(t, 2)
	cli, srv := net.Pipe()
	c := newConn(ts.srv, srv)
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.serve()
	}()
	tc := &tclient{t: t, nc: cli, br: bufio.NewReader(cli)}

	wantSimple(t, tc.do("SET", "k", "7"), "OK")
	rp := tc.do("SET", "k", strings.Repeat("9", MaxBulk))
	if rp.Kind != ReplyError || string(rp.Str) != "ERR value is not a uint64" {
		t.Fatalf("oversized value: got %q %q", rp.Kind, rp.Str)
	}
	wantInt(t, tc.do("GET", "k"), 7)
	cli.Close()
	<-done
	if cap(c.rd.buf) != readBufSize {
		t.Fatalf("read buffer is %d bytes after the oversized frame, want %d", cap(c.rd.buf), readBufSize)
	}
}

// BenchmarkConnPipeline is wire-write's mix — 50 % GET, 25 % SET of a
// new key, 25 % UPDATE — at its window of 16, against a conn fed from
// memory: the server's whole cost per command with the kernel and the
// client taken out. allocs/op is P-ART's leaf and key on the SETs.
func BenchmarkConnPipeline(b *testing.B) {
	const window, loaded = 16, 1000
	m := trackedPART(b, 4)
	gen := keys.NewGenerator(keys.YCSBString)
	for id := uint64(0); id < loaded; id++ {
		if err := m.Insert(gen.Key(id), id); err != nil {
			b.Fatal(err)
		}
	}
	var (
		sent int
		key  []byte
		val  []byte
	)
	sc := &sliceConn{feed: func(p []byte) int {
		buf := p[:0]
		for end := min(sent+window, b.N); sent < end; sent++ {
			id := uint64(sent)
			val = strconv.AppendUint(val[:0], id, 10)
			switch sent % 4 {
			case 0, 1:
				key = gen.AppendKey(key[:0], id%loaded)
				buf = AppendFrame(buf, [][]byte{[]byte("GET"), key})
			case 2:
				key = gen.AppendKey(key[:0], loaded+id)
				buf = AppendFrame(buf, [][]byte{[]byte("SET"), key, val})
			case 3:
				key = gen.AppendKey(key[:0], id%loaded)
				buf = AppendFrame(buf, [][]byte{[]byte("UPDATE"), key, val})
			}
		}
		return len(buf)
	}}
	c := newConn(New(m, Options{}), sc)
	b.ReportAllocs()
	b.ResetTimer()
	c.serve()
	if sent != b.N {
		b.Fatalf("served %d of %d commands", sent, b.N)
	}
}
