package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/pmem"
	"repro/internal/server"
)

// wireSUT is a recipesrv subprocess started with the flags it ships
// with (P-ART, 4 shards, hash partitioning, sync mode), listening on a
// port of the kernel's choosing, plus one connection per client and a
// control connection for STATS.
type wireSUT struct {
	cmd  *exec.Cmd
	out  *bytes.Buffer // stdout after the listening line
	done chan error    // stdout copier's verdict
	ctl  *wireClient
	cls  []client
}

func startWire(e env) (_ sut, err error) {
	cmd := exec.Command(e.srvBin, "-addr", "127.0.0.1:0")
	cmd.Stderr = os.Stderr
	// The server must not outlive a benchmark that dies without cleanup.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", e.srvBin, err)
	}
	s := &wireSUT{cmd: cmd, out: &bytes.Buffer{}, done: make(chan error, 1)}
	defer func() {
		if err != nil {
			s.kill()
		}
	}()
	br := bufio.NewReader(stdout)
	line, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("recipesrv exited before listening: %w", err)
	}
	// "recipesrv: listening on 127.0.0.1:43521 (index=P-ART ...)"
	_, rest, ok := strings.Cut(line, "listening on ")
	if !ok {
		return nil, fmt.Errorf("unexpected first line from recipesrv: %q", line)
	}
	addr, _, _ := strings.Cut(rest, " ")
	go func() {
		_, err := io.Copy(s.out, br)
		s.done <- err
	}()
	if s.ctl, err = dialWire(addr); err != nil {
		return nil, err
	}
	for i := 0; i < e.workers; i++ {
		c, err := dialWire(addr)
		if err != nil {
			return nil, err
		}
		s.cls = append(s.cls, c)
	}
	return s, nil
}

func (s *wireSUT) clients() []client { return s.cls }
func (s *wireSUT) pid() int          { return s.cmd.Process.Pid }

func (s *wireSUT) cpu() (time.Duration, error) { return procCPU(s.pid()) }

// stats parses the STATS reply's key:value lines.
func (s *wireSUT) stats() (pmem.Stats, error) {
	c := s.ctl
	if _, err := c.nc.Write(server.AppendFrame(nil, [][]byte{[]byte("STATS")})); err != nil {
		return pmem.Stats{}, err
	}
	rp, err := server.ReadReply(c.br)
	if err != nil {
		return pmem.Stats{}, err
	}
	if rp.Kind != server.ReplyBulk {
		return pmem.Stats{}, fmt.Errorf("STATS: unexpected reply kind %q", rp.Kind)
	}
	var st pmem.Stats
	fields := map[string]*uint64{"clwb": &st.Clwb, "fence": &st.Fence, "allocs": &st.Allocs, "alloc_bytes": &st.AllocBytes}
	seen := 0
	for _, line := range strings.Split(string(rp.Str), "\n") {
		k, v, _ := strings.Cut(line, ":")
		if dst := fields[k]; dst != nil {
			if *dst, err = strconv.ParseUint(v, 10, 64); err != nil {
				return pmem.Stats{}, fmt.Errorf("STATS: %q: %w", line, err)
			}
			seen++
		}
	}
	if seen != len(fields) {
		return pmem.Stats{}, fmt.Errorf("STATS: want %d counters, got %q", len(fields), rp.Str)
	}
	return st, nil
}

// close closes every connection, SIGTERMs the server and requires a
// clean drain: exit status 0 and the "drained cleanly" line.
func (s *wireSUT) close() error {
	s.ctl.nc.Close()
	for _, c := range s.cls {
		c.(*wireClient).nc.Close()
	}
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return err
	}
	timer := time.AfterFunc(20*time.Second, s.kill)
	defer timer.Stop()
	copyErr := <-s.done
	if err := s.cmd.Wait(); err != nil {
		return fmt.Errorf("recipesrv did not drain: %w", err)
	}
	if copyErr != nil {
		return copyErr
	}
	if !strings.Contains(s.out.String(), "drained cleanly") {
		return fmt.Errorf("recipesrv exited 0 without draining cleanly: %q", s.out.String())
	}
	return nil
}

// kill is idempotent: after close it finds the process gone.
func (s *wireSUT) kill() {
	s.cmd.Process.Kill()
	s.cmd.Wait()
}

// wireClient is one connection. Requests are encoded ahead of the timed
// section into one buffer; replies are read with a scanner that handles
// exactly the shapes GET/SET/UPDATE produce, without allocating.
type wireClient struct {
	nc    io.WriteCloser // the connection's write side
	br    *bufio.Reader  // the connection's read side
	ops   []op
	frame []byte // encoded requests, back to back
	ends  []int  // ends[i] is where op i's frame ends
	key   []byte
	val   []byte
	args  [3][]byte
}

func dialWire(addr string) (*wireClient, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &wireClient{nc: nc, br: bufio.NewReaderSize(nc, 1<<16)}, nil
}

var cmdNames = [numKinds][]byte{kRead: []byte("GET"), kUpdate: []byte("UPDATE"), kInsert: []byte("SET")}

// appendRequest encodes o's request frame.
func (c *wireClient) appendRequest(dst []byte, o op) []byte {
	c.key = stringKeys.AppendKey(c.key[:0], o.id)
	c.args[0], c.args[1] = cmdNames[o.kind], c.key
	if o.kind == kRead {
		return server.AppendFrame(dst, c.args[:2])
	}
	c.val = strconv.AppendUint(c.val[:0], o.val, 10)
	c.args[2] = c.val
	return server.AppendFrame(dst, c.args[:3])
}

func (c *wireClient) prepare(ops []op) {
	c.ops = ops
	c.frame, c.ends = c.frame[:0], c.ends[:0]
	for _, o := range ops {
		c.frame = c.appendRequest(c.frame, o)
		c.ends = append(c.ends, len(c.frame))
	}
}

// round writes the frames of ops [i, j) in one write and reads their
// replies, calling each(k) after reply k has been checked.
func (c *wireClient) round(i, j int, each func(k int)) (failed int, err error) {
	lo := 0
	if i > 0 {
		lo = c.ends[i-1]
	}
	if _, err := c.nc.Write(c.frame[lo:c.ends[j-1]]); err != nil {
		return 0, err
	}
	for k := i; k < j; k++ {
		ok, err := c.checkReply(c.ops[k])
		if err != nil {
			return failed, fmt.Errorf("op %d (%s id %d): %w", k, c.ops[k].kind, c.ops[k].id, err)
		}
		if !ok {
			failed++
		}
		if each != nil {
			each(k)
		}
	}
	return failed, nil
}

func (c *wireClient) do(i int) (bool, error) {
	failed, err := c.round(i, i+1, nil)
	return failed == 0, err
}

func (c *wireClient) exec(window, sampleEvery int, lat []int64) ([]int64, int, error) {
	failed := 0
	var t0 time.Time
	var sample func(k int)
	if sampleEvery > 0 {
		sample = func(k int) {
			if k%sampleEvery == 0 {
				lat = append(lat, int64(time.Since(t0)))
			}
		}
	}
	for i := 0; i < len(c.ops); i += window {
		t0 = time.Now()
		f, err := c.round(i, min(i+window, len(c.ops)), sample)
		failed += f
		if err != nil {
			return lat, failed, err
		}
	}
	return lat, failed, nil
}

// checkReply reads one reply and reports whether it is the one o
// expects: ":<val>" for a read, "+OK" for a write. Error replies and
// wrong values are failures; only a broken stream is an error.
func (c *wireClient) checkReply(o op) (bool, error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return false, err
	}
	if len(line) < 3 || line[len(line)-2] != '\r' {
		return false, errors.New("malformed reply line")
	}
	body := line[1 : len(line)-2]
	switch line[0] {
	case server.ReplySimple:
		return o.kind != kRead && string(body) == "OK", nil
	case server.ReplyInt:
		v, err := strconv.ParseUint(string(body), 10, 64)
		return o.kind == kRead && err == nil && v == o.val, nil
	case server.ReplyError:
		return false, nil
	case server.ReplyBulk:
		if string(body) == "-1" { // missing key
			return false, nil
		}
	}
	return false, fmt.Errorf("unexpected reply %q", line)
}
