// Per-connection protocol loop. The one invariant: a reply is staged
// only after the index call that fenced its write has returned. SET,
// UPDATE and DEL are point writes through shard.Ordered, whose return
// is the fence (the paper's contract for a converted index), so the
// arena never holds an acknowledgement the heap could still lose, and
// a connection reads its own writes because each is applied before the
// next command is parsed. The loop stages replies in arrival order in
// one arena and sends a round — every command buffered before the next
// read that may block, at most DefaultMaxPipeline of them — with one Write.
//
// Nothing on the GET/SET/UPDATE path allocates or copies twice. A
// request is tokenized in place over the connection's own read buffer
// (frameReader), so the arguments dispatch sees alias that buffer and
// die when the next frame is parsed: nothing may retain them. Every
// consumer copies what it keeps — the indexes copy the key
// (core.PointIndex) — and SCAN's cursor is done with its start key
// before dispatch returns.
package server

import (
	"errors"
	"io"
	"net"
	"strconv"
	"time"

	"repro/internal/crash"
	"repro/shard"
)

// conn is one client connection's state.
type conn struct {
	srv *Server
	nc  net.Conn
	rd  *frameReader

	out      []byte // reply arena: this round's replies, in wire order
	nreplies int    // replies staged in out

	scanBuf  []byte // SCAN scratch: collected keys
	scanEnds []int
	scanVals []uint64
}

func newConn(s *Server, nc net.Conn) *conn {
	return &conn{srv: s, nc: nc, rd: newFrameReader(nc)}
}

// kick expires the connection's read deadline so a blocked (and any
// future) socket read fails with a timeout — the drain signal. Bytes
// already buffered still parse; new bytes do not arrive.
func (c *conn) kick() { c.nc.SetReadDeadline(time.Unix(1, 0)) }

// serve runs the connection to completion. An injected crash signal
// escaping a synchronous index operation is the simulated machine
// dying mid-op: the server fails as a whole and the connection drops
// with its staged replies unsent (unacknowledged).
func (c *conn) serve() {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(crash.Signal); ok {
				c.srv.fail(crash.ErrCrashed)
				c.nc.Close()
				return
			}
			panic(r)
		}
	}()
	defer c.nc.Close()
	for {
		args, ok, err := c.rd.next()
		if err == nil && !ok {
			// No complete frame is buffered: the round ends here, before
			// the read that may block.
			if c.nreplies > 0 && !c.endRound() {
				return
			}
			if err = c.rd.fill(); err == nil {
				continue
			}
		}
		if err != nil {
			c.finish(err)
			return
		}
		quit, aerr := c.dispatch(args)
		if aerr != nil {
			return // machine crash inside an index call; srv.fail already ran
		}
		if quit {
			c.flushWire()
			return
		}
		if c.nreplies >= DefaultMaxPipeline && !c.endRound() {
			return
		}
	}
}

// endRound sends the round's replies. It reports whether the
// connection goes on: not after a socket error, and not once draining —
// accepted writes are fenced and their replies sent, which is all a
// drain owes the client.
func (c *conn) endRound() bool {
	return c.flushWire() == nil && !c.srv.draining.Load()
}

// finish handles the read-side end of a connection: send what can
// still be sent, close. Every staged reply's write is already fenced.
func (c *conn) finish(err error) {
	var pe *ProtocolError
	switch {
	case errors.As(err, &pe):
		// Framing is unrecoverable: reply with the typed protocol error
		// behind the replies already staged, close.
		c.litError("ERR proto/" + pe.Kind + " " + pe.Detail)
		c.flushWire()
	case isTimeout(err), errors.Is(err, io.EOF):
		// Drain kick, or the client half-closed its write side: deliver
		// every staged reply before closing.
		c.flushWire()
	default:
		// Torn connection (reset, unexpected EOF): no replies can be
		// delivered, and nothing is owed — a write whose frame arrived
		// whole was applied and fenced at dispatch, one cut mid-frame
		// never reached the index.
	}
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// reply stages one reply: out is c.out with the reply's encoding
// appended.
func (c *conn) reply(out []byte) {
	c.out = out
	c.nreplies++
}

func (c *conn) litSimple(s string)  { c.reply(appendSimple(c.out, s)) }
func (c *conn) litError(msg string) { c.reply(appendErrorReply(c.out, msg)) }
func (c *conn) litInt(n int64)      { c.reply(appendInt(c.out, n)) }
func (c *conn) litBulk(b []byte)    { c.reply(appendBulk(c.out, b)) }
func (c *conn) litNull()            { c.reply(appendNullBulk(c.out)) }

// flushWire sends the round: every staged reply, in order, in one
// Write.
func (c *conn) flushWire() error {
	if len(c.out) == 0 {
		return nil
	}
	_, err := c.nc.Write(c.out)
	c.out, c.nreplies = c.out[:0], 0
	return err
}

// errorText maps a store error to its typed wire code.
func errorText(err error) string {
	if errors.Is(err, shard.ErrShardUnavailable) {
		return "UNAVAIL " + err.Error()
	}
	return "ERR " + err.Error()
}

// cmdName folds an ASCII command to upper case without allocating;
// unknown or over-long names return "".
func cmdName(b []byte) string {
	if len(b) > 6 {
		return ""
	}
	var buf [6]byte
	for i := 0; i < len(b); i++ {
		ch := b[i]
		if 'a' <= ch && ch <= 'z' {
			ch -= 'a' - 'A'
		}
		buf[i] = ch
	}
	switch string(buf[:len(b)]) {
	case "GET":
		return "GET"
	case "SET":
		return "SET"
	case "DEL":
		return "DEL"
	case "UPDATE":
		return "UPDATE"
	case "SCAN":
		return "SCAN"
	case "INFO":
		return "INFO"
	case "STATS":
		return "STATS"
	case "PING":
		return "PING"
	case "QUIT":
		return "QUIT"
	}
	return ""
}

// dispatch executes one parsed command. quit requests connection
// close after the final flush; a non-nil error aborts the connection
// (machine crash inside an index call).
func (c *conn) dispatch(args [][]byte) (quit bool, _ error) {
	cmd := cmdName(args[0])
	switch cmd {
	case "PING":
		c.litSimple("PONG")
		return false, nil
	case "QUIT":
		c.litSimple("OK")
		return true, nil
	case "INFO":
		c.litBulk(c.srv.infoText())
		return false, nil
	case "STATS":
		c.litBulk(c.srv.statsText())
		return false, nil
	case "":
		c.litError("ERR unknown command " + strconv.Quote(string(args[0])))
		return false, nil
	}
	// Data commands: refused while draining — a command that arrives
	// after the drain began gets the typed shutdown error, nothing new
	// reaches the index.
	if c.srv.draining.Load() {
		c.litError("SHUTDOWN server draining")
		return false, nil
	}
	m := c.srv.m
	switch cmd {
	case "GET":
		if len(args) != 2 {
			c.litError("ERR wrong number of arguments for 'GET'")
			return false, nil
		}
		v, ok, err := m.LookupChecked(args[1])
		switch {
		case isMachineCrash(err):
			c.srv.fail(err)
			return false, err
		case err != nil:
			c.litError(errorText(err))
		case ok:
			c.litInt(int64(v))
		default:
			c.litNull()
		}
	case "SET", "UPDATE":
		if len(args) != 3 {
			c.litError("ERR wrong number of arguments for '" + cmd + "'")
			return false, nil
		}
		v, perr := strconv.ParseUint(string(args[2]), 10, 64)
		if perr != nil {
			c.litError("ERR value is not a uint64")
			return false, nil
		}
		return false, c.write(args[1], v, cmd == "UPDATE")
	case "DEL":
		if len(args) != 2 {
			c.litError("ERR wrong number of arguments for 'DEL'")
			return false, nil
		}
		ok, err := m.Delete(args[1])
		if isMachineCrash(err) {
			c.srv.fail(err)
			return false, err
		}
		if err != nil {
			c.litError(errorText(err))
		} else if ok {
			c.litInt(1)
		} else {
			c.litInt(0)
		}
	case "SCAN":
		c.scan(args)
	}
	return false, nil
}

// write applies one SET/UPDATE as a point write; its return is the
// fence, so the reply is staged behind it.
func (c *conn) write(key []byte, value uint64, update bool) error {
	var err error
	if update {
		err = c.srv.m.Update(key, value)
	} else {
		err = c.srv.m.Insert(key, value)
	}
	if err != nil {
		// The indexes convert an injected crash panic into an error
		// (crash.Recover); over the wire that is the machine dying
		// mid-op, not a reply.
		if isMachineCrash(err) {
			c.srv.fail(err)
			return err
		}
		c.litError(errorText(err))
	} else {
		c.litSimple("OK")
	}
	return nil
}

// scan serves one SCAN page: a fresh shard.Cursor streams up to count
// merged entries from start, and the reply carries the resume key for
// the next page (null when the key space is exhausted) — pagination
// across requests without server-side cursor state.
func (c *conn) scan(args [][]byte) {
	if len(args) != 3 {
		c.litError("ERR wrong number of arguments for 'SCAN'")
		return
	}
	count, perr := strconv.Atoi(string(args[2]))
	if perr != nil || count < 1 || count > MaxScanCount {
		c.litError("ERR scan count must be in [1," + strconv.Itoa(MaxScanCount) + "]")
		return
	}
	cur := c.srv.m.Cursor(args[1])
	c.scanBuf, c.scanEnds, c.scanVals = c.scanBuf[:0], c.scanEnds[:0], c.scanVals[:0]
	for len(c.scanEnds) < count {
		k, v, ok := cur.Next()
		if !ok {
			break
		}
		c.scanBuf = append(c.scanBuf, k...)
		c.scanEnds = append(c.scanEnds, len(c.scanBuf))
		c.scanVals = append(c.scanVals, v)
	}
	n := len(c.scanEnds)
	out := appendArrayHeader(c.out, 2)
	if n == count {
		// Page full: resume at the exclusive successor of the last key
		// (smallest byte string strictly greater — lastKey + 0x00).
		lo := 0
		if n > 1 {
			lo = c.scanEnds[n-2]
		}
		last := c.scanBuf[lo:c.scanEnds[n-1]]
		out = append(out, '$')
		out = strconv.AppendInt(out, int64(len(last)+1), 10)
		out = append(out, '\r', '\n')
		out = append(out, last...)
		out = append(out, 0, '\r', '\n')
	} else {
		out = appendNullBulk(out)
	}
	out = appendArrayHeader(out, 2*n)
	lo := 0
	for i := 0; i < n; i++ {
		out = appendBulk(out, c.scanBuf[lo:c.scanEnds[i]])
		out = appendInt(out, int64(c.scanVals[i]))
		lo = c.scanEnds[i]
	}
	c.reply(out)
}
