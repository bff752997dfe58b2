// Package server is the network serving tier: a RESP-style wire
// protocol in front of the sharded ordered front-end (shard.Ordered),
// so the system is measured under open-loop client traffic instead of
// closed-loop goroutines.
//
// Requests are RESP arrays of bulk strings — `*2\r\n$3\r\nGET\r\n...`
// — parsed strictly: lengths are canonical decimals (no signs, no
// leading zeros), every terminator is exactly CRLF, and limits
// (MaxArgs, MaxBulk) bound what a frame may carry. Strictness is what
// makes the codec fuzzable: every accepted frame re-encodes
// byte-identically (FuzzParseCommand pins this), and everything else
// fails with a typed *ProtocolError instead of a panic or a silent
// re-interpretation.
//
// One tokenizer, parseFrame, holds that grammar, and it works in place
// over a byte window. A connection runs it over the read buffer it owns
// (frameReader): nothing is copied, so a request's arguments alias the
// buffer and live only until the connection parses its next frame.
// ParseCommand is the same tokenizer behind a bufio.Reader, copying the
// arguments out for callers that keep them.
//
// Replies use the standard RESP reply kinds (simple string, error,
// integer, bulk, null bulk, array). Error replies carry a typed code
// as their first token — ERR (protocol/command), UNAVAIL (routed to a
// quarantined shard), SHUTDOWN (draining) — so clients can branch on
// failure class without string matching the cause.
//
// The command set maps onto the shard map API:
//
//	SET key value       insert            → +OK
//	UPDATE key value    in-place update   → +OK
//	GET key             lookup            → :value | $-1 (missing)
//	DEL key             delete            → :1 | :0
//	SCAN start count    cursor page       → [next-start | $-1, [k, v, ...]]
//	INFO                server/shard info → bulk text
//	STATS               pmem counters     → bulk text
//	PING                liveness          → +PONG
//	QUIT                close             → +OK, then close
//
// Values are uint64 decimals on the wire, matching the store's value
// type. SCAN's next-start is the resume key for the following page
// (already the exclusive successor), or null when the scan is done.
package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
)

// Frame limits. A request frame is rejected with a typed
// *ProtocolError the moment a declared length exceeds them; no buffer is
// ever sized from a declared length, only from bytes that have arrived.
const (
	// MaxArgs caps the number of bulk strings in one request array.
	MaxArgs = 64
	// MaxBulk caps the byte length of one bulk string (keys, values,
	// command names).
	MaxBulk = 64 << 10
	// MaxScanCount caps one SCAN page, bounding the reply array a
	// single command can produce.
	MaxScanCount = 4096
)

// ProtocolError kinds: what class of malformation a frame exhibited.
const (
	// KindMalformed: the bytes do not form a canonical RESP request
	// frame (bad type byte, bad length syntax, missing CRLF).
	KindMalformed = "malformed"
	// KindOversized: a declared length exceeds MaxArgs or MaxBulk.
	KindOversized = "oversized"
	// KindEmpty: a syntactically valid but empty request array (*0).
	KindEmpty = "empty"
)

// ErrProtocol is the sentinel matched by errors.Is for every
// *ProtocolError.
var ErrProtocol = errors.New("server: protocol error")

// ProtocolError reports a malformed or over-limit request frame. A
// connection that produced one is beyond recovery — framing is lost —
// so the server sends the error reply and closes.
type ProtocolError struct {
	// Kind classifies the malformation (KindMalformed, KindOversized,
	// KindEmpty).
	Kind string
	// Detail describes the specific violation.
	Detail string
}

func (e *ProtocolError) Error() string {
	return fmt.Sprintf("server: %s frame: %s", e.Kind, e.Detail)
}

// Is matches the ErrProtocol sentinel.
func (e *ProtocolError) Is(target error) bool { return target == ErrProtocol }

func malformed(format string, args ...any) error {
	return &ProtocolError{Kind: KindMalformed, Detail: fmt.Sprintf(format, args...)}
}

func oversized(format string, args ...any) error {
	return &ProtocolError{Kind: KindOversized, Detail: fmt.Sprintf(format, args...)}
}

// Frame is one parsed request: the command name and its arguments as
// raw byte strings, in wire order. Args[0] is the command.
type Frame struct {
	Args [][]byte
}

// AppendFrame appends the canonical encoding of a request frame (an
// array of bulk strings) to dst and returns the extended slice. It is
// the exact inverse of ParseCommand on accepted input.
func AppendFrame(dst []byte, args [][]byte) []byte {
	dst = append(dst, '*')
	dst = strconv.AppendInt(dst, int64(len(args)), 10)
	dst = append(dst, '\r', '\n')
	for _, a := range args {
		dst = append(dst, '$')
		dst = strconv.AppendInt(dst, int64(len(a)), 10)
		dst = append(dst, '\r', '\n')
		dst = append(dst, a...)
		dst = append(dst, '\r', '\n')
	}
	return dst
}

// Encode returns the frame's canonical wire encoding.
func (f Frame) Encode() []byte { return AppendFrame(nil, f.Args) }

// parseLen tokenizes a canonical decimal length terminated by CRLF at
// buf[p:]: one or more digits, no sign, no leading zero unless the
// length is exactly "0". max bounds the accepted value; what names it
// in the error. next is the offset just past the CRLF, or 0 when buf
// ends before the length does.
func parseLen(buf []byte, p, max int, what string) (n, next int, err error) {
	start := p
	for ; ; p++ {
		if p == len(buf) {
			return 0, 0, nil
		}
		c := buf[p]
		if c == '\r' {
			break
		}
		if c < '0' || c > '9' {
			return 0, 0, malformed("%s length: unexpected byte %q", what, c)
		}
		if p > start && buf[start] == '0' {
			return 0, 0, malformed("%s length: leading zero", what)
		}
		if p-start >= 7 { // 10^7 > any sane length; also keeps n from overflowing
			return 0, 0, oversized("%s length: too many digits", what)
		}
		n = n*10 + int(c-'0')
	}
	if p == start {
		return 0, 0, malformed("%s length: no digits", what)
	}
	if p+1 == len(buf) {
		return 0, 0, nil
	}
	if buf[p+1] != '\n' {
		return 0, 0, malformed("%s length: CR not followed by LF", what)
	}
	if n > max {
		return 0, 0, oversized("%s length %d exceeds limit %d", what, n, max)
	}
	return n, p + 2, nil
}

// parseFrame is the request grammar — the one place that knows it. It
// tokenizes the frame at the head of buf in place: the arguments are
// appended to args[:0] as sub-slices of buf, and n is the number of
// bytes the frame occupies. n == 0 with a nil error means buf ends
// before the frame does: read more and call again — a rescan costs
// O(arguments), since bulk payloads are skipped by their length. A
// violation is reported at the first byte that commits it, whatever
// follows, so the verdict on a byte stream does not depend on how it
// was cut into reads.
func parseFrame(buf []byte, args [][]byte) (n int, _ [][]byte, err error) {
	args = args[:0]
	if len(buf) == 0 {
		return 0, args, nil
	}
	if buf[0] != '*' {
		return 0, args, malformed("request must be an array, got type byte %q", buf[0])
	}
	nargs, p, err := parseLen(buf, 1, MaxArgs, "array")
	if p == 0 {
		return 0, args, err
	}
	if nargs == 0 {
		return 0, args, &ProtocolError{Kind: KindEmpty, Detail: "empty request array"}
	}
	for len(args) < nargs {
		if p == len(buf) {
			return 0, args, nil
		}
		if buf[p] != '$' {
			return 0, args, malformed("array element must be a bulk string, got type byte %q", buf[p])
		}
		ln, q, err := parseLen(buf, p+1, MaxBulk, "bulk")
		if q == 0 {
			return 0, args, err
		}
		end := q + ln
		if len(buf) < end+2 {
			return 0, args, nil
		}
		if buf[end] != '\r' || buf[end+1] != '\n' {
			return 0, args, malformed("bulk string not terminated by CRLF")
		}
		args = append(args, buf[q:end:end])
		p = end + 2
	}
	return p, args, nil
}

// ParseCommand reads one request frame from r. It returns io.EOF (or
// io.ErrUnexpectedEOF mid-frame) when the stream ends, and a typed
// *ProtocolError when the bytes are not a canonical request frame —
// after which the stream's framing is unrecoverable. It is parseFrame
// over r's own buffer plus a copy-out, for callers that hold a
// bufio.Reader and keep the frame; the server's connections use a
// frameReader and copy nothing.
func ParseCommand(r *bufio.Reader) (Frame, error) {
	var (
		argv [8][]byte
		held []byte // the frame's head, taken out of r because r's buffer cannot show the whole frame
	)
	for {
		win, _ := r.Peek(r.Buffered())
		buf := win
		if held != nil {
			buf = append(held, win...)
		}
		n, args, err := parseFrame(buf, argv[:0])
		if err != nil {
			return Frame{}, err
		}
		if n > 0 {
			f := Frame{Args: cloneArgs(args)}
			r.Discard(n - len(held))
			return f, nil
		}
		if held != nil || len(win) == r.Size() {
			// Everything r shows belongs to this frame: take it, so r can
			// show what follows.
			held = append(held, win...)
			r.Discard(len(win))
			win = nil
		}
		if _, err := r.Peek(len(win) + 1); err != nil {
			if len(win)+len(held) > 0 {
				err = unexpectedEOF(err)
			}
			return Frame{}, err
		}
	}
}

// cloneArgs copies args out of the buffer they alias: one allocation
// for the table and one for all the payloads.
func cloneArgs(args [][]byte) [][]byte {
	total := 0
	for _, a := range args {
		total += len(a)
	}
	out, data := make([][]byte, len(args)), make([]byte, 0, total)
	for i, a := range args {
		data = append(data, a...)
		out[i] = data[len(data)-len(a) : len(data) : len(data)]
	}
	return out
}

// Connection read buffer sizes.
const (
	// readBufSize is the buffer every connection owns: large enough that
	// a pipelined burst arrives in one read.
	readBufSize = 16 << 10
	// maxFrameSize is the longest frame MaxArgs and MaxBulk admit — the
	// bound on a buffer grown for a frame larger than readBufSize
	// (TestReadBufferBounded holds it to AppendFrame's answer).
	maxFrameSize = len("*64\r\n") + MaxArgs*(len("$65536\r\n")+MaxBulk+len("\r\n"))
)

// frameReader is a connection's read side: a byte buffer it owns, and
// parseFrame run in place over the unparsed window buf[r:w]. The
// arguments next returns alias the buffer and are valid until the next
// call to next or fill; nothing is copied and nothing is allocated
// while frames fit base. A larger frame is parsed by the same
// tokenizer over a grown buffer — grown only as its bytes arrive, never
// from a declared length, and never past maxFrameSize — and the reader
// is back on base once that frame is consumed.
type frameReader struct {
	src  io.Reader
	buf  []byte // base[:], or a grown buffer while a frame larger than base is arriving
	r, w int
	args [][]byte
	base [readBufSize]byte
}

func newFrameReader(src io.Reader) *frameReader {
	fr := &frameReader{src: src}
	fr.buf = fr.base[:]
	return fr
}

// next tokenizes the frame at the head of the window. ok is false when
// the window holds no complete frame; the caller fills and tries again.
func (fr *frameReader) next() (args [][]byte, ok bool, err error) {
	n, args, err := parseFrame(fr.buf[fr.r:fr.w], fr.args)
	fr.args = args
	fr.r += n
	return args, n > 0, err
}

// fill reads once from the source, behind the window. The window — the
// head of an incomplete frame, usually empty — moves to the front of
// the buffer first: of base when it fits, which is also the way back
// from a grown buffer, and of a buffer twice the size when it already
// fills this one. It returns io.EOF between frames and
// io.ErrUnexpectedEOF inside one.
func (fr *frameReader) fill() error {
	win := fr.buf[fr.r:fr.w]
	switch {
	case len(win) < len(fr.base):
		fr.buf = fr.base[:]
	case len(win) == len(fr.buf):
		fr.buf = make([]byte, min(2*len(win), maxFrameSize))
	}
	fr.r, fr.w = 0, copy(fr.buf, win)
	n, err := fr.src.Read(fr.buf[fr.w:])
	fr.w += n
	if n > 0 {
		return nil // an error that came with bytes comes back without them
	}
	if fr.w > 0 {
		err = unexpectedEOF(err)
	}
	return err
}

// readFull fills buf from r.
func readFull(r *bufio.Reader, buf []byte) (int, error) {
	return io.ReadFull(r, buf)
}

// unexpectedEOF converts a mid-frame io.EOF into io.ErrUnexpectedEOF so
// callers can distinguish a clean close (between frames) from a
// truncated frame. Typed protocol errors pass through.
func unexpectedEOF(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Reply kinds (ReadReply.Kind).
const (
	ReplySimple = '+'
	ReplyError  = '-'
	ReplyInt    = ':'
	ReplyBulk   = '$'
	ReplyArray  = '*'
)

// Reply is one parsed server reply, as read by clients (the load
// generator, the conformance tests).
type Reply struct {
	// Kind is the RESP type byte (ReplySimple, ReplyError, ReplyInt,
	// ReplyBulk, ReplyArray).
	Kind byte
	// Str holds the simple-string text, error text, or bulk payload.
	Str []byte
	// Null reports a null bulk ($-1) or null array (*-1).
	Null bool
	// Int holds the integer reply value.
	Int int64
	// Elems holds the array reply's elements.
	Elems []Reply
}

// ErrorCode returns the typed first token of an error reply ("ERR",
// "UNAVAIL", "SHUTDOWN"), or "" for non-error replies.
func (rp Reply) ErrorCode() string {
	if rp.Kind != ReplyError {
		return ""
	}
	s := rp.Str
	for i, c := range s {
		if c == ' ' {
			return string(s[:i])
		}
	}
	return string(s)
}

// ReadReply reads one reply frame from r. Replies are parsed leniently
// relative to requests (signed integers, null markers), since the peer
// is our own server, but still bounded by the request limits.
func ReadReply(r *bufio.Reader) (Reply, error) {
	c, err := r.ReadByte()
	if err != nil {
		return Reply{}, err
	}
	switch c {
	case ReplySimple, ReplyError:
		line, err := readLine(r)
		if err != nil {
			return Reply{}, unexpectedEOF(err)
		}
		return Reply{Kind: c, Str: line}, nil
	case ReplyInt:
		line, err := readLine(r)
		if err != nil {
			return Reply{}, unexpectedEOF(err)
		}
		n, err := strconv.ParseInt(string(line), 10, 64)
		if err != nil {
			return Reply{}, malformed("integer reply: %v", err)
		}
		return Reply{Kind: c, Int: n}, nil
	case ReplyBulk:
		line, err := readLine(r)
		if err != nil {
			return Reply{}, unexpectedEOF(err)
		}
		if string(line) == "-1" {
			return Reply{Kind: c, Null: true}, nil
		}
		ln, err := strconv.Atoi(string(line))
		if err != nil || ln < 0 || ln > MaxBulk {
			return Reply{}, malformed("bulk reply length %q", line)
		}
		buf := make([]byte, ln+2)
		if _, err := readFull(r, buf); err != nil {
			return Reply{}, unexpectedEOF(err)
		}
		if buf[ln] != '\r' || buf[ln+1] != '\n' {
			return Reply{}, malformed("bulk reply not terminated by CRLF")
		}
		return Reply{Kind: c, Str: buf[:ln:ln]}, nil
	case ReplyArray:
		line, err := readLine(r)
		if err != nil {
			return Reply{}, unexpectedEOF(err)
		}
		if string(line) == "-1" {
			return Reply{Kind: c, Null: true}, nil
		}
		n, err := strconv.Atoi(string(line))
		if err != nil || n < 0 || n > MaxArgs+2*MaxScanCount {
			return Reply{}, malformed("array reply length %q", line)
		}
		elems := make([]Reply, n)
		for i := range elems {
			e, err := ReadReply(r)
			if err != nil {
				return Reply{}, unexpectedEOF(err)
			}
			elems[i] = e
		}
		return Reply{Kind: c, Elems: elems}, nil
	}
	return Reply{}, malformed("unknown reply type byte %q", c)
}

// readLine reads bytes up to CRLF, rejecting bare CR or LF.
func readLine(r *bufio.Reader) ([]byte, error) {
	var line []byte
	for {
		c, err := r.ReadByte()
		if err != nil {
			return nil, err
		}
		if c == '\r' {
			c2, err := r.ReadByte()
			if err != nil {
				return nil, err
			}
			if c2 != '\n' {
				return nil, malformed("CR not followed by LF in line")
			}
			return line, nil
		}
		if c == '\n' {
			return nil, malformed("bare LF in line")
		}
		if len(line) > MaxBulk {
			return nil, oversized("line exceeds %d bytes", MaxBulk)
		}
		line = append(line, c)
	}
}

// Reply encoding helpers, appending RESP reply frames to a byte slice
// (the per-connection output buffer).

func appendSimple(dst []byte, s string) []byte {
	return append(append(append(dst, '+'), s...), '\r', '\n')
}

func appendErrorReply(dst []byte, msg string) []byte {
	// Error text is a single line; scrub framing bytes out of wrapped
	// causes so the reply cannot break the stream.
	dst = append(dst, '-')
	for i := 0; i < len(msg); i++ {
		if c := msg[i]; c == '\r' || c == '\n' {
			dst = append(dst, ' ')
		} else {
			dst = append(dst, c)
		}
	}
	return append(dst, '\r', '\n')
}

func appendInt(dst []byte, n int64) []byte {
	dst = append(dst, ':')
	dst = strconv.AppendInt(dst, n, 10)
	return append(dst, '\r', '\n')
}

func appendBulk(dst []byte, b []byte) []byte {
	dst = append(dst, '$')
	dst = strconv.AppendInt(dst, int64(len(b)), 10)
	dst = append(dst, '\r', '\n')
	dst = append(dst, b...)
	return append(dst, '\r', '\n')
}

func appendNullBulk(dst []byte) []byte {
	return append(dst, '$', '-', '1', '\r', '\n')
}

func appendArrayHeader(dst []byte, n int) []byte {
	dst = append(dst, '*')
	dst = strconv.AppendInt(dst, int64(n), 10)
	return append(dst, '\r', '\n')
}
