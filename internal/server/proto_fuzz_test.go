package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// parseAll runs next over a whole stream: the frames it accepted, each
// copied out, and the error that ended it.
func parseAll(next func() ([][]byte, error)) (frames [][][]byte, _ error) {
	for {
		args, err := next()
		if err != nil {
			return frames, err
		}
		frames = append(frames, cloneArgs(args))
	}
}

// connFrames is parseAll over the connection's reader, fed data in the
// chunks src cuts it into.
func connFrames(src io.Reader) ([][][]byte, error) {
	fr := newFrameReader(src)
	return parseAll(func() ([][]byte, error) {
		for {
			args, ok, err := fr.next()
			if ok || err != nil {
				return args, err
			}
			if err := fr.fill(); err != nil {
				return nil, err
			}
		}
	})
}

// chunkReader delivers its bytes in seeded random cuts of 1..max bytes.
type chunkReader struct {
	data []byte
	rng  *rand.Rand
	max  int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.data[:min(len(r.data), 1+r.rng.Intn(r.max))])
	r.data = r.data[n:]
	return n, nil
}

// sameVerdict requires two runs over one stream to agree on everything
// a peer could observe: the frames, and the error's type, Kind and
// Detail.
func sameVerdict(t *testing.T, how string, frames, wantFrames [][][]byte, err, wantErr error) {
	t.Helper()
	if !reflect.DeepEqual(frames, wantFrames) {
		t.Fatalf("%s: frames differ\n got  %q\n want %q", how, frames, wantFrames)
	}
	var pe, wantPE *ProtocolError
	if errors.As(wantErr, &wantPE) {
		if !errors.As(err, &pe) || *pe != *wantPE {
			t.Fatalf("%s: error %v, want %v", how, err, wantErr)
		}
	} else if err != wantErr {
		t.Fatalf("%s: error %v, want %v", how, err, wantErr)
	}
}

// FuzzParseCommand pins the codec's load-bearing properties on
// arbitrary input: no panics, every accepted frame re-encodes
// byte-identically to the bytes it consumed (canonical parsing), every
// rejection is a typed error (EOF pair or *ProtocolError) — and the
// verdict belongs to the byte stream, not to how it arrived: the
// connection's reader, fed the same bytes one at a time and in seeded
// random chunks, yields the same frames and the same error as
// ParseCommand over a bufio.Reader.
func FuzzParseCommand(f *testing.F) {
	f.Add([]byte("*1\r\n$4\r\nPING\r\n"))
	f.Add([]byte("*2\r\n$3\r\nGET\r\n$4\r\nk001\r\n"))
	f.Add([]byte("*3\r\n$3\r\nSET\r\n$4\r\nk001\r\n$2\r\n42\r\n"))
	f.Add([]byte("*3\r\n$6\r\nUPDATE\r\n$1\r\nk\r\n$1\r\n7\r\n"))
	f.Add([]byte("*2\r\n$3\r\nDEL\r\n$1\r\nk\r\n"))
	f.Add([]byte("*3\r\n$4\r\nSCAN\r\n$1\r\na\r\n$2\r\n16\r\n"))
	f.Add([]byte("*1\r\n$4\r\nINFO\r\n*1\r\n$5\r\nSTATS\r\n")) // pipelined pair
	f.Add([]byte("*0\r\n"))                                    // empty array
	f.Add([]byte("*2\r\n$03\r\nGET\r\n$1\r\nk\r\n"))           // leading zero
	f.Add([]byte("*-1\r\n"))                                   // signed length
	f.Add([]byte("*1\r\n$99999999\r\nx\r\n"))                  // oversized bulk
	f.Add([]byte("*1\r\n$4\r\nPING\n"))                        // bare LF
	f.Add([]byte("+OK\r\n"))                                   // reply, not request
	f.Add([]byte("*2\r\n$3\r\nGET\r\n$4\r\nk0"))               // truncated mid-bulk
	f.Add([]byte{})
	f.Add(append(frame("SET", "k", strings.Repeat("7", 5000)), frame("PING")...)) // larger than a bufio.Reader
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		wantFrames, wantErr := parseAll(func() ([][]byte, error) {
			fr, err := ParseCommand(r)
			return fr.Args, err
		})
		for _, max := range []int{1, 7, 300, 2 * readBufSize} {
			rng := rand.New(rand.NewSource(int64(len(data))))
			frames, err := connFrames(&chunkReader{data: data, rng: rng, max: max})
			sameVerdict(t, fmt.Sprintf("chunks of up to %d", max), frames, wantFrames, err, wantErr)
		}

		r = bufio.NewReader(bytes.NewReader(data))
		consumed := 0
		for {
			frame, err := ParseCommand(r)
			if err != nil {
				if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
					return
				}
				var pe *ProtocolError
				if !errors.As(err, &pe) || !errors.Is(err, ErrProtocol) {
					t.Fatalf("untyped parse error %T: %v", err, err)
				}
				switch pe.Kind {
				case KindMalformed, KindOversized, KindEmpty:
				default:
					t.Fatalf("unknown ProtocolError kind %q", pe.Kind)
				}
				return
			}
			if len(frame.Args) == 0 || len(frame.Args) > MaxArgs {
				t.Fatalf("accepted frame with %d args", len(frame.Args))
			}
			for _, a := range frame.Args {
				if len(a) > MaxBulk {
					t.Fatalf("accepted bulk of %d bytes", len(a))
				}
			}
			// Canonical parsing: the consumed prefix IS the canonical
			// encoding, so re-encoding must reproduce it byte for byte.
			enc := frame.Encode()
			end := consumed + len(enc)
			if end > len(data) || !bytes.Equal(data[consumed:end], enc) {
				t.Fatalf("re-encode mismatch at offset %d:\n  input %q\n  enc   %q",
					consumed, data[consumed:min(end, len(data))], enc)
			}
			consumed = end
		}
	})
}

// FuzzFrameRoundTrip drives the inverse direction: any args within
// limits encode to a frame the parser accepts, reproduces exactly, and
// re-encodes byte-identically.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add([]byte("GET"), []byte("k001"), []byte(""), uint8(2))
	f.Add([]byte("SET"), []byte("key"), []byte("42"), uint8(3))
	f.Add([]byte("PING"), []byte(""), []byte(""), uint8(1))
	f.Add([]byte(""), []byte(""), []byte(""), uint8(3)) // empty bulks are legal
	f.Add([]byte("\r\n$"), []byte("*9"), []byte{0}, uint8(3))
	f.Fuzz(func(t *testing.T, a, b, c []byte, n uint8) {
		pool := [][]byte{a, b, c}
		args := make([][]byte, 0, MaxArgs)
		for i := 0; i < int(n%MaxArgs)+1; i++ {
			arg := pool[i%len(pool)]
			if len(arg) > MaxBulk {
				arg = arg[:MaxBulk]
			}
			args = append(args, arg)
		}
		enc := AppendFrame(nil, args)
		frame, err := ParseCommand(bufio.NewReader(bytes.NewReader(enc)))
		if err != nil {
			t.Fatalf("canonical encoding rejected: %v\n  enc %q", err, enc)
		}
		if len(frame.Args) != len(args) {
			t.Fatalf("round trip lost args: sent %d got %d", len(args), len(frame.Args))
		}
		for i := range args {
			if !bytes.Equal(frame.Args[i], args[i]) {
				t.Fatalf("arg %d mismatch: sent %q got %q", i, args[i], frame.Args[i])
			}
		}
		if re := frame.Encode(); !bytes.Equal(re, enc) {
			t.Fatalf("re-encode mismatch:\n  enc %q\n  re  %q", enc, re)
		}
	})
}
