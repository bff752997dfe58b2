// The one write path held to the paper's §5 check, over the wire. The
// served heaps run the durability tracker (recipesrv's Track: true),
// which sees every store, write-back and fence the index makes; at any
// instant a client holds a round's last reply the server has nothing in
// flight, so the tracker must find no line dirty or unfenced on any
// shard. Run it under -race.
package server

import (
	"fmt"
	"math/rand"
	"net"
	"sort"
	"testing"

	"repro/shard"
)

// checkTrackers fails unless every line of every shard's heap is
// durable.
func checkTrackers(t *testing.T, m *shard.Ordered, when string) {
	t.Helper()
	for i := 0; i < m.NumShards(); i++ {
		if v := m.Heap(i).Tracker().Check(); len(v) != 0 {
			t.Fatalf("%s: shard %d has %d lines not durable (first: %v)", when, i, len(v), v[0])
		}
	}
}

// wireModel is the exact expected state of the store, advanced command
// by command as a burst is built, so every reply of the burst is known
// before it is sent.
type wireModel struct {
	rng  *rand.Rand
	vals map[string]uint64
	next int // ids handed to SET-new so far
}

func (w *wireModel) someKey() string {
	// Mostly a key that was set at some point (present or deleted
	// since), sometimes one that never was.
	return fmt.Sprintf("user%08d", w.rng.Intn(w.next+w.next/8+1))
}

// command appends one command's frame to burst and returns the check
// its reply must pass.
func (w *wireModel) command(t *testing.T, burst *[]byte) func(Reply) {
	add := func(args ...string) { *burst = append(*burst, frame(args...)...) }
	switch p := w.rng.Intn(100); {
	case p < 30 || w.next == 0: // SET of a key never used
		k, v := fmt.Sprintf("user%08d", w.next), w.rng.Uint64()>>1
		w.next++
		w.vals[k] = v
		add("SET", k, fmt.Sprint(v))
		return func(rp Reply) { wantSimple(t, rp, "OK") }
	case p < 50: // UPDATE (a blind write: an absent key is inserted)
		k, v := w.someKey(), w.rng.Uint64()>>1
		w.vals[k] = v
		add("UPDATE", k, fmt.Sprint(v))
		return func(rp Reply) { wantSimple(t, rp, "OK") }
	case p < 62:
		k := w.someKey()
		_, had := w.vals[k]
		delete(w.vals, k)
		add("DEL", k)
		return func(rp Reply) {
			if had {
				wantInt(t, rp, 1)
			} else {
				wantInt(t, rp, 0)
			}
		}
	case p < 92:
		k := w.someKey()
		v, ok := w.vals[k]
		add("GET", k)
		return func(rp Reply) {
			if ok {
				wantInt(t, rp, int64(v))
			} else {
				wantNull(t, rp)
			}
		}
	default:
		start, count := w.someKey(), 1+w.rng.Intn(8)
		var page []string
		for k := range w.vals {
			if k >= start {
				page = append(page, k)
			}
		}
		sort.Strings(page)
		full := len(page) >= count
		page = page[:min(len(page), count)]
		want := make([]uint64, len(page))
		for i, k := range page {
			want[i] = w.vals[k]
		}
		add("SCAN", start, fmt.Sprint(count))
		return func(rp Reply) {
			t.Helper()
			if rp.Kind != ReplyArray || len(rp.Elems) != 2 || len(rp.Elems[1].Elems) != 2*len(page) {
				t.Fatalf("SCAN %q %d: reply shape %q, want %d entries", start, count, rp.Kind, len(page))
			}
			if resume := rp.Elems[0]; full != !resume.Null || full && string(resume.Str) != page[len(page)-1]+"\x00" {
				t.Fatalf("SCAN %q %d: resume key %q (null=%v), page full=%v", start, count, resume.Str, resume.Null, full)
			}
			for i, k := range page {
				if e := rp.Elems[1].Elems; string(e[2*i].Str) != k || e[2*i+1].Int != int64(want[i]) {
					t.Fatalf("SCAN %q %d: entry %d is %q=%d, want %q=%d", start, count, i, e[2*i].Str, e[2*i+1].Int, k, want[i])
				}
			}
		}
	}
}

// TestWireRoundsLeaveTrackerClean: pipelined bursts mixing SET-new,
// UPDATE, DEL, GET and SCAN — one longer than MaxPipeline, one cut
// mid-frame across two writes — every reply exact, and the tracker of
// every shard empty each time the client has read a round's last reply.
func TestWireRoundsLeaveTrackerClean(t *testing.T) {
	m := trackedPART(t, 4)
	ts := serveOver(t, m, Options{IndexName: "P-ART"})
	c := dialT(t, ts.addr())
	w := &wireModel{rng: rand.New(rand.NewSource(20)), vals: map[string]uint64{}}

	for _, n := range []int{1, 16, 64, DefaultMaxPipeline + 44, 7, 128} {
		var burst []byte
		checks := make([]func(Reply), n)
		for i := range checks {
			checks[i] = w.command(t, &burst)
		}
		c.send(burst)
		for _, check := range checks {
			check(c.read())
		}
		checkTrackers(t, m, fmt.Sprintf("after a burst of %d", n))
	}

	// A burst cut inside its 21st frame: the server answers the 20 whole
	// frames and ends the round holding the head of the next one.
	var burst []byte
	var checks []func(Reply)
	cut := 0
	for i := 0; i < 40; i++ {
		if i == 20 {
			cut = len(burst) + 5
		}
		checks = append(checks, w.command(t, &burst))
	}
	c.send(burst[:cut])
	for _, check := range checks[:20] {
		check(c.read())
	}
	checkTrackers(t, m, "with a frame half received")
	c.send(burst[cut:])
	for _, check := range checks[20:] {
		check(c.read())
	}
	checkTrackers(t, m, "after the cut burst")

	for k, v := range w.vals {
		if got, ok := m.Lookup([]byte(k)); !ok || got != v {
			t.Fatalf("key %s: store has %d (present=%v), the replies said %d", k, got, ok, v)
		}
	}
}

// TestTornConnection: a client that pipelines writes and closes without
// reading a reply. The server owes it nothing it can deliver; what it
// still owes the store is that every write whose frame arrived whole is
// either absent (never dispatched) or exact, the frame that was cut is
// absent, and nothing is left unfenced.
func TestTornConnection(t *testing.T) {
	const n, old = 600, 7
	m := trackedPART(t, 4)
	for i := 0; i < n; i += 2 {
		if err := m.Insert([]byte(fmt.Sprintf("torn%05d", i)), old); err != nil {
			t.Fatal(err)
		}
	}

	// One connection over a real socket pair, served outside the accept
	// loop so the test can wait for serve to return.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	cli, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	nc, err := lis.Accept()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		newConn(New(m, Options{}), nc).serve()
	}()

	var burst []byte
	for i := 0; i < n; i++ { // even keys exist: UPDATE; odd keys are new: SET
		cmd := [2]string{"UPDATE", "SET"}[i%2]
		burst = append(burst, frame(cmd, fmt.Sprintf("torn%05d", i), fmt.Sprint(1000+i))...)
	}
	last := frame("SET", "torn-cut", "1")
	if _, err := cli.Write(append(burst, last[:len(last)-4]...)); err != nil {
		t.Fatal(err)
	}
	cli.Close() // replies unread: a reset, or EOF inside the cut frame
	<-done

	applied := 0
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("torn%05d", i)
		v, ok := m.Lookup([]byte(k))
		switch {
		case ok && v == uint64(1000+i):
			applied++
		case i%2 == 0 && ok && v == old, i%2 == 1 && !ok:
		default:
			t.Fatalf("key %s: value %d present=%v is neither its state before the burst nor the write sent", k, v, ok)
		}
	}
	if _, ok := m.Lookup([]byte("torn-cut")); ok {
		t.Fatal("a frame cut before its end reached the index")
	}
	checkTrackers(t, m, "after the torn connection")
	t.Logf("%d of %d writes were dispatched before the connection ended", applied, n)
}
