// Crash-restart end-to-end: traffic over the wire, an injected power
// failure mid-stream, a lossy power cycle, per-shard recovery, and a
// fresh server over the recovered front-end. The classification is the
// crash-site campaign's, applied to client-visible acknowledgements: a
// reply that reached the client is a durability promise, so every
// acked write must read back with its acked value after restart
// (anything else is OutcomeLostAck/OutcomeCorrupt and fails); writes
// sent but never acked may have vanished (OutcomePartial) or survived
// (OutcomeClean) — both legal.
package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"

	"repro/internal/crash"
	"repro/internal/harness"
	"repro/internal/keys"
	"repro/internal/pmem"
	"repro/shard"
)

// ledger tracks what one client saw: acked writes (promise made) and
// sent-but-unacked writes (no promise).
type ledger struct {
	acked   map[string]uint64
	unacked map[string]uint64
}

// driveUntilCrash sends pipelined SETs in windows of w until the
// server dies mid-stream, maintaining the ledger. Returns how many
// replies arrived.
func driveUntilCrash(t *testing.T, addr string, w int, led *ledger) int {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)
	replies := 0
	type sent struct {
		key string
		val uint64
	}
	for i := 0; i < 100_000; i += w {
		var burst []byte
		window := make([]sent, 0, w)
		for j := i; j < i+w; j++ {
			k, v := fmt.Sprintf("c%06d", j), uint64(j)
			burst = append(burst, frame("SET", k, fmt.Sprint(v))...)
			window = append(window, sent{k, v})
			led.unacked[k] = v
		}
		if _, err := nc.Write(burst); err != nil {
			return replies // server dropped us mid-write
		}
		for _, s := range window {
			rp, err := ReadReply(br)
			if err != nil {
				return replies // power failure: remaining window unacked
			}
			if rp.Kind != ReplySimple {
				t.Fatalf("SET %s: unexpected reply %q %q", s.key, rp.Kind, rp.Str)
			}
			replies++
			delete(led.unacked, s.key)
			led.acked[s.key] = s.val
		}
	}
	t.Fatal("crash never fired")
	return replies
}

// classify reads every ledger entry back over the wire and returns the
// lossy outcome plus a detail string.
func classify(t *testing.T, addr string, led *ledger) (harness.LossyOutcome, string) {
	t.Helper()
	c := dialT(t, addr)
	for k, v := range led.acked {
		rp := c.do("GET", k)
		switch {
		case rp.Kind == ReplyInt && rp.Int == int64(v):
		case rp.Kind == ReplyBulk && rp.Null:
			return harness.OutcomeLostAck, fmt.Sprintf("acked key %s missing after restart", k)
		case rp.Kind == ReplyInt:
			return harness.OutcomeCorrupt, fmt.Sprintf("acked key %s: value %d, acked %d", k, rp.Int, v)
		default:
			return harness.OutcomeCorrupt, fmt.Sprintf("acked key %s: reply %q %q", k, rp.Kind, rp.Str)
		}
	}
	outcome := harness.OutcomeClean
	for k, v := range led.unacked {
		rp := c.do("GET", k)
		switch {
		case rp.Kind == ReplyInt && rp.Int == int64(v):
			// Unacked but survived: the fence covering it retired before
			// the power cut. Clean.
		case rp.Kind == ReplyBulk && rp.Null:
			outcome = harness.OutcomePartial // vanished without a promise
		case rp.Kind == ReplyInt:
			return harness.OutcomeCorrupt, fmt.Sprintf("in-flight key %s: torn value %d (sent %d)", k, rp.Int, v)
		default:
			return harness.OutcomeCorrupt, fmt.Sprintf("in-flight key %s: reply %q %q", k, rp.Kind, rp.Str)
		}
	}
	return outcome, ""
}

// TestCrashRestartE2E runs the full cycle under the torn power-cycle
// policy (the hardest image recovery faces).
func TestCrashRestartE2E(t *testing.T) {
	t.Run("sync", func(t *testing.T) {
		const shards = 4
		m, err := shard.NewOrdered("P-ART", keys.YCSBString, shard.Options{
			Shards: shards,
			Heap:   pmem.Options{Shadow: true},
		})
		if err != nil {
			t.Fatalf("NewOrdered: %v", err)
		}
		t.Cleanup(m.Release)

		// Arm a power failure on shard 1, a few hundred persistence
		// sites into its traffic.
		m.Heap(1).SetInjector(crash.NewNth(400))

		ts := serveOver(t, m, Options{IndexName: "P-ART"})
		led := &ledger{acked: map[string]uint64{}, unacked: map[string]uint64{}}
		replies := driveUntilCrash(t, ts.addr(), 8, led)
		if replies == 0 || len(led.acked) == 0 {
			t.Fatal("no writes acked before the crash; injector fired too early")
		}

		// The whole server died, as a machine does: Serve reports the
		// crash cause and no connection got further replies.
		if err := ts.wait(); !errors.Is(err, crash.ErrCrashed) {
			t.Fatalf("Serve returned %v, want crash cause", err)
		}
		if !ts.srv.Failed() {
			t.Fatal("server must be marked failed")
		}

		// Restart: lossy image under torn policy, per-shard recovery
		// (only the fired shard replays), new server over the same
		// front-end.
		m.Heap(1).PowerCycle(pmem.PolicyTorn, 0x5eed)
		replayed, rerr := m.RecoverCrashed()
		if rerr != nil {
			t.Fatalf("recovery failed: %v (quarantined %v)", rerr, m.Quarantined())
		}
		if len(replayed) != 1 || replayed[0] != 1 {
			t.Fatalf("replayed shards %v, want [1]", replayed)
		}

		ts2 := serveOver(t, m, Options{IndexName: "P-ART"})
		outcome, detail := classify(t, ts2.addr(), led)
		t.Logf("acked=%d unacked=%d outcome=%s", len(led.acked), len(led.unacked), outcome)
		if outcome == harness.OutcomeLostAck || outcome == harness.OutcomeCorrupt {
			t.Fatalf("client-visible durability violated: %s (%s)", outcome, detail)
		}

		// The restarted server takes new traffic.
		c := dialT(t, ts2.addr())
		wantSimple(t, c.do("SET", "post-restart", "1"), "OK")
		wantInt(t, c.do("GET", "post-restart"), 1)
	})
}

// TestCrashRestartQuarantineDegrades: when a shard's recovery fails,
// the server must come up degraded — UNAVAIL for the quarantined
// shard's key space, full service elsewhere — rather than refuse to
// serve.
func TestCrashRestartQuarantineDegrades(t *testing.T) {
	const shards = 4
	m, err := shard.NewOrdered("P-ART", keys.YCSBString, shard.Options{
		Shards: shards,
		Heap:   pmem.Options{Shadow: true},
	})
	if err != nil {
		t.Fatalf("NewOrdered: %v", err)
	}
	t.Cleanup(m.Release)

	m.Heap(2).SetInjector(crash.NewNth(300))
	ts := serveOver(t, m, Options{IndexName: "P-ART"})
	led := &ledger{acked: map[string]uint64{}, unacked: map[string]uint64{}}
	driveUntilCrash(t, ts.addr(), 4, led)
	if err := ts.wait(); !errors.Is(err, crash.ErrCrashed) {
		t.Fatalf("Serve returned %v, want crash cause", err)
	}

	// Simulate the unrecoverable case: power-cycle, then quarantine the
	// damaged shard as a failed verifier would (clearing the injector the
	// way RecoverCrashed does for shards it gives up on).
	m.Heap(2).PowerCycle(pmem.PolicyTorn, 99)
	m.Heap(2).SetInjector(nil)
	m.Quarantine(2, errors.New("recovery verifier: corrupt image"))

	ts2 := serveOver(t, m, Options{IndexName: "P-ART"})
	c := dialT(t, ts2.addr())

	// Acked keys on healthy shards must still honour their promise;
	// keys on the quarantined shard answer UNAVAIL, not silence.
	healthy, unavail := 0, 0
	for k, v := range led.acked {
		rp := c.do("GET", k)
		if m.Route([]byte(k)) == 2 {
			wantCode(t, rp, "UNAVAIL")
			unavail++
			continue
		}
		wantInt(t, rp, int64(v))
		healthy++
	}
	if healthy == 0 || unavail == 0 {
		t.Fatalf("test did not exercise both sides: healthy=%d unavail=%d", healthy, unavail)
	}
	info := string(c.do("INFO").Str)
	if !strings.Contains(info, "degraded:true") || !strings.Contains(info, "quarantined:2") {
		t.Fatalf("INFO must surface the quarantine: %q", info)
	}
	// Degraded, not down: writes to healthy shards still work.
	for i := 0; ; i++ {
		k := fmt.Sprintf("fresh%03d", i)
		if m.Route([]byte(k)) != 2 {
			wantSimple(t, c.do("SET", k, "9"), "OK")
			wantInt(t, c.do("GET", k), 9)
			break
		}
	}
}
