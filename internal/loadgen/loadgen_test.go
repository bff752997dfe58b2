package loadgen_test

import (
	"net"
	"testing"
	"time"

	"repro/internal/keys"
	"repro/internal/loadgen"
	"repro/internal/pmem"
	"repro/internal/server"
	"repro/internal/ycsb"
	"repro/shard"
)

// startServer runs an in-process recipesrv-equivalent and returns its
// address.
func startServer(t *testing.T) string {
	t.Helper()
	m, err := shard.NewOrdered("P-ART", keys.YCSBString, shard.Options{
		Shards: 4,
		Heap:   pmem.Options{Track: true},
	})
	if err != nil {
		t.Fatalf("NewOrdered: %v", err)
	}
	t.Cleanup(m.Release)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := server.New(m, server.Options{IndexName: "P-ART"})
	fin := make(chan error, 1)
	go func() { fin <- srv.Serve(lis) }()
	t.Cleanup(func() {
		srv.Shutdown()
		<-fin
	})
	return lis.Addr().String()
}

// TestSustainsTargetQPS: the open-loop generator reaches its arrival
// target and drains cleanly — zero deficit, zero protocol errors, zero
// error replies. The subtest is named for the one write path the server
// has, as in internal/server's tests.
func TestSustainsTargetQPS(t *testing.T) {
	t.Run("sync", func(t *testing.T) {
		addr := startServer(t)
		rep, err := loadgen.Run(loadgen.Options{
			Addr:     addr,
			Conns:    2,
			QPS:      2000,
			Duration: 400 * time.Millisecond,
			LoadN:    300,
			Seed:     7,
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		t.Logf("%s", rep.String())
		if rep.Deficit() != 0 {
			t.Fatalf("reply deficit %d: accepted requests went unanswered", rep.Deficit())
		}
		if rep.ProtoErrors != 0 || rep.PreloadErrors != 0 {
			t.Fatalf("protocol errors: proto=%d preload=%d", rep.ProtoErrors, rep.PreloadErrors)
		}
		if n := rep.TotalErrors(); n != 0 {
			t.Fatalf("%d error replies: %v", n, rep.ErrorCodes)
		}
		if rep.Done == 0 {
			t.Fatal("no operations completed")
		}
		// Open-loop: achieved tracks the arrival schedule. Generous
		// floor — CI runs this on one slow core under -race.
		if rep.Achieved < 0.4*rep.Target {
			t.Fatalf("achieved %.0f qps, under 40%% of target %.0f", rep.Achieved, rep.Target)
		}
	})
}

// TestMixedWorkloadZipfian: skewed keys, scans and deletes through the
// full reply-validation path.
func TestMixedWorkloadZipfian(t *testing.T) {
	addr := startServer(t)
	rep, err := loadgen.Run(loadgen.Options{
		Addr:       addr,
		Conns:      2,
		QPS:        1500,
		Duration:   300 * time.Millisecond,
		LoadN:      400,
		Dist:       ycsb.Zipfian{Theta: 0.99},
		Seed:       11,
		ReadFrac:   0.55,
		InsertFrac: 0.15,
		UpdateFrac: 0.15,
		ScanFrac:   0.10,
		DeleteFrac: 0.05,
		ScanLen:    8,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	t.Logf("%s", rep.String())
	if rep.Deficit() != 0 || rep.ProtoErrors != 0 || rep.TotalErrors() != 0 {
		t.Fatalf("unclean run: deficit=%d proto=%d errors=%d (%v)",
			rep.Deficit(), rep.ProtoErrors, rep.TotalErrors(), rep.ErrorCodes)
	}
	for _, k := range []loadgen.Kind{loadgen.KindRead, loadgen.KindInsert, loadgen.KindUpdate, loadgen.KindScan, loadgen.KindDelete} {
		if rep.Kinds[k].Ops == 0 {
			t.Fatalf("op kind %s never exercised", k)
		}
	}
}

// TestOptionValidation: malformed configurations fail fast.
func TestOptionValidation(t *testing.T) {
	if _, err := loadgen.Run(loadgen.Options{Addr: "x", QPS: 0, Duration: time.Second}); err == nil {
		t.Fatal("QPS 0 must be rejected")
	}
	if _, err := loadgen.Run(loadgen.Options{Addr: "x", QPS: 100, Duration: 0}); err == nil {
		t.Fatal("zero duration must be rejected")
	}
	if _, err := loadgen.Run(loadgen.Options{
		Addr: "x", QPS: 100, Duration: time.Second,
		ReadFrac: 0.9, InsertFrac: 0.9,
	}); err == nil {
		t.Fatal("fractions summing past 1 must be rejected")
	}
	if _, err := loadgen.Run(loadgen.Options{
		Addr: "127.0.0.1:1", QPS: 100, Duration: 50 * time.Millisecond,
		DialRetry: 50 * time.Millisecond,
	}); err == nil {
		t.Fatal("unreachable server must surface a dial error")
	}
}
