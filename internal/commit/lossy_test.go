package commit_test

import (
	"errors"
	"testing"
	"time"

	"repro/internal/commit"
	"repro/internal/crash"
	"repro/internal/keys"
	"repro/internal/pmem"
	"repro/shard"
)

// TestLossyPipeline crashes a one-shard P-ART pipeline inside its drain
// loop under every restart image: at commit.drain.applied (the third
// batch mid-flight, applied but unfenced, none of its futures resolved)
// and at commit.ack.fenced (the third batch durable, its futures not yet
// resolved). Two batches are acknowledged before either crash. After the
// power cycle and recovery every future that resolved nil reads back
// exactly, and every failed one exactly or not at all.
func TestLossyPipeline(t *testing.T) {
	const n, batch = 40, 8
	gen := keys.NewGenerator(keys.RandInt)
	// The crash's visit of its site: drain.applied is visited once per
	// op, ack.fenced once per batch.
	visit := map[string]int64{commit.SiteDrainApplied: 2*batch + 3, commit.SiteAckFenced: 3}
	for _, site := range []string{commit.SiteDrainApplied, commit.SiteAckFenced} {
		for _, policy := range pmem.Policies {
			t.Run(site+"/"+policy.String(), func(t *testing.T) {
				m, err := shard.NewOrdered("P-ART", keys.RandInt, shard.Options{Heap: pmem.Options{Shadow: true}})
				if err != nil {
					t.Fatal(err)
				}
				defer m.Release()
				inj := crash.NewAtSite(site, visit[site])
				m.Heap(0).SetInjector(inj)
				// A queue of one batch that never times out: every batch is
				// exactly `batch` consecutive ids.
				p := commit.NewOrdered(m, commit.Options{Queue: batch, MaxBatch: batch, FlushInterval: time.Hour})
				futs := make([]*commit.Future, n)
				for i := range futs {
					if futs[i], err = p.Insert(gen.Key(uint64(i)), uint64(i)); err != nil {
						t.Fatal(err)
					}
				}
				if err := closeGuarded(t, p.Close); !inj.Fired() || !crash.IsCrash(err) {
					t.Fatalf("fired %v, Close returned %v; want the crash", inj.Fired(), err)
				}

				m.Heap(0).PowerCycle(policy, 42)
				if _, err := m.RecoverCrashed(); err != nil {
					t.Fatal(err)
				}
				acked := 0
				for i, f := range futs {
					v, ok := m.Lookup(gen.Key(uint64(i)))
					switch err := f.Err(); {
					case errors.Is(err, commit.ErrPending):
						t.Fatalf("future %d unresolved after Close", i)
					case err == nil:
						acked++
						if !ok || v != uint64(i) {
							t.Errorf("acknowledged id %d reads back %d,%v", i, v, ok)
						}
					case ok && v != uint64(i):
						t.Errorf("failed id %d reads back %d", i, v)
					}
				}
				if acked != 2*batch {
					t.Errorf("%d futures resolved nil, want the %d of the batches before the crash", acked, 2*batch)
				}
			})
		}
	}
}
