package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/crash"
	"repro/internal/keys"
	"repro/internal/pmem"
)

// TestRestartFreesAbandonedLocks crashes each index inside a critical
// section, restores the revert image and recovers; the interrupted key
// and a fresh key must then be writable. A lock the restart failed to
// free would leave the writer spinning, so the writes run under a
// deadline that fails the test instead of hanging it.
//
// Each site fires on the first visit with the lock named beside it held,
// and the post-restart writes take that lock again. P-BwTree's writers
// take no lock and WOART's global lock is released by a deferred unlock
// as the crash unwinds; both keep a row so that every registry index
// shows it is writable after a restart.
func TestRestartFreesAbandonedLocks(t *testing.T) {
	for _, c := range []struct{ name, site string }{
		{"P-ART", "art.insert.commit"},           // the root Node4 the third key is appended to
		{"P-HOT", "hot.rootinit.commit"},         // rootMu, taken again by the next root swap
		{"P-Masstree", "mt.insert.commit"},       // the root leaf
		{"FAST & FAIR", "ff.split.truncated"},    // the new right sibling the ascending keys go to
		{"P-BwTree", "bw.insert.commit"},         // none
		{"WOART", "woart.insert.commit"},         // none left held
		{"P-CLHT", "clht.insert.commit"},         // the chain's head bucket
		{"Level Hashing", "level.insert.commit"}, // the first candidate bucket
		{"CCEH", "cceh.insert.commit"},           // the segment
	} {
		t.Run(c.name, func(t *testing.T) {
			heap := pmem.New(pmem.Options{Shadow: true})
			heap.SetInjector(crash.NewAtSite(c.site, 1))
			if idx, err := NewOrdered(c.name, heap, keys.RandInt); err == nil {
				restartTrial[[]byte](t, heap, idx, func(i uint64) []byte { return keys.AppendUint64(nil, i) })
				return
			}
			idx, err := NewHash(c.name, heap)
			if err != nil {
				t.Fatal(err)
			}
			restartTrial[uint64](t, heap, idx, func(i uint64) uint64 { return i })
		})
	}
}

// restartTrial inserts ascending keys until the armed site fires, power
// cycles under revert, recovers, and writes the interrupted key and the
// next one from a goroutine the test waits on for at most two seconds.
func restartTrial[K any](t *testing.T, heap *pmem.Heap, idx PointIndex[K], key func(uint64) K) {
	t.Helper()
	hit := uint64(0)
	for i := uint64(1); hit == 0; i++ {
		if i > 100 {
			t.Fatal("the crash site never fired")
		}
		if err := idx.Insert(key(i), i); crash.IsCrash(err) {
			hit = i
		} else if err != nil {
			t.Fatal(err)
		}
	}
	heap.SetInjector(nil)
	heap.PowerCycle(pmem.PolicyRevert, 1)
	if err := idx.Recover(); err != nil {
		t.Fatal(err)
	}
	ids := []uint64{hit, hit + 1}
	done := make(chan error, 1)
	go func() {
		for _, id := range ids {
			if err := idx.Insert(key(id), id+1000); err != nil {
				done <- fmt.Errorf("insert %d after recovery: %w", id, err)
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a write after Recover did not return within 2s: a lock the crash abandoned is still held")
	}
	for _, id := range ids {
		if v, ok := idx.Lookup(key(id)); !ok || v != id+1000 {
			t.Fatalf("Lookup(%d) = %d, %v after recovery; want %d", id, v, ok, id+1000)
		}
	}
}
