package harness

import (
	"testing"

	"repro/internal/core"
	"repro/internal/keys"
	"repro/internal/pmem"
)

// wasteOps is the single-writer run whose persistence waste
// TestPersistenceWastePinned pins: wasteOps inserts, then an update of
// every second id, then a delete of every tenth.
const wasteOps = 20_000

// pinnedCleanWriteBacks are the clean write-backs a wasteOps run leaves,
// by index; every index not listed must leave none. DESIGN's "What a
// fence is for" gives each entry's reason: P-BwTree's SMO helpers
// write back the records they load (Condition #2), dirty or not.
var pinnedCleanWriteBacks = map[string]uint64{"P-BwTree": 3211}

// wasteRun drives one index through the wasteOps run.
func wasteRun[K any](t *testing.T, idx core.PointIndex[K], key func(id uint64) K) {
	t.Helper()
	for id := uint64(0); id < wasteOps; id++ {
		if err := idx.Insert(key(id), id); err != nil {
			t.Fatalf("insert %d: %v", id, err)
		}
	}
	for id := uint64(0); id < wasteOps; id += 2 {
		if err := idx.Update(key(id), id+1); err != nil {
			t.Fatalf("update %d: %v", id, err)
		}
	}
	for id := uint64(0); id < wasteOps; id += 10 {
		if ok, err := idx.Delete(key(id)); !ok || err != nil {
			t.Fatalf("delete %d: %v, %v", id, ok, err)
		}
	}
}

// TestPersistenceWastePinned: with one writer, no index issues a fence
// that orders no write-back, and none writes back a line it did not
// dirty, except by the counts DESIGN names.
func TestPersistenceWastePinned(t *testing.T) {
	for _, name := range campaignIndexes {
		t.Run(name, func(t *testing.T) {
			heap := pmem.New(pmem.Options{Track: true})
			defer heap.Release()
			if idx, err := core.NewOrdered(name, heap, keys.YCSBString); err == nil {
				gen := keys.NewGenerator(keys.YCSBString)
				wasteRun(t, core.PointIndex[[]byte](idx), func(id uint64) []byte { return gen.Key(id) })
			} else {
				idx, err := core.NewHash(name, heap)
				if err != nil {
					t.Fatal(err)
				}
				gen := keys.NewGenerator(keys.RandInt)
				wasteRun(t, core.PointIndex[uint64](idx), func(id uint64) uint64 { return gen.Uint64(id) | 1 })
			}
			tr := heap.Tracker()
			if got := tr.DryFences(); got != 0 {
				t.Errorf("%d dry fences, want 0", got)
			}
			if got, want := tr.CleanWriteBacks(), pinnedCleanWriteBacks[name]; got != want {
				t.Errorf("%d clean write-backs, want %d", got, want)
			}
		})
	}
}
