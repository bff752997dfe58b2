package shard

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/crash"
	"repro/internal/keys"
	"repro/internal/pmem"
)

// flakyOrdered wraps an ordered index so a test can make its Recover
// fail on demand — the deterministic stand-in for "recovery rejected
// this shard's post-power-loss image".
type flakyOrdered struct {
	core.OrderedIndex
	fail *bool
}

var errRecoveryRejected = errors.New("recovery rejected image")

func (f flakyOrdered) Recover() error {
	if *f.fail {
		return errRecoveryRejected
	}
	return f.OrderedIndex.Recover()
}

// newFlakyOrdered builds a sharded P-ART front-end whose shard `target`
// can be made to fail recovery via the returned flag. Every shard heap
// runs in shadow mode so power cycles are available.
func newFlakyOrdered(t *testing.T, h, target int) (*Ordered, *bool) {
	t.Helper()
	fail := new(bool)
	built := 0
	m, err := NewOrderedWith(func(heap *pmem.Heap) (core.OrderedIndex, error) {
		idx, err := core.NewOrdered("P-ART", heap, keys.RandInt)
		if err != nil {
			return nil, err
		}
		i := built
		built++
		if i == target {
			return flakyOrdered{OrderedIndex: idx, fail: fail}, nil
		}
		return idx, nil
	}, Options{Shards: h, Heap: pmem.Options{Shadow: true}})
	if err != nil {
		t.Fatal(err)
	}
	return m, fail
}

// TestQuarantineGracefulDegradation is the tentpole end-to-end: crash
// one shard, power-cycle it under the torn policy, fail its recovery so
// it is quarantined — then drive full traffic through the rest. Ops
// routed to the quarantined shard return the typed error, scans and
// cursors skip its partition, Stats conserve exactly over shards, and
// after a successful RecoverShard the shard rejoins with every
// acknowledged key intact.
func TestQuarantineGracefulDegradation(t *testing.T) {
	const (
		h      = 4
		target = 2
		loadN  = 2_000
	)
	m, fail := newFlakyOrdered(t, h, target)
	defer m.Release()
	gen := keys.NewGenerator(keys.RandInt)

	committed := make(map[uint64]uint64)
	for id := uint64(0); id < loadN; id++ {
		if err := m.Insert(gen.Key(id), id); err != nil {
			t.Fatal(err)
		}
		committed[id] = id
	}

	// Crash shard `target` mid-insert, then materialise its torn
	// post-power-loss image.
	m.Heap(target).SetInjector(crash.NewNth(10))
	crashed := false
	for id := uint64(loadN); id < loadN+10_000 && !crashed; id++ {
		if m.Owner(gen.Key(id)) != target {
			continue
		}
		err := m.Insert(gen.Key(id), id)
		switch {
		case crash.IsCrash(err):
			crashed = true
		case err != nil:
			t.Fatal(err)
		default:
			committed[id] = id
		}
	}
	if !crashed {
		t.Fatal("injector never fired in target shard")
	}
	m.Heap(target).SetInjector(nil)
	m.Heap(target).PowerCycle(pmem.PolicyTorn, 1)

	// Recovery rejects the image: the sweep quarantines the shard and
	// reports the casualty, instead of taking the front-end down.
	*fail = true
	if err := m.RecoverShard(target); !errors.Is(err, errRecoveryRejected) {
		t.Fatalf("RecoverShard error = %v, want wrapped errRecoveryRejected", err)
	}
	if !m.Degraded() {
		t.Fatal("front-end not Degraded after failed recovery")
	}
	if q := m.Quarantined(); len(q) != 1 || q[0] != target {
		t.Fatalf("Quarantined() = %v, want [%d]", q, target)
	}
	if err := m.unavailable(target); !errors.Is(err, errRecoveryRejected) {
		t.Fatalf("quarantine cause = %v", err)
	}

	// Full traffic through the healthy shards; typed errors from the
	// quarantined one.
	healthyLen := m.Len()
	for id := uint64(50_000); id < 52_000; id++ {
		key := gen.Key(id)
		if m.Owner(key) == target {
			err := m.Insert(key, id)
			if !errors.Is(err, ErrShardUnavailable) {
				t.Fatalf("insert to quarantined shard: err = %v, want ErrShardUnavailable", err)
			}
			var se *ShardUnavailableError
			if !errors.As(err, &se) || se.Shard != target {
				t.Fatalf("error %v does not carry shard number %d", err, target)
			}
			if err := m.Update(key, id); !errors.Is(err, ErrShardUnavailable) {
				t.Fatalf("update: err = %v", err)
			}
			if _, _, err := m.LookupChecked(key); !errors.Is(err, ErrShardUnavailable) {
				t.Fatalf("lookupChecked: err = %v", err)
			}
			if v, ok := m.Lookup(key); ok || v != 0 {
				t.Fatalf("lookup on quarantined shard = %d,%v, want absent", v, ok)
			}
			if _, err := m.Delete(key); !errors.Is(err, ErrShardUnavailable) {
				t.Fatalf("delete: err = %v", err)
			}
			continue
		}
		if err := m.Insert(key, id); err != nil {
			t.Fatalf("insert to healthy shard while %d quarantined: %v", target, err)
		}
		committed[id] = id
		if v, ok := m.Lookup(key); !ok || v != id {
			t.Fatalf("healthy-shard readback %d = %d,%v", id, v, ok)
		}
	}

	// Degraded scans and cursors: exactly the healthy shards' keys, in
	// order, with no error and no keys from the quarantined partition.
	wantScan := m.Len()
	if wantScan <= healthyLen {
		t.Fatalf("healthy Len did not grow under degradation: %d -> %d", healthyLen, wantScan)
	}
	seen := 0
	m.Scan(nil, 0, func(k []byte, v uint64) bool {
		if m.Owner(k) == target {
			t.Fatalf("degraded scan returned a quarantined-shard key")
		}
		seen++
		return true
	})
	if seen != wantScan {
		t.Fatalf("degraded scan visited %d keys, want %d", seen, wantScan)
	}
	cur, curN := m.Cursor(nil), 0
	for {
		if _, _, ok := cur.Next(); !ok {
			break
		}
		curN++
	}
	if curN != wantScan {
		t.Fatalf("degraded cursor visited %d keys, want %d", curN, wantScan)
	}

	// Exact Stats conservation over shards: the aggregate is the
	// field-wise sum of per-shard snapshots even while one is down.
	if got, want := m.Stats(), sumStats(m.ShardStats()); got != want {
		t.Fatalf("Stats() = %+v, want exact sum %+v", got, want)
	}

	// Recovery heals: RecoverShard re-runs recovery, the shard rejoins,
	// and every acknowledged key — including the quarantined shard's —
	// reads back.
	*fail = false
	if err := m.RecoverShard(target); err != nil {
		t.Fatalf("RecoverShard after cause cleared: %v", err)
	}
	if m.Degraded() || len(m.Quarantined()) != 0 || m.unavailable(target) != nil {
		t.Fatal("still degraded after successful RecoverShard")
	}
	for id, v := range committed {
		if got, ok := m.Lookup(gen.Key(id)); !ok || got != v {
			t.Fatalf("acknowledged key %d lost across torn cycle + quarantine: %d,%v", id, got, ok)
		}
	}
	if err := m.Insert(gen.Key(900_000), 900_000); err != nil {
		t.Fatalf("insert after rejoin: %v", err)
	}
}

// TestHashQuarantine mirrors the typed-error contract on the unordered
// front-end.
func TestHashQuarantine(t *testing.T) {
	m, err := NewHash("P-CLHT", Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	for id := uint64(1); id < 1_000; id++ { // key 0 is reserved in CLHT
		if err := m.Insert(id, id); err != nil {
			t.Fatal(err)
		}
	}
	const target = 3
	m.Quarantine(target, errRecoveryRejected)

	served, blocked := 0, 0
	for id := uint64(1_000); id < 2_000; id++ {
		err := m.Insert(id, id)
		if m.Owner(id) == target {
			if !errors.Is(err, ErrShardUnavailable) {
				t.Fatalf("insert %d: err = %v, want ErrShardUnavailable", id, err)
			}
			if _, _, err := m.LookupChecked(id); !errors.Is(err, ErrShardUnavailable) {
				t.Fatalf("lookupChecked %d: %v", id, err)
			}
			blocked++
			continue
		}
		if err != nil {
			t.Fatalf("healthy-shard insert %d: %v", id, err)
		}
		if v, ok := m.Lookup(id); !ok || v != id {
			t.Fatalf("healthy-shard readback %d = %d,%v", id, v, ok)
		}
		served++
	}
	if served == 0 || blocked == 0 {
		t.Fatalf("test did not exercise both paths (served=%d blocked=%d)", served, blocked)
	}

	// RecoverShard success ends the quarantine.
	if err := m.RecoverShard(target); err != nil {
		t.Fatalf("RecoverShard: %v", err)
	}
	if m.Degraded() {
		t.Fatal("still degraded after successful RecoverShard")
	}
	if err := m.Insert(42_000_000, 1); err != nil {
		t.Fatalf("insert after recovery: %v", err)
	}
}
