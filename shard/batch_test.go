package shard

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/group"
	"repro/internal/keys"
	"repro/internal/pmem"
)

func batchOrdered(t *testing.T, shards int, heap pmem.Options) *Ordered {
	t.Helper()
	m, err := NewOrdered("P-ART", keys.RandInt, Options{Shards: shards, Heap: heap})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestBatchDurableAndReadable: an acked batch is fully readable and
// every shard's tracker is clean at the ack point.
func TestBatchDurableAndReadable(t *testing.T) {
	m := batchOrdered(t, 4, pmem.Options{Track: true})
	defer m.Release()
	for i := 0; i < m.NumShards(); i++ {
		m.Heap(i).Tracker().Reset()
	}
	gen := keys.NewGenerator(keys.RandInt)

	const B = 64
	ops := make([]group.Op[[]byte], B)
	for i := range ops {
		ops[i] = group.Op[[]byte]{Key: gen.Key(uint64(i)), Value: uint64(i)}
	}
	if err := m.ApplyBatch(ops, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m.NumShards(); i++ {
		if v := m.Heap(i).Tracker().Check(); len(v) != 0 {
			t.Errorf("shard %d: %d undurable lines after ack", i, len(v))
		}
	}
	for i := 0; i < B; i++ {
		if v, ok := m.Lookup(gen.Key(uint64(i))); !ok || v != uint64(i) {
			t.Errorf("id %d: ok=%v v=%d", i, ok, v)
		}
	}
	if m.Len() != B {
		t.Errorf("Len = %d, want %d", m.Len(), B)
	}
}

// TestBatchOfOneCounterParity: a batch that lands one op per shard is
// byte-for-byte the unbatched path in every counter.
func TestBatchOfOneCounterParity(t *testing.T) {
	gen := keys.NewGenerator(keys.RandInt)
	const N = 8 // one op per shard at most, many shards

	a := batchOrdered(t, 4, pmem.Options{})
	defer a.Release()
	b := batchOrdered(t, 4, pmem.Options{})
	defer b.Release()

	for i := 0; i < N; i++ {
		key := gen.Key(uint64(i))
		beforeA := a.Stats()
		if err := a.Insert(key, uint64(i)); err != nil {
			t.Fatal(err)
		}
		dA := a.Stats().Sub(beforeA)

		beforeB := b.Stats()
		if err := b.ApplyBatch([]group.Op[[]byte]{{Key: key, Value: uint64(i)}}, nil); err != nil {
			t.Fatal(err)
		}
		dB := b.Stats().Sub(beforeB)
		if dA != dB {
			t.Fatalf("op %d: unbatched delta %+v != batch-of-1 delta %+v", i, dA, dB)
		}
	}
}

// TestBatchSavesFences: a same-shard update batch pays one fence per
// sub-batch instead of one per op.
func TestBatchSavesFences(t *testing.T) {
	m := batchOrdered(t, 1, pmem.Options{})
	defer m.Release()
	gen := keys.NewGenerator(keys.RandInt)
	const B = 32
	for i := 0; i < B; i++ {
		if err := m.Insert(gen.Key(uint64(i)), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	keysB := make([][]byte, B)
	vals := make([]uint64, B)
	for i := range keysB {
		keysB[i], vals[i] = gen.Key(uint64(i)), uint64(i)+100
	}

	before := m.Stats()
	for i := range keysB {
		if err := m.Update(keysB[i], vals[i]); err != nil {
			t.Fatal(err)
		}
	}
	unbatched := m.Stats().Sub(before).Fence

	ops := make([]group.Op[[]byte], B)
	for i := range ops {
		ops[i] = group.Op[[]byte]{Key: keysB[i], Value: vals[i], Update: true}
	}
	before = m.Stats()
	if err := m.ApplyBatch(ops, nil); err != nil {
		t.Fatal(err)
	}
	batched := m.Stats().Sub(before).Fence
	if batched != 1 {
		t.Errorf("batched fences = %d, want 1 (single sub-batch barrier)", batched)
	}
	if batched >= unbatched {
		t.Errorf("batched fences = %d, not < unbatched %d", batched, unbatched)
	}
	for i := range keysB {
		if v, _ := m.Lookup(keysB[i]); v != vals[i] {
			t.Errorf("key %d: v = %d, want %d", i, v, vals[i])
		}
	}
}

// TestBatchQuarantinedShardPartialFailure: a batch spanning a
// quarantined shard fails typed and partially — the healthy
// sub-batches commit durably, the quarantined one is rejected whole.
func TestBatchQuarantinedShardPartialFailure(t *testing.T) {
	m := batchOrdered(t, 4, pmem.Options{Track: true})
	defer m.Release()
	gen := keys.NewGenerator(keys.RandInt)

	const bad = 2
	cause := fmt.Errorf("verifier: shard image corrupt")
	m.Quarantine(bad, cause)

	const B = 64
	ops := make([]group.Op[[]byte], B)
	routed := make([]int, B)
	badOps := 0
	for i := range ops {
		key := gen.Key(uint64(i))
		ops[i] = group.Op[[]byte]{Key: key, Value: uint64(i)}
		routed[i] = m.Route(key)
		if routed[i] == bad {
			badOps++
		}
	}
	if badOps == 0 {
		t.Fatal("test needs at least one op routed to the quarantined shard")
	}

	err := m.ApplyBatch(ops, nil)
	if err == nil {
		t.Fatal("batch spanning a quarantined shard must fail")
	}
	if !errors.Is(err, ErrShardUnavailable) {
		t.Errorf("errors.Is(err, ErrShardUnavailable) = false; err = %v", err)
	}
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("err = %T, want *BatchError", err)
	}
	if len(be.Failed) != 1 {
		t.Fatalf("failed sub-batches = %d, want 1", len(be.Failed))
	}
	sub := be.Failed[0]
	if sub.Shard != bad || sub.Applied != 0 || len(sub.OpIndices) != badOps {
		t.Errorf("sub-batch = {Shard:%d Applied:%d |OpIndices|:%d}, want {%d 0 %d}",
			sub.Shard, sub.Applied, len(sub.OpIndices), bad, badOps)
	}
	var sue *ShardUnavailableError
	if !errors.As(err, &sue) || sue.Shard != bad {
		t.Errorf("no *ShardUnavailableError for shard %d in chain", bad)
	}

	// Healthy sub-batches: durable (tracker-clean) and readable.
	for i := 0; i < m.NumShards(); i++ {
		if i == bad {
			continue
		}
		if v := m.Heap(i).Tracker().Check(); len(v) != 0 {
			t.Errorf("healthy shard %d: %d undurable lines", i, len(v))
		}
	}
	for i := range ops {
		v, ok, lerr := m.LookupChecked(ops[i].Key)
		if routed[i] == bad {
			if lerr == nil {
				t.Errorf("op %d on quarantined shard: lookup did not error", i)
			}
			continue
		}
		if lerr != nil || !ok || v != uint64(i) {
			t.Errorf("op %d: v=%d ok=%v err=%v", i, v, ok, lerr)
		}
	}
}

// TestBatchObservedIndexTranslation: the observer sees original batch
// indices, each op once plus one barrier repeat per sub-batch.
func TestBatchObservedIndexTranslation(t *testing.T) {
	m := batchOrdered(t, 4, pmem.Options{})
	defer m.Release()
	gen := keys.NewGenerator(keys.RandInt)

	const B = 32
	ops := make([]group.Op[[]byte], B)
	for i := range ops {
		ops[i] = group.Op[[]byte]{Key: gen.Key(uint64(i)), Value: uint64(i)}
	}
	counts := make([]int, B)
	if err := m.ApplyBatch(ops, func(i int) { counts[i]++ }); err != nil {
		t.Fatal(err)
	}
	extra := 0
	for i, c := range counts {
		switch c {
		case 1:
		case 2:
			extra++ // the sub-batch's last op absorbs its barrier callback
		default:
			t.Errorf("op %d observed %d times, want 1 or 2", i, c)
		}
	}
	// One barrier repeat per sub-batch that actually grouped (>= 2 ops);
	// single-op sub-batches also double-call per the group contract.
	if extra < 1 || extra > m.NumShards() {
		t.Errorf("barrier repeats = %d, want 1..%d", extra, m.NumShards())
	}
}

// TestDeferredCombiner: queued writes survive caller key-buffer reuse,
// auto-flush at the limit, and a final Flush commits the tail.
func TestDeferredCombiner(t *testing.T) {
	m := batchOrdered(t, 2, pmem.Options{})
	defer m.Release()
	gen := keys.NewGenerator(keys.RandInt)
	d := NewDeferred(m, 8)

	const N = 29 // deliberately not a multiple of the limit
	buf := make([]byte, 0, 16)
	for i := 0; i < N; i++ {
		buf = gen.AppendKey(buf[:0], uint64(i)) // reused buffer: Deferred must copy
		if err := d.Insert(buf, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if d.Pending() != N%8 {
		t.Errorf("Pending = %d, want %d (auto-flush at limit)", d.Pending(), N%8)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if d.Pending() != 0 {
		t.Errorf("after Flush: Pending=%d", d.Pending())
	}
	for i := 0; i < N; i++ {
		if v, ok := m.Lookup(gen.Key(uint64(i))); !ok || v != uint64(i) {
			t.Errorf("id %d: ok=%v v=%d (clobbered by buffer reuse?)", i, ok, v)
		}
	}

	// Updates queue too.
	if err := d.Update(gen.Key(3), 1003); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Lookup(gen.Key(3)); v != 1003 {
		t.Errorf("updated v = %d, want 1003", v)
	}
}

// TestHashBatchSavesFences: the unordered batch path coalesces fences
// per shard too.
func TestHashBatchSavesFences(t *testing.T) {
	m, err := NewHash("P-CLHT", Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	gen := keys.NewGenerator(keys.RandInt)
	const B = 32
	ks := make([]uint64, B)
	vs := make([]uint64, B)
	ops := make([]group.Op[uint64], B)
	for i := range ks {
		ks[i], vs[i] = gen.Uint64(uint64(i))|1, uint64(i)
		ops[i] = group.Op[uint64]{Key: ks[i], Value: vs[i]}
	}
	if err := m.ApplyBatch(ops, nil); err != nil {
		t.Fatal(err)
	}

	before := m.Stats()
	for i := range ks {
		if err := m.Update(ks[i], vs[i]+100); err != nil {
			t.Fatal(err)
		}
	}
	unbatched := m.Stats().Sub(before).Fence

	for i := range ops {
		ops[i].Value, ops[i].Update = vs[i]+200, true
	}
	before = m.Stats()
	if err := m.ApplyBatch(ops, nil); err != nil {
		t.Fatal(err)
	}
	batched := m.Stats().Sub(before).Fence
	if batched >= unbatched {
		t.Errorf("batched fences = %d, not < unbatched %d", batched, unbatched)
	}
}
