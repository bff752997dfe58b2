package shard

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/keys"
	"repro/internal/pmem"
)

// memIndex is a deterministic in-memory core.OrderedIndex for pinning
// the streaming scan engine's contract edge cases. Like the real
// indexes, its Scan reuses one callback key buffer between entries, so
// any cursor code that retains a callback key without copying fails
// loudly. It counts Scan calls so tests can assert how many batches a
// streaming scan actually fetched.
type memIndex struct {
	mu    sync.Mutex
	keys  [][]byte
	vals  []uint64
	scans int
}

func (m *memIndex) find(key []byte) (int, bool) {
	i := sort.Search(len(m.keys), func(i int) bool { return bytes.Compare(m.keys[i], key) >= 0 })
	return i, i < len(m.keys) && bytes.Equal(m.keys[i], key)
}

func (m *memIndex) Insert(key []byte, value uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	k := append([]byte(nil), key...)
	if i, ok := m.find(k); ok {
		m.vals[i] = value
	} else {
		m.keys = append(m.keys[:i], append([][]byte{k}, m.keys[i:]...)...)
		m.vals = append(m.vals[:i], append([]uint64{value}, m.vals[i:]...)...)
	}
	return nil
}

func (m *memIndex) Update(key []byte, value uint64) error { return m.Insert(key, value) }

func (m *memIndex) Lookup(key []byte) (uint64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if i, ok := m.find(key); ok {
		return m.vals[i], true
	}
	return 0, false
}

func (m *memIndex) Delete(key []byte) (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	i, ok := m.find(key)
	if !ok {
		return false, nil
	}
	m.keys = append(m.keys[:i], m.keys[i+1:]...)
	m.vals = append(m.vals[:i], m.vals[i+1:]...)
	return true, nil
}

func (m *memIndex) Scan(start []byte, count int, fn func(key []byte, value uint64) bool) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.scans++
	visited := 0
	buf := make([]byte, 0, 32)
	for i := range m.keys {
		if bytes.Compare(m.keys[i], start) < 0 {
			continue
		}
		buf = append(buf[:0], m.keys[i]...)
		if !fn(buf, m.vals[i]) {
			return visited
		}
		visited++
		if count > 0 && visited >= count {
			return visited
		}
	}
	return visited
}

func (m *memIndex) Recover() error { return nil }

func (m *memIndex) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.keys)
}

// memFactory ignores the heap and returns a fresh memIndex.
func memFactory(*pmem.Heap) (core.OrderedIndex, error) { return &memIndex{}, nil }

// batchCap wraps a constructor call to replace the front-end's adapter
// batch cap (adapterBatch) with a tiny one, so that scans over a few
// hundred keys cross many resume boundaries.
func batchCap(batch int) func(*Ordered, error) (*Ordered, error) {
	return func(m *Ordered, err error) (*Ordered, error) {
		if err == nil {
			m.batch = batch
		}
		return m, err
	}
}

// entry is a collected scan result.
type entry struct {
	key []byte
	val uint64
}

// collect gathers a scan's full callback sequence, copying keys.
func collect(idx core.OrderedIndex, start []byte, count int) []entry {
	var out []entry
	idx.Scan(start, count, func(k []byte, v uint64) bool {
		out = append(out, entry{append([]byte(nil), k...), v})
		return true
	})
	return out
}

func entriesEqual(t *testing.T, label string, want, got []entry) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d entries, want %d", label, len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(want[i].key, got[i].key) || want[i].val != got[i].val {
			t.Fatalf("%s: entry %d = (%x,%d), want (%x,%d)",
				label, i, got[i].key, got[i].val, want[i].key, want[i].val)
		}
	}
}

// TestScanStreamingParity: for both partitioners, several shard counts
// and deliberately tiny batch sizes (to force many resume boundaries),
// the streamed sharded scan visits exactly the single-index sequence —
// same keys, same values, same order, same return value — for bounded,
// unbounded, and mid-key starts, over real converted indexes.
func TestScanStreamingParity(t *testing.T) {
	const n = 600
	for _, idxName := range []string{"P-ART", "FAST & FAIR"} {
		for _, part := range []Partitioner{HashPartition{}, RangePartition{}} {
			for _, h := range []int{2, 5} {
				for _, batch := range []int{1, 7} {
					t.Run(fmt.Sprintf("%s/%s/h=%d/b=%d", idxName, part.Name(), h, batch), func(t *testing.T) {
						gen := keys.NewGenerator(keys.RandInt)
						single, err := NewOrdered(idxName, keys.RandInt, Options{Shards: 1})
						if err != nil {
							t.Fatal(err)
						}
						sharded, err := batchCap(batch)(NewOrdered(idxName, keys.RandInt, Options{
							Shards: h, Partitioner: part,
						}))
						if err != nil {
							t.Fatal(err)
						}
						for id := uint64(0); id < n; id++ {
							k := gen.Key(id)
							if err := single.Insert(k, id); err != nil {
								t.Fatal(err)
							}
							if err := sharded.Insert(k, id); err != nil {
								t.Fatal(err)
							}
						}
						// Starts: nil, empty, a real mid-range key, and a
						// successor-shaped 9-byte key. (No short non-empty
						// starts: FAST & FAIR's randint probe decode
						// requires >= 8 bytes or empty.)
						starts := [][]byte{nil, {}, gen.Key(n / 3), append(gen.Key(n/2), 0)}
						for si, start := range starts {
							for _, count := range []int{0, 1, 29, n + 10} {
								label := fmt.Sprintf("start=%d/count=%d", si, count)
								want := collect(single, start, count)
								got := collect(sharded, start, count)
								entriesEqual(t, label, want, got)
								if w, g := single.Scan(start, count, func([]byte, uint64) bool { return true }),
									sharded.Scan(start, count, func([]byte, uint64) bool { return true }); w != g {
									t.Fatalf("%s: visited %d, want %d", label, g, w)
								}
							}
						}
						// Early stop mid-scan: the visited count must
						// exclude the key fn rejected, exactly as the
						// single index counts it.
						for _, stop := range []int{0, 3, 13} {
							visit := func(m *Ordered) int {
								seen := 0
								return m.Scan(nil, 0, func([]byte, uint64) bool {
									if seen == stop {
										return false
									}
									seen++
									return true
								})
							}
							if w, g := visit(single), visit(sharded); w != g || w != stop {
								t.Fatalf("early stop at %d: visited %d, want %d", stop, g, w)
							}
						}
					})
				}
			}
		}
	}
}

// TestScanParityStringKeys repeats the parity check with the 24-byte
// YCSB string keys, whose shared "user" prefix exercises long common
// prefixes across batch boundaries.
func TestScanParityStringKeys(t *testing.T) {
	const n = 400
	gen := keys.NewGenerator(keys.YCSBString)
	single, err := NewOrdered("P-Masstree", keys.YCSBString, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := batchCap(3)(NewOrdered("P-Masstree", keys.YCSBString, Options{Shards: 4}))
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(0); id < n; id++ {
		k := gen.Key(id)
		if err := single.Insert(k, id); err != nil {
			t.Fatal(err)
		}
		if err := sharded.Insert(k, id); err != nil {
			t.Fatal(err)
		}
	}
	for _, count := range []int{0, 10, 333} {
		entriesEqual(t, fmt.Sprintf("count=%d", count),
			collect(single, nil, count), collect(sharded, nil, count))
	}
	start := gen.Key(123)
	entriesEqual(t, "mid-key start", collect(single, start, 50), collect(sharded, start, 50))
}

// TestCursorSuccessorPrefixKeys pins the exclusive-successor resume
// computation on the nastiest key shapes: keys that are prefixes of
// their successors ("ab" -> "ab\x00"), runs of zero-byte extensions,
// and batch size 1 so every single entry crosses a resume boundary. Any
// off-by-one (resuming at lastKey, or at lastKey with the final byte
// incremented) would duplicate or skip the "ab\x00" family.
func TestCursorSuccessorPrefixKeys(t *testing.T) {
	keySet := [][]byte{
		[]byte("a"), []byte("ab"), []byte("ab\x00"), []byte("ab\x00\x00"),
		[]byte("ab\x01"), []byte("abc"), []byte("ac"), []byte("b"), []byte("b\x00"),
		{0x00}, {0x00, 0x00}, {0xff}, {0xff, 0x00},
	}
	single := &memIndex{}
	for i, k := range keySet {
		if err := single.Insert(k, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, h := range []int{1, 2, 3} {
		for _, batch := range []int{1, 2, len(keySet) + 1} {
			sharded, err := batchCap(batch)(NewOrderedWith(memFactory, Options{Shards: h}))
			if err != nil {
				t.Fatal(err)
			}
			for i, k := range keySet {
				if err := sharded.Insert(k, uint64(i)); err != nil {
					t.Fatal(err)
				}
			}
			for _, start := range [][]byte{nil, []byte("ab"), []byte("ab\x00"), []byte("z")} {
				label := fmt.Sprintf("h=%d/b=%d/start=%q", h, batch, start)
				entriesEqual(t, label, collect(single, start, 0), collect(sharded, start, 0))
			}
			// Pull API over the same keys.
			cur := sharded.Cursor(nil)
			var got []entry
			for {
				k, v, ok := cur.Next()
				if !ok {
					break
				}
				got = append(got, entry{append([]byte(nil), k...), v})
			}
			entriesEqual(t, fmt.Sprintf("cursor h=%d/b=%d", h, batch), collect(single, nil, 0), got)
		}
	}
}

// TestCursorSuccessorPrefixKeysRealIndex repeats the prefix-successor
// check against a real byte-string index (P-BwTree) rather than the
// test fake.
func TestCursorSuccessorPrefixKeysRealIndex(t *testing.T) {
	factory := func(h *pmem.Heap) (core.OrderedIndex, error) {
		return core.NewOrdered("P-BwTree", h, keys.YCSBString)
	}
	single, err := NewOrderedWith(factory, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := batchCap(1)(NewOrderedWith(factory, Options{Shards: 3}))
	if err != nil {
		t.Fatal(err)
	}
	keySet := [][]byte{
		[]byte("ab"), []byte("ab\x00"), []byte("ab\x00\x00"), []byte("ab\x01"),
		[]byte("abc"), []byte("b"), []byte("b\x00"),
	}
	for i, k := range keySet {
		if err := single.Insert(k, uint64(i)); err != nil {
			t.Fatal(err)
		}
		if err := sharded.Insert(k, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	entriesEqual(t, "bwtree prefix keys", collect(single, nil, 0), collect(sharded, nil, 0))
}

// TestScanBatchBoundaryOnCount: when the requested count lands exactly
// on a batch boundary, the merge must not fetch the next batch it will
// never use. The memIndex scan counters make over-fetch visible: a
// bounded merge scan clamps its batch to count, so each shard is
// consulted exactly once.
func TestScanBatchBoundaryOnCount(t *testing.T) {
	const h, batch = 3, 4
	sharded, err := batchCap(batch)(NewOrderedWith(memFactory, Options{Shards: h}))
	if err != nil {
		t.Fatal(err)
	}
	gen := keys.NewGenerator(keys.RandInt)
	for id := uint64(0); id < 120; id++ {
		if err := sharded.Insert(gen.Key(id), id); err != nil {
			t.Fatal(err)
		}
	}
	// count == batch: one Scan call per shard, no resume fetch.
	if got := sharded.Scan(nil, batch, func([]byte, uint64) bool { return true }); got != batch {
		t.Fatalf("visited %d, want %d", got, batch)
	}
	for i := 0; i < h; i++ {
		if n := sharded.Shard(i).(*memIndex).scans; n != 1 {
			t.Fatalf("shard %d scanned %d times, want exactly 1", i, n)
		}
	}
	// fn stopping mid-batch must also stop batch fetching: with count
	// unbounded but fn rejecting the 3rd key, no shard needs a second
	// batch (batch entries are already buffered per shard).
	seen := 0
	sharded.Scan(nil, 0, func([]byte, uint64) bool {
		if seen == 2 {
			return false
		}
		seen++
		return true
	})
	for i := 0; i < h; i++ {
		if n := sharded.Shard(i).(*memIndex).scans; n != 2 {
			t.Fatalf("shard %d scanned %d times total, want 2", i, n)
		}
	}
}

// TestCursorMatchesScan: the pull API yields the same sequence as the
// callback API for both partitioners, from nil and mid-key starts, and
// the key handed out stays valid until the next Next call even across
// batch refills.
func TestCursorMatchesScan(t *testing.T) {
	const n = 800
	for _, part := range []Partitioner{HashPartition{}, RangePartition{}} {
		t.Run(part.Name(), func(t *testing.T) {
			gen := keys.NewGenerator(keys.RandInt)
			m, err := batchCap(5)(NewOrdered("P-ART", keys.RandInt, Options{Shards: 4, Partitioner: part}))
			if err != nil {
				t.Fatal(err)
			}
			for id := uint64(0); id < n; id++ {
				if err := m.Insert(gen.Key(id), id); err != nil {
					t.Fatal(err)
				}
			}
			for _, start := range [][]byte{nil, gen.Key(n / 4)} {
				want := collect(m, start, 0)
				cur := m.Cursor(start)
				for i := 0; ; i++ {
					k, v, ok := cur.Next()
					if !ok {
						if i != len(want) {
							t.Fatalf("cursor ended after %d entries, want %d", i, len(want))
						}
						break
					}
					if i >= len(want) {
						t.Fatalf("cursor yielded %d entries, want %d", i+1, len(want))
					}
					// Compare before calling Next again: the key is
					// documented valid only until the next call.
					if !bytes.Equal(k, want[i].key) || v != want[i].val {
						t.Fatalf("cursor entry %d = (%x,%d), want (%x,%d)", i, k, v, want[i].key, want[i].val)
					}
				}
			}
		})
	}
}

// TestNewCursorSingleIndex: NewCursor paginates a single ordered index
// without any front-end, resuming across batches.
func TestNewCursorSingleIndex(t *testing.T) {
	heap := pmem.NewFast()
	idx, err := core.NewOrdered("FAST & FAIR", heap, keys.RandInt)
	if err != nil {
		t.Fatal(err)
	}
	gen := keys.NewGenerator(keys.RandInt)
	for id := uint64(0); id < 300; id++ {
		if err := idx.Insert(gen.Key(id), id); err != nil {
			t.Fatal(err)
		}
	}
	want := collect(idx, nil, 0)
	cur := NewCursor(idx, nil)
	cur.batch = 7
	var got []entry
	for {
		k, v, ok := cur.Next()
		if !ok {
			break
		}
		got = append(got, entry{append([]byte(nil), k...), v})
	}
	entriesEqual(t, "single-index cursor", want, got)
	// An exhausted cursor stays exhausted.
	if _, _, ok := cur.Next(); ok {
		t.Fatal("exhausted cursor returned another entry")
	}
}

// TestScanEmptyAndMissing: scans over empty front-ends and starts past
// the last key return zero without fetching forever.
func TestScanEmptyAndMissing(t *testing.T) {
	m, err := batchCap(2)(NewOrderedWith(memFactory, Options{Shards: 3}))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Scan(nil, 0, func([]byte, uint64) bool { return true }); got != 0 {
		t.Fatalf("empty scan visited %d", got)
	}
	if k, _, ok := m.Cursor(nil).Next(); ok {
		t.Fatalf("empty cursor yielded %x", k)
	}
	if err := m.Insert([]byte("k"), 1); err != nil {
		t.Fatal(err)
	}
	if got := m.Scan([]byte("z"), 0, func([]byte, uint64) bool { return true }); got != 0 {
		t.Fatalf("past-the-end scan visited %d", got)
	}
}

// TestAdaptiveBatchParityAndSchedule: cursors warm up their batch size
// geometrically (adaptiveSeed doubling to the cap), which must change
// only how many Scan calls a long scan makes — never which entries come
// back. With 1000 keys in one shard and the default cap of 256, the
// fill sizes are 32, 64, 128, 256, 256, 256, then a final short fill:
// 7 Scan calls, versus 32 for a fixed seed-sized batch.
func TestAdaptiveBatchParityAndSchedule(t *testing.T) {
	const n = 1_000
	sharded, err := NewOrderedWith(memFactory, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	gen := keys.NewGenerator(keys.RandInt)
	want := make([]entry, 0, n)
	for id := uint64(0); id < n; id++ {
		k := gen.Key(id)
		if err := sharded.Insert(k, id); err != nil {
			t.Fatal(err)
		}
		want = append(want, entry{append([]byte(nil), k...), id})
	}
	sort.Slice(want, func(i, j int) bool { return bytes.Compare(want[i].key, want[j].key) < 0 })

	// Parity: the adaptive cursor yields exactly the full ordered set.
	cur, got := sharded.Cursor(nil), make([]entry, 0, n)
	for {
		k, v, ok := cur.Next()
		if !ok {
			break
		}
		got = append(got, entry{append([]byte(nil), k...), v})
	}
	entriesEqual(t, "adaptive cursor", want, got)

	// Schedule: 32+64+128+256+256+256 = 992 full fills + 1 short fill.
	if scans := sharded.Shard(0).(*memIndex).scans; scans != 7 {
		t.Fatalf("adaptive cursor made %d Scan calls over %d keys, want 7", scans, n)
	}

	// A short scan touches only seed-sized batches: 10 entries from a
	// fresh cursor must cost exactly one 32-entry fill.
	m2, err := NewOrderedWith(memFactory, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range want {
		if err := m2.Insert(e.key, e.val); err != nil {
			t.Fatal(err)
		}
	}
	cur2 := m2.Cursor(nil)
	for i := 0; i < 10; i++ {
		if _, _, ok := cur2.Next(); !ok {
			t.Fatalf("cursor exhausted at entry %d", i)
		}
	}
	if scans := m2.Shard(0).(*memIndex).scans; scans != 1 {
		t.Fatalf("10-entry read made %d Scan calls, want 1 seed-sized fill", scans)
	}
}
