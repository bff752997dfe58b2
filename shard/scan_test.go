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
// the streaming scan engine's contract edge cases. Its iterator walks the
// sorted slice and resumes by key, and like the real indexes' iterators
// it hands out keys from one reused buffer, so any cursor code that
// retains a returned key without copying fails loudly.
type memIndex struct {
	mu   sync.Mutex
	keys [][]byte
	vals []uint64
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
	it := m.NewIterator()
	it.Seek(start)
	visited := 0
	for {
		k, v, ok := it.Next()
		if !ok || !fn(k, v) {
			return visited
		}
		visited++
		if count > 0 && visited >= count {
			return visited
		}
	}
}

func (m *memIndex) NewIterator() core.Iterator { return &memIter{m: m} }

// memIter is memIndex's iterator: key is the key it returned last (the
// start, until the first Next), and each Next returns the smallest key
// above it — or, right after Seek, at or above it.
type memIter struct {
	m    *memIndex
	key  []byte
	incl bool
}

func (it *memIter) Seek(start []byte) { it.key, it.incl = append(it.key[:0], start...), true }

func (it *memIter) Next() ([]byte, uint64, bool) {
	it.m.mu.Lock()
	defer it.m.mu.Unlock()
	i, found := it.m.find(it.key)
	if found && !it.incl {
		i++
	}
	if i == len(it.m.keys) {
		return nil, 0, false
	}
	it.key, it.incl = append(it.key[:0], it.m.keys[i]...), false
	return it.key, it.m.vals[i], true
}

func (m *memIndex) Recover() error { return nil }

func (m *memIndex) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.keys)
}

// memFactory ignores the heap and returns a fresh memIndex.
func memFactory(*pmem.Heap) (core.OrderedIndex, error) { return &memIndex{}, nil }

// paginate reads it from start in pages of page entries, each re-Seeked
// at the exclusive successor of the previous page's last key (lastKey +
// 0x00, the smallest key above it) — how the server's SCAN pages — and
// returns every entry read.
func paginate(it core.Iterator, start []byte, page int) []entry {
	var out []entry
	for {
		it.Seek(start)
		for n := 0; n < page; n++ {
			k, v, ok := it.Next()
			if !ok {
				return out
			}
			out = append(out, entry{append([]byte(nil), k...), v})
		}
		start = append(append([]byte(nil), out[len(out)-1].key...), 0)
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

// TestScanStreamingParity: for both partitioners and several shard
// counts, the streamed sharded scan visits exactly the single-index
// sequence — same keys, same values, same order, same return value — for
// bounded, unbounded, and mid-key starts, over real converted indexes;
// and reading it in pages of b entries (b = 1 resumes at every key)
// through one re-Seeked iterator yields the same sequence again.
func TestScanStreamingParity(t *testing.T) {
	const n = 600
	for _, idxName := range []string{"P-ART", "FAST & FAIR"} {
		for _, part := range []Partitioner{HashPartition{}, RangePartition{}} {
			for _, h := range []int{2, 5} {
				for _, page := range []int{1, 7} {
					t.Run(fmt.Sprintf("%s/%s/h=%d/b=%d", idxName, part.Name(), h, page), func(t *testing.T) {
						gen := keys.NewGenerator(keys.RandInt)
						single, err := NewOrdered(idxName, keys.RandInt, Options{Shards: 1})
						if err != nil {
							t.Fatal(err)
						}
						sharded, err := NewOrdered(idxName, keys.RandInt, Options{
							Shards: h, Partitioner: part,
						})
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
						// successor-shaped 9-byte key.
						starts := [][]byte{nil, {}, gen.Key(n / 3), append(gen.Key(n/2), 0)}
						it := sharded.NewIterator()
						for si, start := range starts {
							entriesEqual(t, fmt.Sprintf("start=%d/pages", si), collect(single, start, 0), paginate(it, start, page))
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
// prefixes across P-Masstree's layers.
func TestScanParityStringKeys(t *testing.T) {
	const n = 400
	gen := keys.NewGenerator(keys.YCSBString)
	single, err := NewOrdered("P-Masstree", keys.YCSBString, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewOrdered("P-Masstree", keys.YCSBString, Options{Shards: 4})
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

// TestCursorSuccessorPrefixKeys pins the exclusive-successor resume on
// the nastiest key shapes: keys that are prefixes of their successors
// ("ab" -> "ab\x00"), runs of zero-byte extensions, and pages of one
// entry, so every single entry is a resume. Any off-by-one (resuming at
// lastKey, or at lastKey with the final byte incremented) would duplicate
// or skip the "ab\x00" family.
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
		sharded, err := NewOrderedWith(memFactory, Options{Shards: h})
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range keySet {
			if err := sharded.Insert(k, uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		for _, start := range [][]byte{nil, []byte("ab"), []byte("ab\x00"), []byte("z")} {
			label := fmt.Sprintf("h=%d/start=%q", h, start)
			want := collect(single, start, 0)
			entriesEqual(t, label, want, collect(sharded, start, 0))
			for _, page := range []int{1, 2, len(keySet) + 1} {
				entriesEqual(t, fmt.Sprintf("%s/pages of %d", label, page), want, paginate(sharded.NewIterator(), start, page))
			}
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
	sharded, err := NewOrderedWith(factory, Options{Shards: 3})
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
	want := collect(single, nil, 0)
	entriesEqual(t, "bwtree prefix keys", want, collect(sharded, nil, 0))
	entriesEqual(t, "bwtree prefix keys, pages of 1", want, paginate(sharded.NewIterator(), nil, 1))
}

// TestCursorMatchesScan: the pull API yields the same sequence as the
// callback API for both partitioners, from nil and mid-key starts, and
// the key handed out stays valid until the next Next call.
func TestCursorMatchesScan(t *testing.T) {
	const n = 800
	for _, part := range []Partitioner{HashPartition{}, RangePartition{}} {
		t.Run(part.Name(), func(t *testing.T) {
			gen := keys.NewGenerator(keys.RandInt)
			m, err := NewOrdered("P-ART", keys.RandInt, Options{Shards: 4, Partitioner: part})
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

// TestOrderedIteratorReSeeks: the front-end's NewIterator is a Cursor
// whose Seek re-opens it. Over one shard and over four, one iterator
// re-Seeked from start to start yields what Scan does, stays exhausted
// once drained, and comes back on the next Seek.
func TestOrderedIteratorReSeeks(t *testing.T) {
	gen := keys.NewGenerator(keys.RandInt)
	for _, h := range []int{1, 4} {
		m, err := NewOrdered("FAST & FAIR", keys.RandInt, Options{Shards: h})
		if err != nil {
			t.Fatal(err)
		}
		for id := uint64(0); id < 300; id++ {
			if err := m.Insert(gen.Key(id), id); err != nil {
				t.Fatal(err)
			}
		}
		it := m.NewIterator()
		for _, start := range [][]byte{nil, gen.Key(100), append(gen.Key(7), 0), nil} {
			var got []entry
			it.Seek(start)
			for {
				k, v, ok := it.Next()
				if !ok {
					break
				}
				got = append(got, entry{append([]byte(nil), k...), v})
			}
			entriesEqual(t, fmt.Sprintf("h=%d/start=%x", h, start), collect(m, start, 0), got)
			if _, _, ok := it.Next(); ok {
				t.Fatalf("h=%d: exhausted iterator returned another entry", h)
			}
		}
	}
}

// TestScanEmptyAndMissing: scans over empty front-ends and starts past
// the last key return zero.
func TestScanEmptyAndMissing(t *testing.T) {
	m, err := NewOrderedWith(memFactory, Options{Shards: 3})
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
