package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/art"
	"repro/internal/bwtree"
	"repro/internal/cceh"
	"repro/internal/clht"
	"repro/internal/crash"
	"repro/internal/fastfair"
	"repro/internal/hot"
	"repro/internal/keys"
	"repro/internal/levelhash"
	"repro/internal/masstree"
	"repro/internal/pmem"
	"repro/internal/woart"
)

// The tests every index shares, one body each over a table of the
// indexes: a single key, insert-over and Update, delete, a load read
// back and scanned, bounded and stopped scans, concurrent inserts, exact
// persistence counts, a random-operation run against a map oracle, a
// quick-check round trip and §5 flush coverage of each insert and
// delete. Each row keeps its index's constructor size, key space, seed,
// op and goroutine counts; an index package tests only its own
// mechanism.

// byBytes addresses a hash table by 8-byte big-endian keys, so one row
// shape serves both key kinds.
type byBytes struct{ HashIndex }

func (h byBytes) Insert(k []byte, v uint64) error { return h.HashIndex.Insert(keys.DecodeUint64(k), v) }
func (h byBytes) Update(k []byte, v uint64) error { return h.HashIndex.Update(keys.DecodeUint64(k), v) }
func (h byBytes) Lookup(k []byte) (uint64, bool)  { return h.HashIndex.Lookup(keys.DecodeUint64(k)) }
func (h byBytes) Delete(k []byte) (bool, error)   { return h.HashIndex.Delete(keys.DecodeUint64(k)) }

// byName builds the named index through the registry: an ordered one
// with key kind, a hash table behind byBytes.
func byName(name string, kind keys.Kind) func(*pmem.Heap) PointIndex[[]byte] {
	return func(h *pmem.Heap) PointIndex[[]byte] {
		if idx, err := NewOrdered(name, h, kind); err == nil {
			return idx
		}
		idx, err := NewHash(name, h)
		if err != nil {
			panic(err)
		}
		return byBytes{idx}
	}
}

// k64 is the 8-byte big-endian key of v.
var k64 = keys.EncodeUint64

// intKeys draws 8-byte keys from [base, base+n).
func intKeys(n int, base uint64) func(*rand.Rand) []byte {
	return func(r *rand.Rand) []byte { return k64(uint64(r.Intn(n)) + base) }
}

// TestOracleRandom runs ops random operations (seeded) against a map:
// of every `kinds` equally likely choices one is a delete, one a lookup
// checked against the map and the rest inserts of a random value; Len
// and every key the map holds must agree at the end.
func TestOracleRandom(t *testing.T) {
	rows := []struct {
		name       string
		idx        func(*pmem.Heap) PointIndex[[]byte]
		key        func(*rand.Rand) []byte
		seed       int64
		ops, kinds int
	}{
		{"P-ART", func(h *pmem.Heap) PointIndex[[]byte] { return art.New(h) }, func(r *rand.Rand) []byte {
			b := make([]byte, 8)
			r.Read(b)
			b[0] &= 3 // force collisions and deep structure
			return b
		}, 2, 30000, 4},
		{"FAST & FAIR", func(h *pmem.Heap) PointIndex[[]byte] { return fastfair.New(h, keys.RandInt) }, intKeys(3000, 0), 3, 30000, 4},
		{"P-BwTree", func(h *pmem.Heap) PointIndex[[]byte] { return bwtree.New(h) }, intKeys(2000, 0), 13, 20000, 4},
		{"P-Masstree", func(h *pmem.Heap) PointIndex[[]byte] { return masstree.New(h) }, func(r *rand.Rand) []byte {
			return fmt.Appendf(nil, "key-%04d-%s", r.Intn(800), []string{"", "long-shared-suffix-tail"}[r.Intn(2)])
		}, 21, 20000, 4},
		{"P-HOT", func(h *pmem.Heap) PointIndex[[]byte] { return hot.New(h) }, func(r *rand.Rand) []byte {
			return fmt.Appendf(nil, "k%05d", r.Intn(3000))
		}, 31, 20000, 4},
		{"WOART", func(h *pmem.Heap) PointIndex[[]byte] { return woart.New(h) }, intKeys(2000, 0), 41, 15000, 4},
		{"CCEH", func(h *pmem.Heap) PointIndex[[]byte] { return byBytes{cceh.New(h)} }, intKeys(5000, 1), 7, 30000, 4},
		{"Level Hashing", func(h *pmem.Heap) PointIndex[[]byte] { return byBytes{levelhash.NewWithBuckets(h, 8)} }, intKeys(4000, 1), 11, 30000, 4},
		{"P-CLHT", func(h *pmem.Heap) PointIndex[[]byte] { return byBytes{clht.NewWithBuckets(h, 2)} }, intKeys(500, 1), 1, 20000, 3},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			idx := row.idx(pmem.NewFast())
			oracle := make(map[string]uint64)
			r := rand.New(rand.NewSource(row.seed))
			for range row.ops {
				k := row.key(r)
				switch c := r.Intn(row.kinds); {
				case c < row.kinds-2:
					v := r.Uint64()
					if err := idx.Insert(k, v); err != nil {
						t.Fatal(err)
					}
					oracle[string(k)] = v
				case c == row.kinds-2:
					if _, err := idx.Delete(k); err != nil {
						t.Fatal(err)
					}
					delete(oracle, string(k))
				default:
					v, ok := idx.Lookup(k)
					ov, ook := oracle[string(k)]
					if ok != ook || (ok && v != ov) {
						t.Fatalf("Lookup(%q) = %d,%v, oracle %d,%v", k, v, ok, ov, ook)
					}
				}
			}
			if idx.Len() != len(oracle) {
				t.Fatalf("Len = %d, oracle %d", idx.Len(), len(oracle))
			}
			for k, ov := range oracle {
				if v, ok := idx.Lookup([]byte(k)); !ok || v != ov {
					t.Fatalf("final Lookup(%q) = %d,%v, want %d", k, v, ok, ov)
				}
			}
		})
	}
}

// mixed returns the batch keys.Mix64(seed+i) | or for i < n%limit + 1,
// large enough to split a hash table.
func mixed(limit int, or uint64) func(_ []uint64, seed uint64, n uint16) []uint64 {
	return func(_ []uint64, seed uint64, n uint16) []uint64 {
		ks := make([]uint64, int(n)%limit+1)
		for i := range ks {
			ks[i] = keys.Mix64(seed+uint64(i)) | or
		}
		return ks
	}
}

// TestQuickRoundTrip: any batch of 8-byte keys, each storing its
// position in the batch (the last write of a repeated key wins), reads
// back, Len counts it, and an ordered index scans exactly the batch,
// strictly ascending. keys picks the batch from quick's random input.
func TestQuickRoundTrip(t *testing.T) {
	asIs := func(vals []uint64, _ uint64, _ uint16) []uint64 { return vals }
	rows := []struct {
		name     string
		idx      func() PointIndex[[]byte]
		keys     func(vals []uint64, seed uint64, n uint16) []uint64
		maxCount int
	}{
		{"P-ART", func() PointIndex[[]byte] { return art.New(pmem.NewFast()) }, asIs, 50},
		{"FAST & FAIR", func() PointIndex[[]byte] { return fastfair.New(pmem.NewFast(), keys.RandInt) }, asIs, 40},
		{"P-BwTree", func() PointIndex[[]byte] { return bwtree.New(pmem.NewFast()) }, asIs, 40},
		{"P-Masstree", func() PointIndex[[]byte] { return masstree.New(pmem.NewFast()) }, asIs, 40},
		{"P-HOT", func() PointIndex[[]byte] { return hot.New(pmem.NewFast()) }, asIs, 40},
		{"WOART", func() PointIndex[[]byte] { return woart.New(pmem.NewFast()) }, asIs, 40},
		{"CCEH", func() PointIndex[[]byte] { return byBytes{cceh.New(pmem.NewFast())} }, mixed(2000, 0), 25},
		{"Level Hashing", func() PointIndex[[]byte] { return byBytes{levelhash.NewWithBuckets(pmem.NewFast(), 4)} }, mixed(1500, 1), 25},
		{"P-CLHT", func() PointIndex[[]byte] { return byBytes{clht.NewWithBuckets(pmem.NewFast(), 2)} }, func(vals []uint64, _ uint64, _ uint16) []uint64 {
			var ks []uint64
			for _, v := range vals {
				if v != 0 { // P-CLHT reserves key 0
					ks = append(ks, v)
				}
			}
			return ks
		}, 60},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			f := func(vals []uint64, seed uint64, n uint16) bool {
				idx := row.idx()
				want := make(map[uint64]uint64)
				for i, k := range row.keys(vals, seed, n) {
					if idx.Insert(k64(k), uint64(i)) != nil {
						return false
					}
					want[k] = uint64(i)
				}
				for k, v := range want {
					if got, ok := idx.Lookup(k64(k)); !ok || got != v {
						return false
					}
				}
				if idx.Len() != len(want) {
					return false
				}
				o, ordered := idx.(OrderedIndex)
				if !ordered {
					return true
				}
				var prev []byte
				good := true
				scanned := o.Scan(nil, 0, func(k []byte, v uint64) bool {
					w, ok := want[keys.DecodeUint64(k)]
					good = good && ok && w == v && (prev == nil || bytes.Compare(prev, k) < 0)
					prev = append(prev[:0], k...)
					return good
				})
				return good && scanned == len(want)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: row.maxCount}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDurabilityFlushCoverage is §5's durability check, one operation
// at a time: construction, each insert of ids [from, from+n) and, where
// a row deletes, each delete of every third of them must leave no line
// dirty or unfenced.
func TestDurabilityFlushCoverage(t *testing.T) {
	ycsb, randInt := keys.NewGenerator(keys.YCSBString).Key, keys.NewGenerator(keys.RandInt).Key
	rows := []struct {
		name    string
		idx     func(*pmem.Heap) PointIndex[[]byte]
		key     func(id uint64) []byte
		from, n uint64
		deletes bool
	}{
		{"P-ART", func(h *pmem.Heap) PointIndex[[]byte] { return art.New(h) }, ycsb, 0, 400, true},
		{"FAST & FAIR", func(h *pmem.Heap) PointIndex[[]byte] { return fastfair.New(h, keys.RandInt) }, randInt, 0, 400, true},
		{"P-BwTree", func(h *pmem.Heap) PointIndex[[]byte] { return bwtree.New(h) }, randInt, 0, 1200, false},
		{"P-Masstree", func(h *pmem.Heap) PointIndex[[]byte] { return masstree.New(h) }, ycsb, 0, 600, true},
		{"P-HOT", func(h *pmem.Heap) PointIndex[[]byte] { return hot.New(h) }, ycsb, 0, 800, true},
		{"CCEH", func(h *pmem.Heap) PointIndex[[]byte] { return byBytes{cceh.New(h)} }, randInt, 1, 2000, false},
		{"Level Hashing", func(h *pmem.Heap) PointIndex[[]byte] { return byBytes{levelhash.NewWithBuckets(h, 8)} }, randInt, 1, 2000, false},
		// From one bucket P-CLHT doubles seven times, so the last
		// directory slot written lies past the root's first line.
		{"P-CLHT", func(h *pmem.Heap) PointIndex[[]byte] { return byBytes{clht.NewWithBuckets(h, 1)} }, k64, 1, 500, true},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			heap := pmem.New(pmem.Options{Track: true})
			idx := row.idx(heap)
			check := func(what string, id uint64) {
				if v := heap.Tracker().Check(); len(v) != 0 {
					t.Fatalf("%s %d left unpersisted lines: %v", what, id, v)
				}
			}
			check("construction", 0)
			for id := row.from; id < row.from+row.n; id++ {
				if err := idx.Insert(row.key(id), id); err != nil {
					t.Fatal(err)
				}
				check("insert", id)
			}
			for id := row.from; row.deletes && id < row.from+row.n; id += 3 {
				if _, err := idx.Delete(row.key(id)); err != nil {
					t.Fatal(err)
				}
				check("delete", id)
			}
		})
	}
}

// TestSingleKey: an empty index finds nothing, counts nothing and scans
// nothing; it refuses its invalid key with its own error and stays
// empty; one stored key reads back, counts one and does not answer for
// its neighbour.
func TestSingleKey(t *testing.T) {
	rows := []struct {
		name       string
		key, other []byte
		value      uint64
		bad        []byte
		badErr     error
	}{
		{"P-ART", k64(42), k64(43), 100, nil, art.ErrEmptyKey},
		{"FAST & FAIR", k64(10), k64(11), 100, nil, fastfair.ErrKeySize},
		{"P-BwTree", k64(5), k64(6), 50, nil, bwtree.ErrEmptyKey},
		{"P-Masstree", k64(1), k64(2), 10, nil, masstree.ErrEmptyKey},
		{"P-HOT", []byte("hello"), []byte("hellp"), 1, nil, hot.ErrEmptyKey},
		{"WOART", k64(1), k64(2), 10, nil, woart.ErrEmptyKey},
		{"CCEH", k64(7), k64(8), 70, k64(0), cceh.ErrZeroKey},
		{"Level Hashing", k64(3), k64(4), 30, k64(0), levelhash.ErrZeroKey},
		{"P-CLHT", k64(42), k64(43), 100, k64(0), clht.ErrZeroKey},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			idx := byName(row.name, keys.RandInt)(pmem.NewFast())
			empty := func(when string) {
				if _, ok := idx.Lookup(row.key); ok {
					t.Fatalf("%s: Lookup hit", when)
				}
				if n := idx.Len(); n != 0 {
					t.Fatalf("%s: Len = %d", when, n)
				}
				if o, ok := idx.(OrderedIndex); ok {
					for _, count := range []int{0, 10} {
						if n := o.Scan(nil, count, func([]byte, uint64) bool { return true }); n != 0 {
							t.Fatalf("%s: Scan(nil, %d) visited %d", when, count, n)
						}
					}
				}
			}
			empty("empty")
			if err := idx.Insert(row.bad, 1); err != row.badErr {
				t.Fatalf("Insert(%x) = %v, want %v", row.bad, err, row.badErr)
			}
			empty("after the refused insert")
			if err := idx.Insert(row.key, row.value); err != nil {
				t.Fatal(err)
			}
			if v, ok := idx.Lookup(row.key); !ok || v != row.value {
				t.Fatalf("Lookup = %d,%v, want %d", v, ok, row.value)
			}
			if _, ok := idx.Lookup(row.other); ok {
				t.Fatalf("Lookup(%x) hit", row.other)
			}
			if n := idx.Len(); n != 1 {
				t.Fatalf("Len = %d, want 1", n)
			}
		})
	}
}

// TestDelete: of n keys from `from` on, deleting every other one (from
// first) reports each present, a second delete reports absent, the
// deleted keys miss, the survivors read back and Len counts them.
func TestDelete(t *testing.T) {
	rows := []struct {
		name    string
		from, n uint64
	}{
		{"P-ART", 0, 100},
		{"FAST & FAIR", 0, 500},
		{"P-BwTree", 0, 300},
		{"P-Masstree", 0, 2000},
		{"P-HOT", 0, 1000},
		{"WOART", 0, 500},
		{"CCEH", 1, 100},
		{"Level Hashing", 1, 200},
		{"P-CLHT", 5, 1},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			idx := byName(row.name, keys.RandInt)(pmem.NewFast())
			end := row.from + row.n
			for id := row.from; id < end; id++ {
				if err := idx.Insert(k64(id), id); err != nil {
					t.Fatal(err)
				}
			}
			for id := row.from; id < end; id += 2 {
				if del, err := idx.Delete(k64(id)); err != nil || !del {
					t.Fatalf("Delete(%d) = %v,%v", id, del, err)
				}
			}
			if del, err := idx.Delete(k64(row.from)); err != nil || del {
				t.Fatalf("re-delete = %v,%v", del, err)
			}
			for id := row.from; id < end; id++ {
				v, ok := idx.Lookup(k64(id))
				if deleted := (id-row.from)%2 == 0; deleted && ok {
					t.Fatalf("deleted key %d present", id)
				} else if !deleted && (!ok || v != id) {
					t.Fatalf("survivor %d = %d,%v", id, v, ok)
				}
			}
			if want := int(row.n / 2); idx.Len() != want {
				t.Fatalf("Len = %d, want %d", idx.Len(), want)
			}
		})
	}
}

// TestLoadAndScan: n keys of a kind, each storing its id, read back, Len
// counts them, and a scan from nil visits exactly them, ascending, each
// with its value.
func TestLoadAndScan(t *testing.T) {
	rows := []struct {
		name string
		kind keys.Kind
		n    uint64
	}{
		{"P-ART", keys.RandInt, 1000},
		{"FAST & FAIR", keys.RandInt, 3000},
		{"FAST & FAIR", keys.YCSBString, 500},
		{"FAST & FAIR", keys.YCSBString, 5000},
		{"P-BwTree", keys.RandInt, 5000},
		{"P-Masstree", keys.RandInt, 5000},
		{"P-Masstree", keys.YCSBString, 20000},
		{"P-HOT", keys.RandInt, 3000},
		{"P-HOT", keys.YCSBString, 10000},
		{"WOART", keys.RandInt, 2000},
	}
	for _, row := range rows {
		t.Run(fmt.Sprintf("%s/%v/%d", row.name, row.kind, row.n), func(t *testing.T) {
			idx := byName(row.name, row.kind)(pmem.NewFast()).(OrderedIndex)
			gen := keys.NewGenerator(row.kind)
			for id := uint64(0); id < row.n; id++ {
				if err := idx.Insert(gen.Key(id), id); err != nil {
					t.Fatal(err)
				}
			}
			for id := uint64(0); id < row.n; id++ {
				if v, ok := idx.Lookup(gen.Key(id)); !ok || v != id {
					t.Fatalf("Lookup(%d) = %d,%v", id, v, ok)
				}
			}
			if idx.Len() != int(row.n) {
				t.Fatalf("Len = %d, want %d", idx.Len(), row.n)
			}
			// Strictly ascending stored pairs, n of them, are all n.
			var prev []byte
			calls := 0
			n := idx.Scan(nil, 0, func(k []byte, v uint64) bool {
				if v >= row.n || !bytes.Equal(k, gen.Key(v)) || bytes.Compare(prev, k) >= 0 {
					t.Fatalf("scan[%d] = %x,%d after %x", calls, k, v, prev)
				}
				prev = append(prev[:0], k...)
				calls++
				return true
			})
			if n != int(row.n) || calls != int(row.n) {
				t.Fatalf("scan visited %d (fn %d), want %d", n, calls, row.n)
			}
		})
	}
}

// TestScanRange: over the multiples of stride below n*stride, a scan of
// count keys from a start between keys visits count keys, the first the
// next multiple at or above start and each the one after.
func TestScanRange(t *testing.T) {
	rows := []struct {
		name                    string
		n, stride, start, count int
	}{
		{"P-ART", 200, 2, 101, 10},
		{"FAST & FAIR", 1000, 3, 100, 7},
		{"P-BwTree", 1000, 2, 501, 5},
		{"P-HOT", 500, 2, 101, 4},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			idx := byName(row.name, keys.RandInt)(pmem.NewFast()).(OrderedIndex)
			for i := 0; i < row.n; i++ {
				k := uint64(i * row.stride)
				if err := idx.Insert(k64(k), k); err != nil {
					t.Fatal(err)
				}
			}
			want := uint64((row.start + row.stride - 1) / row.stride * row.stride)
			calls := 0
			n := idx.Scan(k64(uint64(row.start)), row.count, func(k []byte, v uint64) bool {
				if got := keys.DecodeUint64(k); got != want || v != want {
					t.Fatalf("scan[%d] = %d,%d, want %d", calls, got, v, want)
				}
				want += uint64(row.stride)
				calls++
				return true
			})
			if n != row.count || calls != row.count {
				t.Fatalf("scan visited %d (fn %d), want %d", n, calls, row.count)
			}
		})
	}
}

// TestScanStopEarly: a scan over 50 keys stops at the call whose fn
// returns false.
func TestScanStopEarly(t *testing.T) {
	for _, name := range orderedIndexes() {
		t.Run(name, func(t *testing.T) {
			idx := byName(name, keys.RandInt)(pmem.NewFast()).(OrderedIndex)
			for i := uint64(0); i < 50; i++ {
				if err := idx.Insert(k64(i), i); err != nil {
					t.Fatal(err)
				}
			}
			calls := 0
			idx.Scan(nil, 0, func([]byte, uint64) bool {
				calls++
				return calls < 5
			})
			if calls != 5 {
				t.Fatalf("fn called %d times, want 5", calls)
			}
		})
	}
}

// TestConcurrentInserts: threads goroutines insert per keys each, every
// insert read back at once by its writer (and, where a row scans, under
// a scanner's feet); afterwards Len counts them all and every key reads
// back with its value.
func TestConcurrentInserts(t *testing.T) {
	randInt, str := keys.NewGenerator(keys.RandInt).Key, keys.NewGenerator(keys.YCSBString).Key
	odd := func(id uint64) []byte { return k64(keys.Mix64(id) | 1) }
	rows := []struct {
		name         string
		idx          func(*pmem.Heap) PointIndex[[]byte]
		key          func(id uint64) []byte
		threads, per int
		scan         bool
	}{
		{"P-ART/randint", byName("P-ART", keys.RandInt), randInt, 8, 4000, false},
		{"P-ART/string", byName("P-ART", keys.YCSBString), str, 4, 3000, true},
		{"FAST & FAIR", byName("FAST & FAIR", keys.RandInt), randInt, 8, 4000, false},
		{"P-BwTree", byName("P-BwTree", keys.RandInt), randInt, 8, 3000, false},
		{"P-Masstree", byName("P-Masstree", keys.YCSBString), str, 8, 3000, false},
		{"P-HOT", byName("P-HOT", keys.RandInt), randInt, 8, 3000, false},
		{"WOART", byName("WOART", keys.RandInt), randInt, 4, 2000, false},
		{"CCEH", byName("CCEH", keys.RandInt), odd, 8, 5000, false},
		{"Level Hashing", func(h *pmem.Heap) PointIndex[[]byte] { return byBytes{levelhash.NewWithBuckets(h, 8)} }, odd, 8, 4000, false},
		{"P-CLHT", func(h *pmem.Heap) PointIndex[[]byte] { return byBytes{clht.NewWithBuckets(h, 2)} }, func(id uint64) []byte { return k64(id + 1) }, 8, 3000, false},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			idx := row.idx(pmem.NewFast())
			stop := make(chan struct{})
			var scanner sync.WaitGroup
			if row.scan {
				scanner.Add(1)
				go func() {
					defer scanner.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						idx.(OrderedIndex).Scan(nil, 100, func([]byte, uint64) bool { return true })
					}
				}()
			}
			var wg sync.WaitGroup
			for g := 0; g < row.threads; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < row.per; i++ {
						id := uint64(g*row.per + i)
						k := row.key(id)
						if err := idx.Insert(k, id); err != nil {
							t.Errorf("insert %d: %v", id, err)
							return
						}
						if v, ok := idx.Lookup(k); !ok || v != id {
							t.Errorf("readback %d = %d,%v", id, v, ok)
							return
						}
					}
				}()
			}
			wg.Wait()
			close(stop)
			scanner.Wait()
			total := row.threads * row.per
			if idx.Len() != total {
				t.Fatalf("Len = %d, want %d", idx.Len(), total)
			}
			for id := uint64(0); id < uint64(total); id++ {
				if v, ok := idx.Lookup(row.key(id)); !ok || v != id {
					t.Fatalf("final Lookup(%d) = %d,%v", id, v, ok)
				}
			}
		})
	}
}

// TestInsertFlushCount pins every index's persistence counts exactly:
// one insert into a fresh index (for the hash tables the common case,
// one bucket line written back and fenced once: the value and the
// committing key share the line), then a single-goroutine load of
// RandInt ids [1, 10000], whose totals take in every split, doubling
// and rotation the load makes, and whose crash-site visits a counting
// injector totals. An ordered index also takes the long-key input on a
// fresh string-keyed index: 3,000 keys that share their leading bytes
// in groups (P-Masstree's layers and suffixes), then an update of every
// third and a delete of every fifth. A hash table takes that update and
// delete phase over its loaded 8-byte keys instead. A flush added to or
// dropped from any index's write path, or a crash site moved, moves its
// row.
func TestInsertFlushCount(t *testing.T) {
	const load = 10000
	rows := []struct {
		name                             string
		clwb, fence, loadClwb, loadFence uint64
		longClwb, longFence              uint64 // 0, 0: hash tables take 8-byte keys only
		loadVisits                       uint64
		churnClwb, churnFence            uint64 // hash tables: the update and delete phase
	}{
		{"P-ART", 2, 2, 37447, 20000, 10566, 7869, 20000, 0, 0},
		{"FAST & FAIR", 2, 2, 53080, 49321, 17015, 11412, 22142, 0, 0},
		{"P-BwTree", 2, 2, 48451, 25238, 161805, 11624, 11808, 0, 0},
		{"P-Masstree", 4, 3, 51372, 36198, 20121, 13446, 25165, 0, 0},
		{"P-HOT", 2, 2, 88967, 20961, 59594, 9623, 20961, 0, 0},
		{"WOART", 2, 2, 57010, 30000, 11671, 10868, 10963, 0, 0},
		{"CCEH", 1, 1, 16460, 10081, 0, 0, 20081, 5334, 5334},
		{"Level Hashing", 1, 1, 17171, 10006, 0, 0, 20006, 5334, 5334},
		{"P-CLHT", 1, 1, 18970, 11421, 0, 0, 22264, 5334, 5334},
	}
	gen := keys.NewGenerator(keys.RandInt)
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			heap := pmem.NewFast()
			defer heap.Release()
			idx := byName(row.name, keys.RandInt)(heap)
			before := heap.Stats()
			if err := idx.Insert(k64(12345), 1); err != nil {
				t.Fatal(err)
			}
			d := heap.Stats().Sub(before)
			before = heap.Stats()
			inj := crash.NewNth(0) // counts visits, never fires
			heap.SetInjector(inj)
			for id := uint64(1); id <= load; id++ {
				if err := idx.Insert(gen.Key(id), id); err != nil {
					t.Fatal(err)
				}
			}
			l := heap.Stats().Sub(before)
			if d.Clwb != row.clwb || d.Fence != row.fence {
				t.Errorf("one insert: %d clwb, %d fences; want %d, %d", d.Clwb, d.Fence, row.clwb, row.fence)
			}
			if l.Clwb != row.loadClwb || l.Fence != row.loadFence {
				t.Errorf("load of %d: %d clwb, %d fences; want %d, %d", load, l.Clwb, l.Fence, row.loadClwb, row.loadFence)
			}
			if v := uint64(inj.Visits()); v != row.loadVisits {
				t.Errorf("load of %d: %d crash-site visits; want %d", load, v, row.loadVisits)
			}
			if row.longClwb == 0 {
				before = heap.Stats()
				for id := uint64(1); id <= load; id += 3 {
					if err := idx.Update(gen.Key(id), id+1); err != nil {
						t.Fatal(err)
					}
				}
				for id := uint64(1); id <= load; id += 5 {
					if ok, err := idx.Delete(gen.Key(id)); !ok || err != nil {
						t.Fatalf("delete %d: %v, %v", id, ok, err)
					}
				}
				if c := heap.Stats().Sub(before); c.Clwb != row.churnClwb || c.Fence != row.churnFence {
					t.Errorf("updates and deletes: %d clwb, %d fences; want %d, %d", c.Clwb, c.Fence, row.churnClwb, row.churnFence)
				}
				return
			}
			lh := pmem.NewFast()
			defer lh.Release()
			li := byName(row.name, keys.YCSBString)(lh)
			longKey := func(i int) []byte { return []byte(fmt.Sprintf("longkey-%08d-%015d", i/8, i)) }
			for i := 0; i < 3000; i++ {
				if err := li.Insert(longKey(i), uint64(i)); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 3000; i += 3 {
				if err := li.Update(longKey(i), uint64(i)+1); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 3000; i += 5 {
				if ok, err := li.Delete(longKey(i)); !ok || err != nil {
					t.Fatalf("delete %d: %v, %v", i, ok, err)
				}
			}
			if s := lh.Stats(); s.Clwb != row.longClwb || s.Fence != row.longFence {
				t.Errorf("long keys: %d clwb, %d fences; want %d, %d", s.Clwb, s.Fence, row.longClwb, row.longFence)
			}
		})
	}
}
