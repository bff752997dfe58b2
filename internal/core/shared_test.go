package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/art"
	"repro/internal/bwtree"
	"repro/internal/cceh"
	"repro/internal/clht"
	"repro/internal/fastfair"
	"repro/internal/hot"
	"repro/internal/keys"
	"repro/internal/levelhash"
	"repro/internal/masstree"
	"repro/internal/pmem"
	"repro/internal/woart"
)

// The tests every index shares, one body each over a table of the
// indexes: a random-operation run against a map oracle, a quick-check
// round trip and §5 flush coverage of each insert and delete. Each row
// keeps its index's constructor size, key space, seed and op count.

// byBytes addresses a hash table by 8-byte big-endian keys, so one row
// shape serves both key kinds.
type byBytes struct{ HashIndex }

func (h byBytes) Insert(k []byte, v uint64) error { return h.HashIndex.Insert(keys.DecodeUint64(k), v) }
func (h byBytes) Update(k []byte, v uint64) error { return h.HashIndex.Update(keys.DecodeUint64(k), v) }
func (h byBytes) Lookup(k []byte) (uint64, bool)  { return h.HashIndex.Lookup(keys.DecodeUint64(k)) }
func (h byBytes) Delete(k []byte) (bool, error)   { return h.HashIndex.Delete(keys.DecodeUint64(k)) }

// intKeys draws 8-byte keys from [base, base+n).
func intKeys(n int, base uint64) func(*rand.Rand) []byte {
	return func(r *rand.Rand) []byte { return keys.EncodeUint64(uint64(r.Intn(n)) + base) }
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
					if idx.Insert(keys.EncodeUint64(k), uint64(i)) != nil {
						return false
					}
					want[k] = uint64(i)
				}
				for k, v := range want {
					if got, ok := idx.Lookup(keys.EncodeUint64(k)); !ok || got != v {
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
		{"P-CLHT", func(h *pmem.Heap) PointIndex[[]byte] { return byBytes{clht.NewWithBuckets(h, 1)} }, keys.EncodeUint64, 1, 500, true},
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
