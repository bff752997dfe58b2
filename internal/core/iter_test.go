package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/keys"
	"repro/internal/pmem"
)

// orderedIndexes lists every ordered index NewOrdered builds.
func orderedIndexes() []string { return append(append([]string(nil), OrderedNames...), "WOART") }

// tail returns the keys of a sorted model that are >= start.
func tail(model [][]byte, start []byte) [][]byte {
	i := sort.Search(len(model), func(i int) bool { return bytes.Compare(model[i], start) >= 0 })
	return model[i:]
}

// conformanceStarts derives the starts worth probing from a sorted key
// set: nil, empty, past the maximum, the "ab"/"ab\x00" pair, and for a
// sample of keys the key itself (equal), its successor and its
// predecessor at the last byte (absent), and strict prefixes of it.
func conformanceStarts(model [][]byte) [][]byte {
	starts := [][]byte{nil, {}, bytes.Repeat([]byte{0xff}, 30), []byte("ab"), []byte("ab\x00")}
	for i := 0; i < len(model); i += len(model)/9 + 1 {
		k := model[i]
		starts = append(starts, k, append(append([]byte(nil), k...), 0), k[:len(k)/2], k[:1])
		if last := k[len(k)-1]; last > 0 {
			starts = append(starts, append(append([]byte(nil), k[:len(k)-1]...), last-1))
		}
	}
	return starts
}

// TestIteratorConformance holds every ordered index's iterator, over both
// key kinds, to the core.Iterator contract against a sorted model: from
// every kind of start one re-Seeked iterator yields exactly the model's
// tail with the model's values; Seek does not retain start; a returned
// key is unchanged until the next call, whatever else runs against the
// index meanwhile; and Scan(start, n) is the first n entries of the same
// walk. String keys add "ab", "ab\x00" and friends, which P-ART and WOART
// refuse once one of them is a prefix of another.
func TestIteratorConformance(t *testing.T) {
	for _, name := range orderedIndexes() {
		for _, kind := range []keys.Kind{keys.RandInt, keys.YCSBString} {
			t.Run(fmt.Sprintf("%s/%v", name, kind), func(t *testing.T) {
				heap := pmem.NewFast()
				defer heap.Release()
				idx, err := NewOrdered(name, heap, kind)
				if err != nil {
					t.Fatal(err)
				}
				gen := keys.NewGenerator(kind)
				model := map[string]uint64{}
				for id := uint64(0); id < 600; id++ {
					if err := idx.Insert(gen.Key(id), id); err != nil {
						t.Fatalf("insert %d: %v", id, err)
					}
					model[string(gen.Key(id))] = id
				}
				if kind == keys.YCSBString {
					for i, k := range []string{"ab", "ab\x00", "ab\x00\x00", "ab\x01", "abc"} {
						if idx.Insert([]byte(k), uint64(10_000+i)) == nil {
							model[k] = uint64(10_000 + i)
						}
					}
				}
				for id := uint64(0); id < 600; id += 5 {
					if ok, err := idx.Delete(gen.Key(id)); !ok || err != nil {
						t.Fatalf("delete %d = %v, %v", id, ok, err)
					}
					delete(model, string(gen.Key(id)))
				}
				sorted := make([][]byte, 0, len(model))
				for k := range model {
					sorted = append(sorted, []byte(k))
				}
				sort.Slice(sorted, func(i, j int) bool { return bytes.Compare(sorted[i], sorted[j]) < 0 })

				it, other := idx.NewIterator(), idx.NewIterator()
				other.Seek(nil)
				for _, start := range conformanceStarts(sorted) {
					label := fmt.Sprintf("start %q", start)
					want := tail(sorted, start)
					scribbled := append([]byte(nil), start...)
					it.Seek(scribbled)
					for i := range scribbled {
						scribbled[i] ^= 0xa5
					}
					var got [][]byte
					for {
						k, v, ok := it.Next()
						if !ok {
							break
						}
						held := append([]byte(nil), k...)
						if w, ok := model[string(k)]; !ok || v != w {
							t.Fatalf("%s: %q = %d, model has %d, %v", label, k, v, w, ok)
						}
						// Run the index between the calls: another
						// iterator, a lookup and a scan.
						if _, _, ok := other.Next(); !ok {
							other.Seek(nil)
						}
						idx.Lookup(held)
						idx.Scan(held, 2, func([]byte, uint64) bool { return true })
						if !bytes.Equal(k, held) {
							t.Fatalf("%s: returned key %q changed to %q before the next call", label, held, k)
						}
						got = append(got, held)
					}
					sameKeys(t, label+" iterator", want, got)
					for _, n := range []int{1, 7, 0} {
						var scanned [][]byte
						idx.Scan(start, n, func(k []byte, _ uint64) bool {
							scanned = append(scanned, append([]byte(nil), k...))
							return true
						})
						first := want
						if n > 0 {
							first = want[:min(n, len(want))]
						}
						sameKeys(t, fmt.Sprintf("%s scan(%d)", label, n), first, scanned)
					}
				}
			})
		}
	}
}

func sameKeys(t *testing.T, label string, want, got [][]byte) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d keys, want %d", label, len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(want[i], got[i]) {
			t.Fatalf("%s: key %d = %q, want %q", label, i, got[i], want[i])
		}
	}
}

// TestIteratorConcurrentWriters: for every ordered index, at GOMAXPROCS 1
// and 4, a key in the index for an iterator's whole lifetime is returned
// exactly once and in ascending order, while writers insert and delete
// keys beside it — driving each index's transient states under the
// iterator: FAST & FAIR's shifts and splits, P-Masstree's leaf splits in
// every layer, P-BwTree's delta chains, consolidations and splits,
// P-HOT's copy-on-write swaps, WOART's growing slot arrays and P-ART's
// node growth and prefix splits. Every write of a key stores the same
// value, a hash of the key, so an entry returned with any other value
// was torn from two writes or never committed. Run with -race.
func TestIteratorConcurrentWriters(t *testing.T) {
	for _, procs := range []int{1, 4} {
		for _, name := range orderedIndexes() {
			t.Run(fmt.Sprintf("procs=%d/%s", procs, name), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				iterateUnderWriters(t, name)
			})
		}
	}
}

// valueOf is the value every write of key stores (FNV-1a).
func valueOf(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return h
}

func iterateUnderWriters(t *testing.T, name string) {
	heap := pmem.NewFast()
	defer heap.Release()
	idx, err := NewOrdered(name, heap, keys.YCSBString)
	if err != nil {
		t.Fatal(err)
	}
	// Stable keys: present before the first iterator opens, never
	// deleted. Every key ends in '.', so none is a prefix of another.
	var stable [][]byte
	for i := 0; i < 600; i++ {
		k := []byte(fmt.Sprintf("user%06d-s.", i*3))
		if err := idx.Insert(k, valueOf(k)); err != nil {
			t.Fatal(err)
		}
		stable = append(stable, k)
	}
	const writers, minWrites = 2, 10_000
	var writes atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Between and beside the stable keys, sharing their
				// 8-byte slices and their leaves.
				k := []byte(fmt.Sprintf("user%06d-w%d.", rng.Intn(1800), w))
				if i%2 == 1 {
					k = []byte(fmt.Sprintf("user%06d-s%c.", rng.Intn(600)*3, 'a'+rune(rng.Intn(26))))
				}
				if err := idx.Insert(k, valueOf(k)); err != nil {
					t.Errorf("insert %q: %v", k, err)
					return
				}
				if i%4 == 3 {
					if _, err := idx.Delete(k); err != nil {
						t.Errorf("delete %q: %v", k, err)
						return
					}
				}
				writes.Add(1)
			}
		}(w)
	}
	it := idx.NewIterator()
	var prev []byte
	for round := 0; (round < 20 || writes.Load() < minWrites) && !t.Failed(); round++ {
		start := stable[(round*67)%len(stable)]
		if round%5 == 0 {
			start = nil
		}
		want := tail(stable, start)
		prev = prev[:0]
		it.Seek(start)
		for first := true; ; first = false {
			k, v, ok := it.Next()
			if !ok {
				break
			}
			if !first && bytes.Compare(prev, k) >= 0 {
				t.Errorf("round %d: %q after %q: out of order or repeated", round, k, prev)
				break
			}
			if v != valueOf(k) {
				t.Errorf("round %d: %q = %d, never written", round, k, v)
				break
			}
			prev = append(prev[:0], k...)
			if len(want) > 0 && bytes.Equal(k, want[0]) {
				want = want[1:]
			}
		}
		if len(want) > 0 {
			t.Errorf("round %d: stable key %q (and %d more) never returned", round, want[0], len(want)-1)
		}
	}
	close(stop)
	wg.Wait()
}
