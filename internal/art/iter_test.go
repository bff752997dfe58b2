package art

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/crash"
	"repro/internal/pmem"
)

// drain collects everything an iterator positioned by Seek(start) yields.
func drain(it interface {
	Seek([]byte)
	Next() ([]byte, uint64, bool)
}, start []byte) [][]byte {
	var out [][]byte
	it.Seek(start)
	for {
		k, _, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, k)
	}
}

// scanKeys collects a Scan's callback keys.
func scanKeys(idx *Index, start []byte, count int) [][]byte {
	var out [][]byte
	idx.Scan(start, count, func(k []byte, _ uint64) bool {
		out = append(out, k)
		return true
	})
	return out
}

// tail returns the keys of the sorted model that are >= start.
func tail(model [][]byte, start []byte) [][]byte {
	i := sort.Search(len(model), func(i int) bool { return bytes.Compare(model[i], start) >= 0 })
	return model[i:]
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

// shape records which node kinds a tree holds and its longest compressed
// prefix, so the property test can prove it exercised what it claims.
type shape struct {
	kinds     [kNode256 + 1]int
	maxPrefix int
	stale     int // nodes whose prefix length disagrees with their level
	emptied   int // nodes with a prefix past the stored bytes and no leaf below
}

// walk records n's subtree and returns the number of leaves in it.
func (s *shape) walk(n *header, depth int) (leaves int) {
	if n == nil {
		return 0
	}
	s.kinds[n.kind]++
	if n.kind == kLeaf {
		return 1
	}
	plen, _ := n.prefixSnapshot()
	if plen > s.maxPrefix {
		s.maxPrefix = plen
	}
	if plen != int(n.level)-depth {
		s.stale++
	}
	var buf [256]entry
	for _, e := range n.entries(buf[:0:256]) {
		leaves += s.walk(e.c, int(n.level)+1)
	}
	if leaves == 0 && plen > maxStoredPrefix {
		s.emptied++
	}
	return leaves
}

// familyKeys returns prefix-free keys: body bytes are < 0xff and every key
// ends in 0xff, so "ab" and "ab\x00" are proper prefixes of keys without
// any key being a prefix of another (which P-ART rejects). Each family is
// a shared run (often longer than the seven bytes a node stores) followed
// by a fan-out byte drawn from a set sized to land on one node kind.
func familyKeys(rng *rand.Rand) [][]byte {
	seen := map[string]bool{}
	var out [][]byte
	for _, fan := range []int{3, 12, 40, 200} {
		run := make([]byte, rng.Intn(14))
		for i := range run {
			run[i] = byte(rng.Intn(255))
		}
		// A distinct first byte per family keeps the root a small node
		// and every family's run a compressed prefix below it.
		run = append([]byte{byte(fan)}, run...)
		for _, b := range rng.Perm(255)[:fan] {
			for n := 1 + rng.Intn(3); n > 0; n-- {
				k := append(append([]byte(nil), run...), byte(b))
				for j := rng.Intn(3); j > 0; j-- {
					k = append(k, byte(rng.Intn(4))) // low bytes: 0x00 extensions
				}
				k = append(k, 0xff)
				if !seen[string(k)] {
					seen[string(k)] = true
					out = append(out, k)
				}
			}
		}
	}
	return out
}

// seekStarts derives the start keys worth probing from a sorted key set:
// empty, past the maximum, and for a sample of keys the key itself, a
// proper prefix of it, its immediate successor, and a neighbour that
// diverges from it at every byte position in either direction (so a start
// can leave a compressed prefix above or below, before or after the seven
// stored bytes).
func seekStarts(rng *rand.Rand, model [][]byte) [][]byte {
	starts := [][]byte{nil, {}, {0xff, 0xff, 0xff}, {0x00}}
	for _, i := range rng.Perm(len(model))[:min(len(model), 12)] {
		k := model[i]
		starts = append(starts, k, k[:len(k)-1], k[:len(k)/2], append(append([]byte(nil), k...), 0))
		for p := 0; p < len(k); p++ {
			for _, d := range []int{-1, 1} {
				if v := int(k[p]) + d; v >= 0 && v <= 0xff {
					s := append([]byte(nil), k...)
					s[p] = byte(v)
					starts = append(starts, s, s[:p+1])
				}
			}
		}
	}
	return starts
}

// TestIteratorMatchesModelAndScan: over random key sets that hold every
// node kind and compressed prefixes longer than the stored seven bytes,
// with deletes leaving dead slots and emptied subtrees behind, Seek/Next
// equals the sorted model and equals Scan from every kind of start.
func TestIteratorMatchesModelAndScan(t *testing.T) {
	var total shape
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		idx := newIdx()
		all := familyKeys(rng)
		var model [][]byte
		for i, k := range all {
			mustInsert(t, idx, k, uint64(i))
		}
		for _, k := range all {
			if rng.Intn(5) == 0 {
				if ok, err := idx.Delete(k); err != nil || !ok {
					t.Fatalf("delete %q: %v %v", k, ok, err)
				}
				continue
			}
			model = append(model, k)
		}
		sort.Slice(model, func(i, j int) bool { return bytes.Compare(model[i], model[j]) < 0 })
		total.walk(idx.root.Load(), 0)

		it := idx.NewIterator() // one iterator, re-sought: Seek must reset it
		for _, start := range seekStarts(rng, model) {
			label := fmt.Sprintf("seed %d start %q", seed, start)
			want := tail(model, start)
			sameKeys(t, label+" iterator", want, drain(it, start))
			sameKeys(t, label+" scan", want, scanKeys(idx, start, 0))
			if n := min(len(want), 5); n > 0 {
				sameKeys(t, label+" scan(5)", want[:n], scanKeys(idx, start, 5))
			}
		}
		// Values come from the leaf at the time of Next.
		it.Seek(nil)
		for i := 0; ; i++ {
			k, v, ok := it.Next()
			if !ok {
				break
			}
			if want, _ := idx.Lookup(k); v != want {
				t.Fatalf("seed %d: entry %d value %d, Lookup says %d", seed, i, v, want)
			}
		}
	}
	for k := kLeaf; k <= kNode256; k++ {
		if total.kinds[k] == 0 {
			t.Errorf("key sets never built a node of kind %d", k)
		}
	}
	if total.maxPrefix <= maxStoredPrefix {
		t.Errorf("longest compressed prefix %d: hybrid compression not exercised", total.maxPrefix)
	}
}

// TestIteratorStartInsideLongPrefix pins the case the recursive walk got
// wrong: a start that matches the seven stored prefix bytes and diverges
// beyond them must not be pruned by the branch byte.
func TestIteratorStartInsideLongPrefix(t *testing.T) {
	idx := newIdx()
	model := [][]byte{[]byte("0123456789Xa"), []byte("0123456789Xb")}
	for i, k := range model {
		mustInsert(t, idx, k, uint64(i))
	}
	for _, tc := range []struct {
		start string
		want  [][]byte
	}{
		{"0123456780Zz", model}, // below the prefix at byte 9: all keys follow
		{"0123456799Aa", nil},   // above it: none do
		{"0123456789Xb", model[1:]},
		{"0123456789X", model},
		{"0123456789Y", nil},
	} {
		sameKeys(t, tc.start+" iterator", tc.want, drain(idx.NewIterator(), []byte(tc.start)))
		sameKeys(t, tc.start+" scan", tc.want, scanKeys(idx, []byte(tc.start), 0))
	}
}

// TestIteratorDeepStack: a path deeper than the frames held inline spills
// into the overflow slice and comes back out, across re-Seeks.
func TestIteratorDeepStack(t *testing.T) {
	idx := newIdx()
	var model [][]byte
	for i := 0; i < 3*inlineDepth; i++ { // "b", "ab", "aab", ...: one level each
		k := append(bytes.Repeat([]byte("a"), i), 'b')
		mustInsert(t, idx, k, uint64(i))
		model = append(model, k)
	}
	sort.Slice(model, func(i, j int) bool { return bytes.Compare(model[i], model[j]) < 0 })
	it := idx.NewIterator()
	for _, start := range [][]byte{nil, model[0], model[len(model)/2], []byte("aaab"), []byte("c")} {
		sameKeys(t, fmt.Sprintf("start %q iterator", start), tail(model, start), drain(it, start))
		sameKeys(t, fmt.Sprintf("start %q scan", start), tail(model, start), scanKeys(idx, start, 0))
	}
}

// TestIteratorStalePrefixNoRecovery: crash exactly between the two steps
// of a path-compression split and run no recovery at all. The new parent
// is installed, the old node's prefix was never shortened, its locks are
// still held — and iteration, like Scan and Lookup, must be undisturbed:
// every committed key (plus the key whose insert crashed after becoming
// reachable) comes back, in order, from starts inside and outside the
// stale node.
func TestIteratorStalePrefixNoRecovery(t *testing.T) {
	heap := pmem.NewFast()
	idx := New(heap)
	const base = "stale-prefix-shared-run-"
	var model [][]byte
	for i := 0; i < 60; i++ {
		k := []byte(fmt.Sprintf("%s%04d", base, i*7))
		mustInsert(t, idx, k, uint64(i))
		model = append(model, k)
	}
	// Diverge inside the root's compressed prefix: the whole tree ends up
	// below the node left stale.
	crashed := []byte("stale-prefix-other")
	heap.SetInjector(crash.NewAtSite("art.split.installed", 1))
	if err := idx.Insert(crashed, 1); !crash.IsCrash(err) {
		t.Fatalf("insert did not crash at the split: %v", err)
	}
	heap.SetInjector(nil)
	var s shape
	s.walk(idx.root.Load(), 0)
	if s.stale == 0 {
		t.Fatal("no stale prefix left behind: the test is not testing the crash state")
	}
	model = append(model, crashed)
	sort.Slice(model, func(i, j int) bool { return bytes.Compare(model[i], model[j]) < 0 })

	it := idx.NewIterator()
	starts := [][]byte{nil, []byte(base), []byte(base + "0005"), []byte(base + "02"),
		[]byte("stale-prefix-"), []byte("stale-prefix-p"), []byte("stale-prefix-z"), []byte("zzz")}
	starts = append(starts, model...)
	for _, start := range starts {
		want := tail(model, start)
		sameKeys(t, fmt.Sprintf("start %q iterator", start), want, drain(it, start))
		sameKeys(t, fmt.Sprintf("start %q scan", start), want, scanKeys(idx, start, 0))
	}
}

// iterateStable runs iterations from roaming starts for as long as more
// says, while writers churn other keys, and holds each to the iterator
// contract: every stable key at or after the start is returned exactly
// once, in ascending order (and, when check is set, passes it).
func iterateStable(t *testing.T, idx *Index, stable [][]byte, more func(round int) bool, check func(round int, k []byte, v uint64)) {
	it := idx.NewIterator()
	for round := 0; more(round) && !t.Failed(); round++ {
		start := stable[(round*67)%len(stable)]
		if round%5 == 0 {
			start = nil
		}
		want := tail(stable, start)
		var prev []byte
		it.Seek(start)
		for {
			k, v, ok := it.Next()
			if !ok {
				break
			}
			if prev != nil && bytes.Compare(prev, k) >= 0 {
				t.Errorf("round %d: %q after %q: out of order or repeated", round, k, prev)
				break
			}
			if check != nil {
				check(round, k, v)
			}
			prev = k
			if len(want) > 0 && bytes.Equal(k, want[0]) {
				want = want[1:]
			}
		}
		if len(want) > 0 {
			t.Errorf("round %d: stable key %q (and %d more) never returned", round, want[0], len(want)-1)
		}
	}
}

// TestIteratorConcurrentInserters: every key that is in the tree for an
// iterator's whole lifetime is returned exactly once and in order, while
// writers split leaves, grow nodes through every kind and split
// compressed prefixes around the iterator's position. Run with -race.
func TestIteratorConcurrentInserters(t *testing.T) {
	idx := newIdx()
	// Stable keys: present before the first iterator opens, never deleted.
	var stable [][]byte
	for i := 0; i < 2000; i++ {
		k := []byte(fmt.Sprintf("user%08d-stable", i*3))
		mustInsert(t, idx, k, uint64(i))
		stable = append(stable, k)
	}
	const writers, minWrites = 3, 15_000
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
				// Churn keys between and beside the stable ones: new
				// leaves next to old ones, fan-out under shared digits,
				// and runs that diverge inside compressed prefixes.
				var k []byte
				switch i % 3 {
				case 0:
					k = []byte(fmt.Sprintf("user%08d-w%d", rng.Intn(6000), w))
				case 1:
					k = []byte(fmt.Sprintf("user%08d-stable-%c%d", rng.Intn(2000)*3, 'a'+rune(rng.Intn(26)), w))
				default:
					k = []byte(fmt.Sprintf("us%c%d-%d", 'a'+rune(rng.Intn(20)), w, rng.Intn(500)))
				}
				if err := idx.Insert(k, uint64(i)); err != nil && err != ErrPrefixKey {
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
	// Keep iterating until the writers have demonstrably been at work.
	iterateStable(t, idx, stable, func(round int) bool { return round < 30 || writes.Load() < minWrites }, nil)
	close(stop)
	wg.Wait()
}
