package art

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/keys"
	"repro/internal/pmem"
)

// TestLeafIsOneCacheLine pins the layout rule: a leaf holding a key of
// either keys.Kind is one pointer-free object of the 64-byte size class,
// and the two fields it shares with header sit where header keeps them,
// inside the leaf, so a child pointer can address either as a *header.
func TestLeafIsOneCacheLine(t *testing.T) {
	if inlineKey < keys.YCSBString.Size() || inlineKey < keys.RandInt.Size() {
		t.Fatalf("inlineKey = %d does not hold both key kinds inline", inlineKey)
	}
	if got := unsafe.Sizeof(leaf{}); got > 64 {
		t.Fatalf("unsafe.Sizeof(leaf{}) = %d, want <= 64", got)
	}
	var pointers func(path string, typ reflect.Type)
	pointers = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				pointers(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		case reflect.Array:
			pointers(path+"[]", typ.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.String, reflect.Map,
			reflect.Chan, reflect.Func, reflect.Interface:
			t.Errorf("%s is a %s: the collector would have to scan every leaf", path, typ.Kind())
		}
	}
	pointers("leaf", reflect.TypeOf(leaf{}))

	var l leaf
	var h header
	if unsafe.Offsetof(l.kind) != unsafe.Offsetof(h.kind) || unsafe.Offsetof(l.pm) != unsafe.Offsetof(h.pm) {
		t.Fatalf("leaf keeps kind, pm at %d, %d; header at %d, %d",
			unsafe.Offsetof(l.kind), unsafe.Offsetof(l.pm), unsafe.Offsetof(h.kind), unsafe.Offsetof(h.pm))
	}
	if unsafe.Sizeof(h) > unsafe.Sizeof(l) {
		t.Fatalf("header (%d bytes) reaches past a leaf (%d): the *header cast would fail checkptr",
			unsafe.Sizeof(h), unsafe.Sizeof(l))
	}

	idx := newIdx()
	at, past := bytes.Repeat([]byte("k"), inlineKey), bytes.Repeat([]byte("k"), inlineKey+1)
	if lf := idx.newLeaf(at, 1); lf.klen != inlineKey || !bytes.Equal(lf.key(), at) || &lf.key()[0] != &lf.inl[0] {
		t.Fatalf("a key of %d bytes is not held inline", inlineKey)
	}
	if lf := idx.newLeaf(past, 1); !bytes.Equal(lf.key(), past) || &lf.key()[0] == &past[0] {
		t.Fatalf("a key of %d bytes was not copied out of line", inlineKey+1)
	}
}

// TestInsertMallocs: a fresh 24-byte insert into a 50 000-key tree costs
// the leaf and, about every other time, the Node4 that splits an edge —
// not a separate key, nor a closure to unlock the parent with.
func TestInsertMallocs(t *testing.T) {
	const loaded, fresh = 50_000, 10_000
	idx := newIdx()
	gen := keys.NewGenerator(keys.YCSBString)
	all := make([]byte, 0, (loaded+fresh)*keys.YCSBString.Size())
	for id := uint64(0); id < loaded+fresh; id++ {
		all = gen.AppendKey(all, id)
	}
	key := func(id int) []byte { return all[id*keys.YCSBString.Size() : (id+1)*keys.YCSBString.Size()] }
	for id := 0; id < loaded; id++ {
		mustInsert(t, idx, key(id), uint64(id))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for id := loaded; id < loaded+fresh; id++ {
		if err := idx.Insert(key(id), uint64(id)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	per := float64(after.Mallocs-before.Mallocs) / fresh
	t.Logf("%.2f mallocs per fresh insert", per)
	if per > 1.6 {
		t.Fatalf("%.2f mallocs per fresh insert, want <= 1.6", per)
	}
}

// mixedKeys returns prefix-free keys of every length from 1 to 200 — body
// bytes < 0xff closed by one 0xff, as familyKeys builds them — so leaves
// of every layout share one tree: inline, exactly at inlineKey, one past
// it, far past it. A key follows one of a few shared runs up to a multiple
// of 16 bytes and is random from there on, so branch points lie 16 bytes
// apart and the compressed prefixes between them outgrow the seven stored
// bytes. Deleting every key below such a prefix leaves a node no leaf
// describes, which the next insert through it replaces (replaceEmptied).
func mixedKeys(rng *rand.Rand) [][]byte {
	runs := make([][]byte, 3)
	for i := range runs {
		runs[i] = make([]byte, 199)
		for j := range runs[i] {
			runs[i][j] = byte(rng.Intn(255))
		}
	}
	seen := map[string]bool{}
	var out [][]byte
	for n := 1; n <= 200; n++ {
		for c := 0; c < 4; c++ {
			k := append([]byte(nil), runs[rng.Intn(len(runs))][:n-1]...)
			for j := 16 * rng.Intn(1+(n-1)/16); j < n-1; j++ {
				k[j] = byte(rng.Intn(255))
			}
			k = append(k, 0xff)
			if !seen[string(k)] {
				seen[string(k)] = true
				out = append(out, k)
			}
		}
	}
	return out
}

// TestKeysOfEveryLength holds Insert, Update, Delete, Lookup, Scan and
// Iterator against a sorted model over mixedKeys, with starts that are
// absent, equal, proper prefixes and past the maximum, then inserts the
// deleted keys again. Seeds 28 and 58 delete every key below a long
// prefix, so writes pass through emptied nodes, and the test requires
// that some seed does.
func TestKeysOfEveryLength(t *testing.T) {
	emptied := 0
	for _, seed := range []int64{19, 28, 58} {
		emptied += keysOfEveryLength(t, seed)
	}
	if emptied == 0 {
		t.Fatal("no seed emptied a long-prefix node")
	}
}

// keysOfEveryLength is TestKeysOfEveryLength for one seed; it returns how
// many long-prefix nodes its deletes emptied.
func keysOfEveryLength(t *testing.T, seed int64) (emptied int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	idx := newIdx()
	all := mixedKeys(rng)
	byLen := map[int]bool{}
	for i, k := range all {
		mustInsert(t, idx, k, uint64(i))
		byLen[len(k)] = true
	}
	for _, n := range []int{1, inlineKey - 1, inlineKey, inlineKey + 1, 200} {
		if !byLen[n] {
			t.Fatalf("no key of length %d", n)
		}
	}
	if idx.Len() != len(all) {
		t.Fatalf("Len = %d after %d inserts", idx.Len(), len(all))
	}
	want := map[string]uint64{}
	var model [][]byte
	for i, k := range all {
		switch i % 5 {
		case 0:
			if ok, err := idx.Delete(k); err != nil || !ok {
				t.Fatalf("delete of a %d-byte key: %v %v", len(k), ok, err)
			}
			continue
		case 1, 2:
			mustInsert(t, idx, k, uint64(i)+1_000_000)
			want[string(k)] = uint64(i) + 1_000_000
		default:
			want[string(k)] = uint64(i)
		}
		model = append(model, k)
	}
	sort.Slice(model, func(i, j int) bool { return bytes.Compare(model[i], model[j]) < 0 })
	for _, k := range all {
		v, ok := idx.Lookup(k)
		if w, live := want[string(k)]; ok != live || v != w {
			t.Fatalf("Lookup of a %d-byte key = %d,%v, want %d,%v", len(k), v, ok, w, live)
		}
		if ok, _ := idx.Delete(append(k[:len(k)-1:len(k)-1], 0xfe, 0xff)); ok {
			t.Fatalf("deleted an absent neighbour of a %d-byte key", len(k))
		}
	}
	var s shape
	s.walk(idx.root.Load(), 0)
	if s.maxPrefix <= maxStoredPrefix {
		t.Fatalf("longest compressed prefix %d: hybrid compression not exercised", s.maxPrefix)
	}
	emptied = s.emptied

	// Starts around one key of each interesting length, and a random few.
	var probe [][]byte
	for _, n := range []int{1, 2, inlineKey - 1, inlineKey, inlineKey + 1, 2 * inlineKey, 200} {
		for _, k := range model {
			if len(k) == n {
				probe = append(probe, k)
				break
			}
		}
	}
	it := idx.NewIterator()
	for _, start := range append(seekStarts(rng, probe), seekStarts(rng, model)[:400]...) {
		label := fmt.Sprintf("start %x", start)
		tl := tail(model, start)
		sameKeys(t, label+" iterator", tl, drain(it, start))
		sameKeys(t, label+" scan(7)", tl[:min(len(tl), 7)], scanKeys(idx, start, 7))
	}
	it.Seek(nil)
	for {
		k, v, ok := it.Next()
		if !ok {
			break
		}
		if v != want[string(k)] {
			t.Fatalf("iterator value of a %d-byte key = %d, want %d", len(k), v, want[string(k)])
		}
	}

	// The deleted keys go back in, through the nodes their deletes emptied.
	for i, k := range all {
		if i%5 == 0 {
			mustInsert(t, idx, k, uint64(i))
			want[string(k)] = uint64(i)
			model = append(model, k)
		}
	}
	sort.Slice(model, func(i, j int) bool { return bytes.Compare(model[i], model[j]) < 0 })
	for _, k := range all {
		if v, ok := idx.Lookup(k); !ok || v != want[string(k)] {
			t.Fatalf("seed %d: Lookup of a %d-byte key after refilling = %d,%v, want %d", seed, len(k), v, ok, want[string(k)])
		}
	}
	sameKeys(t, "refilled iterator", model, drain(it, nil))
	var after shape
	if leaves := after.walk(idx.root.Load(), 0); leaves != len(all) || after.emptied != 0 {
		t.Fatalf("seed %d: refilled tree holds %d leaves and %d emptied nodes, want %d and 0", seed, leaves, after.emptied, len(all))
	}
	return emptied
}

// TestIteratorEveryLengthConcurrent is PR 13's exactly-once assertion over
// mixedKeys: while two writers insert and delete the churn half — leaves
// of every layout appearing and vanishing beside, above and below the
// stable ones — an iterator returns each stable key once, in order, with
// its bytes intact. Run with -race.
func TestIteratorEveryLengthConcurrent(t *testing.T) {
	idx := newIdx()
	all := mixedKeys(rand.New(rand.NewSource(20)))
	var stable, churn [][]byte
	for i, k := range all {
		if i%2 == 0 {
			mustInsert(t, idx, k, uint64(len(k)))
			stable = append(stable, k)
		} else {
			churn = append(churn, k)
		}
	}
	sort.Slice(stable, func(i, j int) bool { return bytes.Compare(stable[i], stable[j]) < 0 })

	const writers, minWrites = 2, 20_000
	var writes atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := churn[rng.Intn(len(churn)/writers)*writers+w] // each writer its own keys
				if err := idx.Insert(k, uint64(len(k))); err != nil {
					t.Errorf("insert of a %d-byte key: %v", len(k), err)
					return
				}
				if rng.Intn(3) > 0 {
					if ok, err := idx.Delete(k); err != nil || !ok {
						t.Errorf("delete of a %d-byte key: %v %v", len(k), ok, err)
						return
					}
				}
				writes.Add(1)
			}
		}(w)
	}
	iterateStable(t, idx, stable, func(round int) bool { return round < 20 || writes.Load() < minWrites },
		func(round int, k []byte, v uint64) {
			if v != uint64(len(k)) {
				t.Errorf("round %d: a %d-byte key carries value %d", round, len(k), v)
			}
		})
	close(stop)
	wg.Wait()
}

// TestUnpersistedLeafRevertsWhole: under the lossy model a leaf published
// without its write-back loses everything a power cycle can take from it
// — the inline key bytes with the header and the value, because the shadow
// image is the whole object — while a leaf persisted the way the write
// path does it keeps all three. Both leaf layouts.
func TestUnpersistedLeafRevertsWhole(t *testing.T) {
	for _, n := range []int{inlineKey, inlineKey + 16} {
		heap := pmem.New(pmem.Options{Shadow: true})
		idx := New(heap)
		kept, lost := bytes.Repeat([]byte("p"), n), bytes.Repeat([]byte("u"), n)
		mustInsert(t, idx, kept, 7)
		keptLeaf := idx.root.Load().leaf()

		// Publish a second leaf the way insertAtLeaf would, minus its
		// persistAll: only the slot that points at it is written back.
		lf := idx.newLeaf(lost, 9)
		idx.root.Store(lf.hdr())
		heap.Dirty(idx.rootPM, 0, 8)
		heap.PersistFence(idx.rootPM, 0, 8)

		rep := heap.PowerCycle(pmem.PolicyRevert, 1)
		if rep.ZeroFilled != 1 {
			t.Fatalf("%d-byte key: %s, want exactly the unpersisted leaf zero-filled", n, rep)
		}
		if lf.klen != 0 || len(lf.key()) != 0 || lf.value.Load() != 0 || lf.inl != [inlineKey]byte{} {
			t.Fatalf("%d-byte key: unpersisted leaf survived the cycle: klen %d key %q value %d inl %q",
				n, lf.klen, lf.key(), lf.value.Load(), lf.inl[:])
		}
		if !bytes.Equal(keptLeaf.key(), kept) || keptLeaf.value.Load() != 7 {
			t.Fatalf("%d-byte key: persisted leaf damaged: key %q value %d", n, keptLeaf.key(), keptLeaf.value.Load())
		}
	}
}
