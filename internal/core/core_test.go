package core

import (
	"strings"
	"testing"

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

// rangedHash is what every registry hash table provides.
type rangedHash interface {
	HashIndex
	HashRanger
}

// The nine indexes implement the core interfaces themselves, and the
// registry hands out the concrete pointers. Each ordered index's
// NewIterator returns the interface literal Iterator aliases.
var (
	_ OrderedIndex = (*art.Index)(nil)
	_ OrderedIndex = (*hot.Index)(nil)
	_ OrderedIndex = (*bwtree.Index)(nil)
	_ OrderedIndex = (*masstree.Index)(nil)
	_ OrderedIndex = (*fastfair.Tree)(nil)
	_ OrderedIndex = (*woart.Index)(nil)

	_ rangedHash = (*clht.Index)(nil)
	_ rangedHash = (*cceh.Index)(nil)
	_ rangedHash = (*levelhash.Index)(nil)
)

func TestNewOrderedAllNames(t *testing.T) {
	for _, name := range append(append([]string(nil), OrderedNames...), "WOART") {
		for _, kind := range []keys.Kind{keys.RandInt, keys.YCSBString} {
			heap := pmem.NewFast()
			idx, err := NewOrdered(name, heap, kind)
			if err != nil {
				t.Fatalf("NewOrdered(%q): %v", name, err)
			}
			gen := keys.NewGenerator(kind)
			for i := uint64(0); i < 500; i++ {
				if err := idx.Insert(gen.Key(i), i); err != nil {
					t.Fatalf("%s insert: %v", name, err)
				}
			}
			for i := uint64(0); i < 500; i++ {
				if v, ok := idx.Lookup(gen.Key(i)); !ok || v != i {
					t.Fatalf("%s lookup %d = %d,%v", name, i, v, ok)
				}
			}
			if idx.Len() != 500 {
				t.Fatalf("%s Len = %d", name, idx.Len())
			}
			if del, err := idx.Delete(gen.Key(7)); err != nil || !del {
				t.Fatalf("%s delete = %v,%v", name, del, err)
			}
			n := idx.Scan(nil, 10, func([]byte, uint64) bool { return true })
			if n != 10 {
				t.Fatalf("%s scan visited %d", name, n)
			}
			if err := idx.Recover(); err != nil {
				t.Fatalf("%s recover: %v", name, err)
			}
		}
	}
}

// TestIndexesCopyKeys pins PointIndex's rule that an index never
// retains the caller's key slice, for every ordered index recipesrv can
// name: all keys pass through one buffer that is scribbled on after
// each call, and everything is read back — by Lookup and, for the keys
// an index hands out, by Scan.
func TestIndexesCopyKeys(t *testing.T) {
	const n = 3000
	for _, name := range append(append([]string(nil), OrderedNames...), "WOART") {
		for _, kind := range []keys.Kind{keys.RandInt, keys.YCSBString} {
			heap := pmem.NewFast()
			idx, err := NewOrdered(name, heap, kind)
			if err != nil {
				t.Fatalf("NewOrdered(%q): %v", name, err)
			}
			gen := keys.NewGenerator(kind)
			var buf []byte
			// call runs one method on key id through the shared buffer.
			call := func(id uint64, f func(key []byte)) {
				buf = gen.AppendKey(buf[:0], id)
				f(buf)
				for i := range buf {
					buf[i] ^= 0xA5
				}
			}
			for id := uint64(0); id < n; id++ {
				call(id, func(key []byte) {
					if err := idx.Insert(key, id); err != nil {
						t.Fatalf("%s/%v insert %d: %v", name, kind, id, err)
					}
				})
				if id%3 == 0 {
					call(id, func(key []byte) {
						if err := idx.Update(key, id+n); err != nil {
							t.Fatalf("%s/%v update %d: %v", name, kind, id, err)
						}
					})
				}
				if id%7 == 0 {
					call(id, func(key []byte) {
						if ok, err := idx.Delete(key); err != nil || !ok {
							t.Fatalf("%s/%v delete %d = %v, %v", name, kind, id, ok, err)
						}
					})
				}
			}
			want := map[string]uint64{}
			for id := uint64(0); id < n; id++ {
				v, live := id, id%7 != 0
				if id%3 == 0 {
					v += n
				}
				if live {
					want[string(gen.Key(id))] = v
				}
				call(id, func(key []byte) {
					if got, ok := idx.Lookup(key); ok != live || (live && got != v) {
						t.Fatalf("%s/%v lookup %d = %d, %v; want %d, %v", name, kind, id, got, ok, v, live)
					}
				})
			}
			seen := idx.Scan(nil, 0, func(key []byte, v uint64) bool {
				if w, ok := want[string(key)]; !ok || w != v {
					t.Fatalf("%s/%v scan returned %q = %d; want %d, %v", name, kind, key, v, w, ok)
				}
				return true
			})
			if seen != len(want) || idx.Len() != len(want) {
				t.Fatalf("%s/%v: scan saw %d keys, Len %d, want %d", name, kind, seen, idx.Len(), len(want))
			}
			heap.Release()
		}
	}
}

// TestUpdateAllIndexes: every index (ordered and hash) overwrites in
// place through Update — no growth, new value visible — the capability
// that unlocks workloads D and F.
func TestUpdateAllIndexes(t *testing.T) {
	for _, name := range append(append([]string(nil), OrderedNames...), "WOART") {
		heap := pmem.NewFast()
		idx, err := NewOrdered(name, heap, keys.RandInt)
		if err != nil {
			t.Fatalf("NewOrdered(%q): %v", name, err)
		}
		gen := keys.NewGenerator(keys.RandInt)
		for i := uint64(0); i < 200; i++ {
			if err := idx.Insert(gen.Key(i), i); err != nil {
				t.Fatalf("%s insert: %v", name, err)
			}
		}
		for i := uint64(0); i < 200; i++ {
			if err := idx.Update(gen.Key(i), i+1000); err != nil {
				t.Fatalf("%s update: %v", name, err)
			}
		}
		if idx.Len() != 200 {
			t.Fatalf("%s: updates grew Len to %d, want 200", name, idx.Len())
		}
		for i := uint64(0); i < 200; i++ {
			if v, ok := idx.Lookup(gen.Key(i)); !ok || v != i+1000 {
				t.Fatalf("%s lookup after update %d = %d,%v", name, i, v, ok)
			}
		}
		heap.Release()
	}
	for _, name := range HashNames {
		heap := pmem.NewFast()
		idx, err := NewHash(name, heap)
		if err != nil {
			t.Fatalf("NewHash(%q): %v", name, err)
		}
		for i := uint64(1); i <= 200; i++ {
			if err := idx.Insert(i, i); err != nil {
				t.Fatalf("%s insert: %v", name, err)
			}
		}
		for i := uint64(1); i <= 200; i++ {
			if err := idx.Update(i, i+1000); err != nil {
				t.Fatalf("%s update: %v", name, err)
			}
		}
		if idx.Len() != 200 {
			t.Fatalf("%s: updates grew Len to %d, want 200", name, idx.Len())
		}
		for i := uint64(1); i <= 200; i++ {
			if v, ok := idx.Lookup(i); !ok || v != i+1000 {
				t.Fatalf("%s lookup after update %d = %d,%v", name, i, v, ok)
			}
		}
		heap.Release()
	}
}

func TestNewHashAllNames(t *testing.T) {
	for _, name := range HashNames {
		heap := pmem.NewFast()
		idx, err := NewHash(name, heap)
		if err != nil {
			t.Fatalf("NewHash(%q): %v", name, err)
		}
		for i := uint64(1); i <= 500; i++ {
			if err := idx.Insert(i, i*2); err != nil {
				t.Fatalf("%s insert: %v", name, err)
			}
		}
		for i := uint64(1); i <= 500; i++ {
			if v, ok := idx.Lookup(i); !ok || v != i*2 {
				t.Fatalf("%s lookup %d = %d,%v", name, i, v, ok)
			}
		}
		if del, err := idx.Delete(3); err != nil || !del {
			t.Fatalf("%s delete = %v,%v", name, del, err)
		}
		if err := idx.Recover(); err != nil {
			t.Fatalf("%s recover: %v", name, err)
		}
	}
}

func TestUnknownNames(t *testing.T) {
	if _, err := NewOrdered("nope", pmem.NewFast(), keys.RandInt); err == nil {
		t.Fatal("unknown ordered name accepted")
	}
	if _, err := NewHash("nope", pmem.NewFast()); err == nil {
		t.Fatal("unknown hash name accepted")
	}
}

func TestConditionString(t *testing.T) {
	if Cond1.String() != "#1" || Cond2.String() != "#2" || Cond3.String() != "#3" || NotApplicable.String() != "-" {
		t.Fatal("Condition.String mismatch")
	}
}

func TestTables(t *testing.T) {
	t1 := Table1()
	for _, want := range []string{"CLHT", "HOT", "BwTree", "ART", "Masstree", "30 (1%)", "200 (9%)"} {
		if !strings.Contains(t1, want) {
			t.Fatalf("Table1 missing %q", want)
		}
	}
	t2 := Table2()
	for _, want := range []string{"Non-blocking", "Blocking", "#1", "#2", "#3"} {
		if !strings.Contains(t2, want) {
			t.Fatalf("Table2 missing %q", want)
		}
	}
}

func TestMetadataConsistency(t *testing.T) {
	if len(Converted) != 5 {
		t.Fatalf("expected 5 converted indexes, got %d", len(Converted))
	}
	for _, i := range Converted {
		if !i.Recipe {
			t.Fatalf("%s not marked as RECIPE conversion", i.Name)
		}
		if i.NonSMO != Cond1 {
			t.Fatalf("%s non-SMO condition should be #1 (Table 2)", i.Name)
		}
		if i.Condition != i.SMO {
			t.Fatalf("%s overall condition should match its SMO condition", i.Name)
		}
	}
	for _, n := range OrderedNames {
		heap := pmem.NewFast()
		if _, err := NewOrdered(n, heap, keys.RandInt); err != nil {
			t.Fatalf("OrderedNames entry %q not constructible: %v", n, err)
		}
	}
	for _, n := range HashNames {
		heap := pmem.NewFast()
		if _, err := NewHash(n, heap); err != nil {
			t.Fatalf("HashNames entry %q not constructible: %v", n, err)
		}
	}
}
