// Package core defines the common index interfaces, the registry of all
// nine index implementations (the five RECIPE conversions of §6 and the
// four hand-crafted PM baselines of §3/§7), and the metadata behind the
// paper's Tables 1 and 2.
package core

import (
	"fmt"

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

// PointIndex is the point-operation interface every index implements,
// ordered or not, over its own key type K: the paper's
// insert/lookup/delete interface of §2.1 plus crash recovery. It is what
// the code around an index — group commit, the sharded front-end, the
// async pipeline — is written against, once, for both key kinds.
//
// An index never retains the caller's key slice: what it keeps of a key
// it copies before the call returns, so a caller may reuse or overwrite
// the key's bytes the moment a method is back (the server passes keys
// that alias its connection's read buffer).
type PointIndex[K any] interface {
	// Insert stores value under key, overwriting an existing binding.
	Insert(key K, value uint64) error
	// Update overwrites the value stored under key in place. Every
	// index here reaches it through its upsert-capable Insert path
	// (YCSB blind-write semantics: updating an absent key inserts it),
	// but the separate method keeps the operation distinguishable for
	// workloads D/F accounting and lets future indexes route updates
	// past their insert path (e.g. skip SMO machinery).
	Update(key K, value uint64) error
	// Lookup returns the value stored under key.
	Lookup(key K) (uint64, bool)
	// Delete removes key, reporting whether it was present.
	Delete(key K) (bool, error)
	// Recover models restart after a crash: lock re-initialisation, which
	// is a new lock generation and costs the same at any size (pmlock),
	// plus whatever explicit recovery the index defines (RECIPE indexes:
	// none; CCEH's Faithful mode checks its directory depth).
	Recover() error
	// Len returns the number of live keys.
	Len() int
}

// OrderedIndex is the interface every ordered (point + range query) index
// implements: PointIndex over byte-string keys plus the range_query of
// §2.1, in both of its shapes. Each index has one ordered walk, its
// Iterator; Scan is a loop over one.
type OrderedIndex interface {
	PointIndex[[]byte]
	// Scan visits keys >= start in ascending order until fn returns false
	// or count keys were visited (count <= 0 = unbounded); it returns the
	// number of keys visited.
	Scan(start []byte, count int, fn func(key []byte, value uint64) bool) int
	// NewIterator returns an unpositioned Iterator; call Seek before Next.
	NewIterator() Iterator
}

// HashIndex is the unordered (point query only) interface; the paper
// evaluates unordered indexes with 8-byte integer keys (§7). It is
// PointIndex[uint64] itself, not a copy of it, so a value of one is a
// value of the other with no conversion.
type HashIndex = PointIndex[uint64]

// HashRanger is the optional enumeration capability of an unordered
// index: Range calls fn for every live key/value pair until fn returns
// false, in unspecified order. All three registry hash indexes
// implement it; the sharded front-end's migration path type-asserts it
// to stream a donor shard (hash tables have no ordered Scan to cursor
// over). Implementations read pairs with their lookup snapshot, so
// Range is safe against concurrent writers but only yields a consistent
// cut when writers are quiesced.
type HashRanger interface {
	Range(fn func(key, value uint64) bool)
}

// Iterator is a resumable in-order iterator over an ordered index: Seek
// positions it at the smallest key >= start (nil or empty = the minimum
// key; start is not retained), and may be called again; each Next returns
// the key at the position and moves past it, ok = false at the end.
//
// There is no snapshot: a key present for the whole time between Seek and
// the Next that passes it is returned exactly once, in ascending order;
// concurrent inserts and deletes may or may not be seen. A returned key is
// valid at least until the next call and must not be modified. An
// Iterator is not safe for concurrent use. It aliases the interface
// literal, so index packages return it without importing this one.
type Iterator = interface {
	Seek(start []byte)
	Next() (key []byte, value uint64, ok bool)
}

// Condition is a RECIPE conversion condition (§4).
type Condition int

const (
	// NotApplicable marks hand-crafted baselines.
	NotApplicable Condition = iota
	// Cond1 — updates visible via a single atomic store (§4.3).
	Cond1
	// Cond2 — non-blocking writers fix inconsistencies (§4.4).
	Cond2
	// Cond3 — blocking writers detect but cannot fix; RECIPE adds the
	// helper (§4.5).
	Cond3
)

func (c Condition) String() string {
	switch c {
	case Cond1:
		return "#1"
	case Cond2:
		return "#2"
	case Cond3:
		return "#3"
	default:
		return "-"
	}
}

// Info describes one index for Tables 1 and 2.
type Info struct {
	// Name is the evaluation name ("P-ART", "FAST & FAIR", ...).
	Name string
	// Source is the DRAM index converted, for RECIPE indexes.
	Source string
	// Structure is the Table 1 "Data Structure" column.
	Structure string
	// Recipe is true for the five converted indexes.
	Recipe bool
	// Ordered is true for indexes supporting range queries.
	Ordered bool
	// Condition is the overall Table 1 condition; NonSMO/SMO split it as
	// in Table 2.
	Condition, NonSMO, SMO Condition
	// Reader/Writer synchronisation, as in Table 2.
	Reader, Writer string
	// PaperOrigLOC/PaperCoreLOC/PaperModLOC reproduce Table 1's LOC
	// columns as reported by the paper (the Go port's own numbers come
	// from cmd/loccount).
	PaperOrigLOC, PaperCoreLOC, PaperModLOC string
}

// Converted lists the five RECIPE-converted indexes (Tables 1 and 2).
var Converted = []Info{
	{Name: "P-CLHT", Source: "CLHT", Structure: "Hash Table", Recipe: true, Ordered: false,
		Condition: Cond1, NonSMO: Cond1, SMO: Cond1, Reader: "Non-blocking", Writer: "Blocking",
		PaperOrigLOC: "12.6K", PaperCoreLOC: "2.8K", PaperModLOC: "30 (1%)"},
	{Name: "P-HOT", Source: "HOT", Structure: "Trie", Recipe: true, Ordered: true,
		Condition: Cond1, NonSMO: Cond1, SMO: Cond1, Reader: "Non-blocking", Writer: "Blocking",
		PaperOrigLOC: "36K", PaperCoreLOC: "2K", PaperModLOC: "38 (2%)"},
	{Name: "P-BwTree", Source: "BwTree", Structure: "B+ Tree", Recipe: true, Ordered: true,
		Condition: Cond2, NonSMO: Cond1, SMO: Cond2, Reader: "Non-blocking", Writer: "Non-blocking",
		PaperOrigLOC: "13K", PaperCoreLOC: "5.2K", PaperModLOC: "85 (1.6%)"},
	{Name: "P-ART", Source: "ART", Structure: "Radix Tree", Recipe: true, Ordered: true,
		Condition: Cond3, NonSMO: Cond1, SMO: Cond3, Reader: "Non-blocking", Writer: "Blocking",
		PaperOrigLOC: "4.5K", PaperCoreLOC: "1.5K", PaperModLOC: "52 (3.4%)"},
	{Name: "P-Masstree", Source: "Masstree", Structure: "B+ Tree & Trie", Recipe: true, Ordered: true,
		Condition: Cond3, NonSMO: Cond1, SMO: Cond3, Reader: "Non-blocking", Writer: "Blocking",
		PaperOrigLOC: "25K", PaperCoreLOC: "2.2K", PaperModLOC: "200 (9%)"},
}

// OrderedNames lists the ordered indexes in the paper's Fig 4 order.
var OrderedNames = []string{"FAST & FAIR", "P-BwTree", "P-Masstree", "P-ART", "P-HOT"}

// HashNames lists the unordered indexes in the paper's Fig 5 order.
var HashNames = []string{"CCEH", "Level Hashing", "P-CLHT"}

// NewOrdered constructs the named ordered index on heap. kind selects the
// key encoding, which only FAST & FAIR needs to know up front (it stores
// integer keys inline and string keys out of line, as the paper's
// extension does).
func NewOrdered(name string, heap *pmem.Heap, kind keys.Kind) (OrderedIndex, error) {
	switch name {
	case "P-ART":
		return art.New(heap), nil
	case "P-HOT":
		return hot.New(heap), nil
	case "P-BwTree":
		return bwtree.New(heap), nil
	case "P-Masstree":
		return masstree.New(heap), nil
	case "FAST & FAIR":
		return fastfair.New(heap, kind), nil
	case "WOART":
		return woart.New(heap), nil
	default:
		return nil, fmt.Errorf("core: unknown ordered index %q", name)
	}
}

// NewHash constructs the named unordered index on heap. Every registry
// hash table is also a HashRanger.
func NewHash(name string, heap *pmem.Heap) (HashIndex, error) {
	switch name {
	case "P-CLHT":
		return clht.New(heap), nil
	case "CCEH":
		return cceh.New(heap), nil
	case "Level Hashing":
		return levelhash.New(heap), nil
	default:
		return nil, fmt.Errorf("core: unknown hash index %q", name)
	}
}

// Table1 renders the paper's Table 1 (categorising the converted DRAM
// indexes with the paper's reported LOC figures).
func Table1() string {
	s := "DRAM Index | Data Structure  | Condition | Orig   | Core  | Modified\n"
	s += "-----------+-----------------+-----------+--------+-------+----------\n"
	for _, i := range Converted {
		s += fmt.Sprintf("%-10s | %-15s | %-9s | %-6s | %-5s | %s\n",
			i.Source, i.Structure, i.Condition, i.PaperOrigLOC, i.PaperCoreLOC, i.PaperModLOC)
	}
	return s
}

// Table2 renders the paper's Table 2 (conversion actions and
// synchronisation).
func Table2() string {
	s := "DRAM Index | Reader        | Writer        | Non-SMO | SMO\n"
	s += "-----------+---------------+---------------+---------+-----\n"
	for _, i := range Converted {
		s += fmt.Sprintf("%-10s | %-13s | %-13s | %-7s | %s\n",
			i.Source, i.Reader, i.Writer, i.NonSMO, i.SMO)
	}
	return s
}
