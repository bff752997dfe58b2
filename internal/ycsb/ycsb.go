// Package ycsb generates the YCSB workload patterns used in RECIPE's
// evaluation (§7, Table 3), extended with the skewed request
// distributions and update-bearing workloads the paper left out.
//
// The paper generates workload files with the index micro-benchmark and
// statically splits them across threads. This package reproduces that:
// Generate materialises per-thread operation streams up front so the
// measured phase does no generation work. Key identifiers are dense and
// mapped to uniformly distributed key values by keys.Mix64; the run
// phase draws read-like targets from the loaded population through a
// pluggable Distribution (uniform — the paper's setup and the default —
// zipfian, or read-latest) and inserts fresh keys.
//
// The paper modelled updates as inserts of fresh keys because several
// of its compared indexes lacked in-place update (§7). Every index in
// this port upserts through Insert, so that restriction is gone:
// OpUpdate overwrites an existing key in place and OpRMW reads it,
// derives a new value and writes it back, which is what unlocks YCSB
// workloads D (95/5 read/insert, read-latest) and F (50/50
// read/read-modify-write, zipfian) — the two rows Table 3 skipped.
package ycsb

import (
	"fmt"
	"math/rand"
)

// OpKind is a YCSB operation type.
type OpKind uint8

const (
	// OpInsert inserts a fresh key.
	OpInsert OpKind = iota
	// OpRead point-reads an existing key.
	OpRead
	// OpScan range-scans from an existing key.
	OpScan
	// OpUpdate overwrites an existing key's value in place through the
	// index's upsert path.
	OpUpdate
	// OpRMW reads an existing key, derives a new value from the one
	// found, and writes it back (YCSB's read-modify-write).
	OpRMW

	// NumOpKinds is the number of operation kinds; per-kind count and
	// stats arrays are indexed by OpKind.
	NumOpKinds = 5
)

func (k OpKind) String() string {
	switch k {
	case OpInsert:
		return "insert"
	case OpRead:
		return "read"
	case OpScan:
		return "scan"
	case OpUpdate:
		return "update"
	case OpRMW:
		return "rmw"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Op is one pre-generated operation. ID is a dense key identifier: for
// inserts it names a fresh key, for reads/scans/updates/RMWs an
// already-inserted key (loaded, or inserted earlier by the same
// thread's stream — see Distribution).
type Op struct {
	Kind    OpKind
	ID      uint64
	ScanLen int
}

// Workload is one row of Table 3, extended with the update-bearing
// mixes (UpdatePct, RMWPct) and the request distribution the row runs
// under by default.
type Workload struct {
	Name string
	// Mix in percent. InsertPct + ReadPct + ScanPct + UpdatePct +
	// RMWPct == 100.
	InsertPct, ReadPct, ScanPct, UpdatePct, RMWPct int
	// Description and AppPattern reproduce Table 3's text (and extend
	// it for D and F).
	Description string
	AppPattern  string
	// Dist is the request distribution read-like operations draw
	// targets from. Nil selects Uniform — the paper's setup, and the
	// bit-compatible default for the Table 3 rows.
	Dist Distribution
}

// The workload patterns: the five the paper evaluates (Table 3) plus
// YCSB D and F, which the paper excluded because several compared
// indexes lacked in-place update — ours don't (every index upserts
// through Insert), so both run here, under their YCSB-default skewed
// distributions.
var (
	LoadA = Workload{Name: "Load A", InsertPct: 100, Description: "100% writes", AppPattern: "Bulk database insert"}
	A     = Workload{Name: "A", InsertPct: 50, ReadPct: 50, Description: "Read/Write, 50/50", AppPattern: "A session store"}
	B     = Workload{Name: "B", InsertPct: 5, ReadPct: 95, Description: "Read/Write, 95/5", AppPattern: "Photo tagging"}
	C     = Workload{Name: "C", ReadPct: 100, Description: "100% reads", AppPattern: "User profile cache"}
	D     = Workload{Name: "D", InsertPct: 5, ReadPct: 95, Description: "Read latest, 95/5", AppPattern: "User status updates",
		Dist: Latest{Theta: DefaultTheta}}
	E = Workload{Name: "E", InsertPct: 5, ScanPct: 95, Description: "Scan/Write, 95/5", AppPattern: "Threaded conversations"}
	F = Workload{Name: "F", ReadPct: 50, RMWPct: 50, Description: "Read-modify-write, 50/50", AppPattern: "User activity records",
		Dist: Zipfian{Theta: DefaultTheta}}
)

// DefaultTheta is the YCSB default skew for the zipfian and
// read-latest distributions.
const DefaultTheta = 0.99

// All lists the workloads the paper evaluates, in the paper's order.
// The figure runners iterate this set, so the reproduced figures stay
// faithful to Table 3.
var All = []Workload{LoadA, A, B, C, E}

// extended lists every workload including the beyond-the-paper D and
// F rows, in YCSB letter order.
var extended = []Workload{LoadA, A, B, C, D, E, F}

// ByName returns the workload with the given name (case-sensitive:
// "Load A", "A", "B", "C", "D", "E", "F").
func ByName(name string) (Workload, error) {
	for _, w := range extended {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("ycsb: unknown workload %q", name)
}

// MaxScanLen is the YCSB default maximum range length: scan lengths are
// uniform in [1, MaxScanLen].
const MaxScanLen = 100

// Plan holds per-thread operation streams for one workload execution.
type Plan struct {
	Workload Workload
	// LoadN is the size of the pre-loaded key population (identifiers
	// [0, LoadN)).
	LoadN int
	// Threads[i] is the operation stream for thread i.
	Threads [][]Op
	// Inserts is the number of OpInsert operations across all threads
	// (== Counts[OpInsert]), precomputed at generation time so
	// consumers (per-insert counter columns) need not re-walk the op
	// streams on every run.
	Inserts int
	// Counts is the number of operations of each kind across all
	// threads, indexed by OpKind. Its sum equals TotalOps — the
	// conservation invariant the harness re-checks after execution.
	Counts [NumOpKinds]int
}

// TotalOps returns the number of operations across all threads.
func (p *Plan) TotalOps() int {
	n := 0
	for _, t := range p.Threads {
		n += len(t)
	}
	return n
}

// Generate builds a plan: opN operations of workload w, statically split
// across threads, assuming identifiers [0, loadN) are already loaded.
// Fresh insert identifiers start at loadN and are partitioned between
// threads so concurrent inserts never collide. Read-like targets come
// from w.Dist (nil = Uniform, the paper's setup). Generation is
// deterministic in seed.
func Generate(w Workload, loadN, opN, threads int, seed int64) *Plan {
	dist := w.Dist
	if dist == nil {
		dist = Uniform{}
	}
	return generateWith(w, loadN, opN, threads, seed, dist)
}

// generateWith is Generate with an explicit request distribution,
// overriding the workload row's default (how -dist runs workload A–F
// under any distribution).
func generateWith(w Workload, loadN, opN, threads int, seed int64, dist Distribution) *Plan {
	if threads < 1 {
		threads = 1
	}
	if s := w.InsertPct + w.ReadPct + w.ScanPct + w.UpdatePct + w.RMWPct; s != 100 {
		panic(fmt.Sprintf("ycsb: workload %q percentages sum to %d", w.Name, s))
	}
	p := &Plan{Workload: w, LoadN: loadN, Threads: make([][]Op, threads)}
	per := opN / threads
	nextInsert := uint64(loadN)
	for t := 0; t < threads; t++ {
		n := per
		if t == threads-1 {
			n = opN - per*(threads-1)
		}
		rng := rand.New(rand.NewSource(seed + int64(t)*1_000_003))
		smp := dist.NewSampler(loadN, rng)
		ops := make([]Op, 0, n)
		base := nextInsert
		used := uint64(0)
		for i := 0; i < n; i++ {
			r := rng.Intn(100)
			switch {
			case r < w.InsertPct:
				id := base + used
				ops = append(ops, Op{Kind: OpInsert, ID: id})
				used++
				smp.NoteInsert(id)
			case r < w.InsertPct+w.ReadPct:
				ops = append(ops, Op{Kind: OpRead, ID: smp.Next()})
			case r < w.InsertPct+w.ReadPct+w.UpdatePct:
				ops = append(ops, Op{Kind: OpUpdate, ID: smp.Next()})
			case r < w.InsertPct+w.ReadPct+w.UpdatePct+w.RMWPct:
				ops = append(ops, Op{Kind: OpRMW, ID: smp.Next()})
			default:
				ops = append(ops, Op{Kind: OpScan, ID: smp.Next(), ScanLen: 1 + rng.Intn(MaxScanLen)})
			}
		}
		nextInsert = base + used
		p.Threads[t] = ops
		for _, op := range ops {
			p.Counts[op.Kind]++
		}
	}
	p.Inserts = p.Counts[OpInsert]
	return p
}

// GenerateLoad builds the Load A plan that populates identifiers
// [0, loadN), split across threads in contiguous chunks.
func GenerateLoad(loadN, threads int) *Plan {
	if threads < 1 {
		threads = 1
	}
	p := &Plan{Workload: LoadA, LoadN: 0, Threads: make([][]Op, threads), Inserts: loadN}
	p.Counts[OpInsert] = loadN
	per := loadN / threads
	start := 0
	for t := 0; t < threads; t++ {
		n := per
		if t == threads-1 {
			n = loadN - per*(threads-1)
		}
		ops := make([]Op, n)
		for i := 0; i < n; i++ {
			ops[i] = Op{Kind: OpInsert, ID: uint64(start + i)}
		}
		p.Threads[t] = ops
		start += n
	}
	return p
}

// Describe renders the workload table: Table 3's five rows plus the
// beyond-the-paper D and F rows with their default distributions.
func Describe() string {
	s := "Workload | Description              | Distribution | Application pattern\n"
	s += "---------+--------------------------+--------------+---------------------\n"
	for _, w := range extended {
		dist := "uniform"
		if w.Dist != nil {
			dist = w.Dist.Name()
		}
		s += fmt.Sprintf("%-8s | %-24s | %-12s | %s\n", w.Name, w.Description, dist, w.AppPattern)
	}
	return s
}
