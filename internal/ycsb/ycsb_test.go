package ycsb

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestWorkloadMixesSumTo100(t *testing.T) {
	for _, w := range extended {
		if s := w.InsertPct + w.ReadPct + w.ScanPct + w.UpdatePct + w.RMWPct; s != 100 {
			t.Fatalf("workload %s mix sums to %d", w.Name, s)
		}
	}
}

// oldGenerate is a frozen copy of the pre-distribution-engine
// generator (uniform reads, insert/read/scan only), kept verbatim so
// TestUniformBitCompatible can prove the refactored Generate still
// emits bit-identical plans for every Table 3 workload under the
// default distribution.
func oldGenerate(w Workload, loadN, opN, threads int, seed int64) *Plan {
	if threads < 1 {
		threads = 1
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
		ops := make([]Op, 0, n)
		base := nextInsert
		used := uint64(0)
		for i := 0; i < n; i++ {
			r := rng.Intn(100)
			switch {
			case r < w.InsertPct:
				ops = append(ops, Op{Kind: OpInsert, ID: base + used})
				used++
			case r < w.InsertPct+w.ReadPct:
				ops = append(ops, Op{Kind: OpRead, ID: uint64(rng.Int63n(int64(max(loadN, 1))))})
			default:
				ops = append(ops, Op{Kind: OpScan, ID: uint64(rng.Int63n(int64(max(loadN, 1)))), ScanLen: 1 + rng.Intn(MaxScanLen)})
			}
		}
		nextInsert = base + used
		p.Inserts += int(used)
		p.Threads[t] = ops
	}
	return p
}

// TestUniformBitCompatible is the regression the distribution engine
// must never break: with the default (uniform) distribution, Generate
// produces plans bit-identical to the pre-engine generator for every
// paper workload, over several seeds and thread counts.
func TestUniformBitCompatible(t *testing.T) {
	for _, w := range All {
		for _, seed := range []int64{1, 42, 999} {
			for _, threads := range []int{1, 3, 8} {
				got := Generate(w, 1000, 5000, threads, seed)
				want := oldGenerate(w, 1000, 5000, threads, seed)
				if got.Inserts != want.Inserts || len(got.Threads) != len(want.Threads) {
					t.Fatalf("%s seed=%d threads=%d: plan shape diverged", w.Name, seed, threads)
				}
				for ti := range want.Threads {
					if len(got.Threads[ti]) != len(want.Threads[ti]) {
						t.Fatalf("%s seed=%d threads=%d: thread %d length diverged", w.Name, seed, threads, ti)
					}
					for i := range want.Threads[ti] {
						if got.Threads[ti][i] != want.Threads[ti][i] {
							t.Fatalf("%s seed=%d threads=%d: op %d/%d = %+v, pre-engine generator emitted %+v",
								w.Name, seed, threads, ti, i, got.Threads[ti][i], want.Threads[ti][i])
						}
					}
				}
			}
		}
	}
}

// TestGenerateDFMixes: D is 95/5 read/insert under read-latest, F is
// 50/50 read/RMW under zipfian; update/RMW targets must come from the
// already-inserted population.
func TestGenerateDFMixes(t *testing.T) {
	const loadN, n = 1000, 100_000
	d := Generate(D, loadN, n, 2, 11)
	if d.Counts[OpRMW] != 0 || d.Counts[OpUpdate] != 0 || d.Counts[OpScan] != 0 {
		t.Fatalf("workload D contains non-read/insert ops: %v", d.Counts)
	}
	if pct := float64(d.Counts[OpInsert]) / n * 100; pct < 3 || pct > 7 {
		t.Fatalf("workload D insert fraction = %.2f%%, want ~5%%", pct)
	}
	f := Generate(F, loadN, n, 2, 11)
	if f.Counts[OpInsert] != 0 || f.Counts[OpScan] != 0 || f.Counts[OpUpdate] != 0 {
		t.Fatalf("workload F contains non-read/RMW ops: %v", f.Counts)
	}
	if pct := float64(f.Counts[OpRMW]) / n * 100; pct < 45 || pct > 55 {
		t.Fatalf("workload F RMW fraction = %.2f%%, want ~50%%", pct)
	}
	for _, ops := range f.Threads {
		for _, op := range ops {
			if op.ID >= loadN {
				t.Fatalf("workload F %v targets id %d outside loaded population", op.Kind, op.ID)
			}
		}
	}
}

// TestPlanCountsConserve: per-kind counts must sum to TotalOps for
// every workload shape — the plan half of the conservation invariant
// the harness re-checks after execution.
func TestPlanCountsConserve(t *testing.T) {
	for _, w := range extended {
		p := Generate(w, 500, 3000, 4, 9)
		sum := 0
		for k, c := range p.Counts {
			if c < 0 {
				t.Fatalf("workload %s: negative count for %v", w.Name, OpKind(k))
			}
			sum += c
		}
		if sum != p.TotalOps() {
			t.Fatalf("workload %s: kind counts sum to %d, TotalOps = %d", w.Name, sum, p.TotalOps())
		}
		if p.Inserts != p.Counts[OpInsert] {
			t.Fatalf("workload %s: Inserts = %d != Counts[OpInsert] = %d", w.Name, p.Inserts, p.Counts[OpInsert])
		}
	}
}

func TestByName(t *testing.T) {
	w, err := ByName("Load A")
	if err != nil || w.InsertPct != 100 {
		t.Fatalf("ByName(Load A) = %+v, %v", w, err)
	}
	if _, err := ByName("Z"); err == nil {
		t.Fatal("ByName(Z) should fail")
	}
}

func TestGenerateLoadCoversAllIDs(t *testing.T) {
	p := GenerateLoad(100, 3)
	seen := make(map[uint64]bool)
	for _, ops := range p.Threads {
		for _, op := range ops {
			if op.Kind != OpInsert {
				t.Fatalf("load plan contains %v", op.Kind)
			}
			if seen[op.ID] {
				t.Fatalf("duplicate id %d", op.ID)
			}
			seen[op.ID] = true
		}
	}
	if len(seen) != 100 {
		t.Fatalf("load plan covers %d ids, want 100", len(seen))
	}
	if p.TotalOps() != 100 {
		t.Fatalf("TotalOps = %d, want 100", p.TotalOps())
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(A, 1000, 500, 4, 7)
	b := Generate(A, 1000, 500, 4, 7)
	for ti := range a.Threads {
		if len(a.Threads[ti]) != len(b.Threads[ti]) {
			t.Fatal("non-deterministic lengths")
		}
		for i := range a.Threads[ti] {
			if a.Threads[ti][i] != b.Threads[ti][i] {
				t.Fatal("non-deterministic ops")
			}
		}
	}
}

func TestGenerateInsertIDsDisjointAndFresh(t *testing.T) {
	const loadN = 1000
	p := Generate(A, loadN, 2000, 4, 3)
	seen := make(map[uint64]bool)
	for _, ops := range p.Threads {
		for _, op := range ops {
			switch op.Kind {
			case OpInsert:
				if op.ID < loadN {
					t.Fatalf("insert id %d collides with load population", op.ID)
				}
				if seen[op.ID] {
					t.Fatalf("duplicate insert id %d across threads", op.ID)
				}
				seen[op.ID] = true
			case OpRead, OpScan:
				if op.ID >= loadN {
					t.Fatalf("%v id %d outside loaded population", op.Kind, op.ID)
				}
			}
		}
	}
}

func TestGenerateMixApproximatesWorkload(t *testing.T) {
	const n = 100000
	p := Generate(B, 1000, n, 2, 11)
	var ins, rd int
	for _, ops := range p.Threads {
		for _, op := range ops {
			switch op.Kind {
			case OpInsert:
				ins++
			case OpRead:
				rd++
			}
		}
	}
	insPct := float64(ins) / float64(n) * 100
	if insPct < 3 || insPct > 7 {
		t.Fatalf("workload B insert fraction = %.2f%%, want ~5%%", insPct)
	}
	if rd+ins != n {
		t.Fatalf("B should contain only reads+inserts, got %d/%d", rd, ins)
	}
}

// Plan.Inserts is precomputed at generation time; it must equal a walk
// of the op streams for every workload shape.
func TestPlanInsertsMatchesOpStreams(t *testing.T) {
	count := func(p *Plan) int {
		n := 0
		for _, ops := range p.Threads {
			for _, op := range ops {
				if op.Kind == OpInsert {
					n++
				}
			}
		}
		return n
	}
	for _, w := range All {
		p := Generate(w, 500, 3000, 4, 9)
		if p.Inserts != count(p) {
			t.Fatalf("workload %s: Inserts = %d, op streams contain %d", w.Name, p.Inserts, count(p))
		}
	}
	if p := GenerateLoad(123, 4); p.Inserts != 123 || count(p) != 123 {
		t.Fatalf("load plan Inserts = %d (streams %d), want 123", p.Inserts, count(p))
	}
}

func TestScanLengthsInRange(t *testing.T) {
	p := Generate(E, 1000, 20000, 2, 5)
	sawScan := false
	for _, ops := range p.Threads {
		for _, op := range ops {
			if op.Kind == OpScan {
				sawScan = true
				if op.ScanLen < 1 || op.ScanLen > MaxScanLen {
					t.Fatalf("scan length %d out of [1,%d]", op.ScanLen, MaxScanLen)
				}
			}
		}
	}
	if !sawScan {
		t.Fatal("workload E generated no scans")
	}
}

func TestGenerateSplitsOpsExactly(t *testing.T) {
	f := func(opN uint16, threads uint8) bool {
		th := int(threads%8) + 1
		n := int(opN % 5000)
		p := Generate(C, 100, n, th, 1)
		return p.TotalOps() == n && len(p.Threads) == th
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateZeroThreadsClamped(t *testing.T) {
	p := Generate(C, 10, 10, 0, 1)
	if len(p.Threads) != 1 {
		t.Fatalf("threads clamped to %d, want 1", len(p.Threads))
	}
	if GenerateLoad(10, 0).TotalOps() != 10 {
		t.Fatal("GenerateLoad with 0 threads should still cover all ids")
	}
}

func TestDescribeContainsAllRows(t *testing.T) {
	d := Describe()
	for _, w := range All {
		if !strings.Contains(d, w.AppPattern) {
			t.Fatalf("Describe() missing %q", w.AppPattern)
		}
	}
}

func TestOpKindString(t *testing.T) {
	if OpInsert.String() != "insert" || OpRead.String() != "read" || OpScan.String() != "scan" {
		t.Fatal("OpKind.String mismatch")
	}
}

func TestBadWorkloadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Generate with bad mix should panic")
		}
	}()
	Generate(Workload{Name: "bad", InsertPct: 10}, 10, 10, 1, 1)
}
