package ycsb

import (
	"math"
	"math/rand"
	"testing"
)

// chiSquared samples n draws from dist over a population of popN and
// returns the chi-squared statistic against the closed-form zipf mass
// p_r = (r+1)^-theta / zeta(popN, theta).
func chiSquared(t *testing.T, dist Distribution, popN, n int, theta float64, seed int64) float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	smp := dist.NewSampler(popN, rng)
	obs := make([]int, popN)
	for i := 0; i < n; i++ {
		id := smp.Next()
		if id >= uint64(popN) {
			t.Fatalf("sample %d outside population [0,%d)", id, popN)
		}
		obs[id]++
	}
	z := 0.0
	for i := 1; i <= popN; i++ {
		z += math.Pow(float64(i), -theta)
	}
	chi2 := 0.0
	for r := 0; r < popN; r++ {
		exp := float64(n) * math.Pow(float64(r+1), -theta) / z
		d := float64(obs[r]) - exp
		chi2 += d * d / exp
	}
	return chi2
}

// TestZipfianGoodnessOfFit pins the Gray et al. sampler's frequencies
// against the closed-form zipf mass at both evaluation thetas with a
// chi-squared test at the real alpha=0.001 critical value (df =
// popN-1 = 99 → 148.2). The sampler is an inversion approximation —
// exact for the two hottest ranks, continuous approximation for the
// tail — whose systematic bias grows linearly with sample count while
// sampling noise grows with its square root; n = 10_000 keeps the
// bias below the noise floor (measured: the statistic roughly doubles
// the critical value by n = 50_000 at theta 0.99), so the strict
// critical value applies. Seeds are fixed, making each statistic
// deterministic. TestZipfianGoodnessOfFitPower shows the same test
// setup rejects a wrong distribution by two orders of magnitude, so
// the small n does not cost discriminative power.
func TestZipfianGoodnessOfFit(t *testing.T) {
	const popN, n = 100, 10_000
	for _, theta := range []float64{0.5, 0.99} {
		for seed := int64(1); seed <= 3; seed++ {
			chi2 := chiSquared(t, Zipfian{Theta: theta}, popN, n, theta, seed)
			t.Logf("theta=%v seed=%d chi2=%.1f", theta, seed, chi2)
			if chi2 > 148.2 {
				t.Errorf("theta=%v seed=%d: chi2 = %.1f, want < 148.2 (df=99, alpha=0.001)", theta, seed, chi2)
			}
		}
	}
}

// TestZipfianGoodnessOfFitPower: the same statistic must explode for a
// distribution that is NOT the tested zipf mass, or the fit test above
// proves nothing.
func TestZipfianGoodnessOfFitPower(t *testing.T) {
	const popN, n = 100, 10_000
	if chi2 := chiSquared(t, Uniform{}, popN, n, 0.99, 1); chi2 < 5000 {
		t.Errorf("uniform sampling vs zipf(0.99) mass: chi2 = %.1f, want > 5000", chi2)
	}
	if chi2 := chiSquared(t, Zipfian{Theta: 0.5}, popN, n, 0.99, 1); chi2 < 1000 {
		t.Errorf("zipf(0.5) sampling vs zipf(0.99) mass: chi2 = %.1f, want > 1000", chi2)
	}
}

// TestZipfianSkewOrdering sanity-checks the shape beyond the fit: rank
// 0 must be the hottest, and higher theta must concentrate more mass
// on it.
func TestZipfianSkewOrdering(t *testing.T) {
	const popN, n = 1000, 100_000
	top := func(theta float64) float64 {
		rng := rand.New(rand.NewSource(7))
		smp := Zipfian{Theta: theta}.NewSampler(popN, rng)
		hits := 0
		for i := 0; i < n; i++ {
			if smp.Next() == 0 {
				hits++
			}
		}
		return float64(hits) / n
	}
	p50, p99 := top(0.5), top(0.99)
	if p99 <= p50 {
		t.Fatalf("rank-0 mass: theta 0.99 (%v) should exceed theta 0.5 (%v)", p99, p50)
	}
	// Closed form: p_0 = 1/zeta(1000, 0.99) ≈ 0.127.
	if p99 < 0.08 || p99 > 0.20 {
		t.Fatalf("rank-0 mass at theta 0.99 = %v, want ≈ 0.127", p99)
	}
}

// TestDistributionsDeterministic: identical seeds must yield identical
// plans for every distribution — the property replays and regression
// baselines rely on.
func TestDistributionsDeterministic(t *testing.T) {
	for _, d := range []Distribution{Uniform{}, Zipfian{Theta: 0.99}, Zipfian{Theta: 0.5}, Latest{Theta: 0.99}} {
		a := generateWith(A, 2000, 4000, 4, 7, d)
		b := generateWith(A, 2000, 4000, 4, 7, d)
		for ti := range a.Threads {
			if len(a.Threads[ti]) != len(b.Threads[ti]) {
				t.Fatalf("%s: non-deterministic lengths", d.Name())
			}
			for i := range a.Threads[ti] {
				if a.Threads[ti][i] != b.Threads[ti][i] {
					t.Fatalf("%s: non-deterministic op %d/%d", d.Name(), ti, i)
				}
			}
		}
	}
}

// TestLatestNeverEmitsUninserted walks every thread stream of a
// latest-distribution plan asserting each read-like target is either
// pre-loaded or an insert the same thread made earlier — the guarantee
// that makes statically generated read-latest plans executable under
// concurrency (another thread's inserts may not have happened yet).
func TestLatestNeverEmitsUninserted(t *testing.T) {
	const loadN = 1000
	for _, w := range []Workload{D, A, B} {
		p := generateWith(w, loadN, 20_000, 4, 11, Latest{Theta: 0.99})
		for ti, ops := range p.Threads {
			own := make(map[uint64]bool)
			for i, op := range ops {
				switch op.Kind {
				case OpInsert:
					own[op.ID] = true
				default:
					if op.ID >= loadN && !own[op.ID] {
						t.Fatalf("workload %s thread %d op %d: %v targets id %d, not loaded and not inserted earlier by this thread",
							w.Name, ti, i, op.Kind, op.ID)
					}
				}
			}
		}
	}
}

// TestLatestSkewsRecent: under read-latest, read targets should
// concentrate near the insert frontier (the newest loaded and
// own-inserted keys), not uniformly over the population.
func TestLatestSkewsRecent(t *testing.T) {
	const loadN = 10_000
	p := generateWith(D, loadN, 20_000, 1, 3, Latest{Theta: 0.99})
	recent := 0
	reads := 0
	for _, op := range p.Threads[0] {
		if op.Kind != OpRead {
			continue
		}
		reads++
		// "Recent" = the newest 10% of the initially loaded population
		// or any own insert.
		if op.ID >= uint64(loadN)-loadN/10 {
			recent++
		}
	}
	if reads == 0 {
		t.Fatal("workload D generated no reads")
	}
	if frac := float64(recent) / float64(reads); frac < 0.5 {
		t.Fatalf("only %.0f%% of read-latest targets hit the newest 10%% of keys; want > 50%%", frac*100)
	}
}

// TestZetaIncrementalMatchesScratch pins the Latest sampler's O(1)
// incremental zeta maintenance against a from-scratch recompute.
func TestZetaIncrementalMatchesScratch(t *testing.T) {
	const loadN, inserts = 500, 100
	const theta = 0.99
	s := Latest{Theta: theta}.NewSampler(loadN, rand.New(rand.NewSource(1))).(*latestSampler)
	for i := 0; i < inserts; i++ {
		s.NoteInsert(uint64(loadN + i))
	}
	want := 0.0
	for i := 1; i <= loadN+inserts; i++ {
		want += math.Pow(float64(i), -theta)
	}
	if diff := math.Abs(s.zetan - want); diff > 1e-9 {
		t.Fatalf("incremental zetan drifted %g from scratch recompute", diff)
	}
}

func TestDistributionByName(t *testing.T) {
	for _, tc := range []struct {
		name string
		want string
	}{{"uniform", "uniform"}, {"zipfian", "zipfian"}, {"latest", "latest"}} {
		d, err := DistributionByName(tc.name, 0.99)
		if err != nil || d.Name() != tc.want {
			t.Fatalf("DistributionByName(%q) = %v, %v", tc.name, d, err)
		}
	}
	if _, err := DistributionByName("hotspot", 0.99); err == nil {
		t.Fatal("unknown distribution should fail")
	}
	// Out-of-range theta must be a clean error at name resolution, not
	// a panic later during plan generation (the -theta flag path).
	for _, theta := range []float64{0, 1, -0.5, 1.5} {
		for _, name := range []string{"zipfian", "latest"} {
			if _, err := DistributionByName(name, theta); err == nil {
				t.Errorf("DistributionByName(%q, %v) accepted out-of-range theta", name, theta)
			}
		}
	}
	if _, err := DistributionByName("uniform", 1.5); err != nil {
		t.Errorf("uniform should ignore theta: %v", err)
	}
}

// TestZipfianThetaValidation: theta outside (0,1) is a programming
// error and must fail loudly at sampler construction.
func TestZipfianThetaValidation(t *testing.T) {
	for _, theta := range []float64{0, 1, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("theta=%v should panic", theta)
				}
			}()
			Zipfian{Theta: theta}.NewSampler(100, rand.New(rand.NewSource(1)))
		}()
	}
}
