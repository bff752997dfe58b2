// Benchmarks regenerating every table and figure of RECIPE's evaluation
// (§7), one benchmark family per artifact, plus ablations for the design
// choices called out in DESIGN.md. Throughput figures report Mops/s via
// the standard ns/op; counter figures attach clwb/insert, mfence/insert
// and LLC-miss/op metrics with b.ReportMetric.
//
// Scale: benchmarks default to small populations so `go test -bench=.`
// terminates quickly; cmd/ycsbbench runs the full-size experiments.
package recipe_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	recipe "repro"
	"repro/internal/cachesim"
	"repro/internal/clht"
	"repro/internal/core"
	"repro/internal/crash"
	"repro/internal/harness"
	"repro/internal/keys"
	"repro/internal/pmem"
	"repro/internal/ycsb"
	"repro/shard"
)

const (
	benchLoadN   = 20_000
	benchThreads = 8
)

// runWorkloadBench executes one (index, workload, keykind) cell: the
// index is loaded once, then b.N operations of the workload mix run
// across benchThreads goroutines.
func runWorkloadBench(b *testing.B, index string, w ycsb.Workload, kind keys.Kind, delays bool) {
	b.Helper()
	opts := pmem.Options{}
	if delays {
		opts.DelayClwb, opts.DelayFence = 40, 20
	}
	m, err := shard.NewOrdered(index, kind, shard.Options{Heap: opts})
	if err != nil {
		b.Fatal(err)
	}
	res, err := harness.Run(index, harness.ShardedOrdered(m, kind), harness.WritePath{}, w, benchLoadN, b.N, benchThreads, 42, true)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.MopsPerSec(), "Mops/s")
}

func runHashBench(b *testing.B, index string, w ycsb.Workload, delays bool) {
	b.Helper()
	opts := pmem.Options{}
	if delays {
		opts.DelayClwb, opts.DelayFence = 40, 20
	}
	m, err := shard.NewHash(index, shard.Options{Heap: opts})
	if err != nil {
		b.Fatal(err)
	}
	res, err := harness.Run(index, harness.ShardedHash(m), harness.WritePath{}, w, benchLoadN, b.N, benchThreads, 42, true)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.MopsPerSec(), "Mops/s")
}

// BenchmarkFig4a: ordered indexes, integer keys, multi-threaded YCSB.
func BenchmarkFig4a(b *testing.B) {
	for _, name := range core.OrderedNames {
		for _, w := range ycsb.All {
			b.Run(fmt.Sprintf("%s/%s", name, w.Name), func(b *testing.B) {
				runWorkloadBench(b, name, w, keys.RandInt, true)
			})
		}
	}
}

// BenchmarkFig4b: ordered indexes, 24-byte YCSB string keys.
func BenchmarkFig4b(b *testing.B) {
	for _, name := range core.OrderedNames {
		for _, w := range ycsb.All {
			b.Run(fmt.Sprintf("%s/%s", name, w.Name), func(b *testing.B) {
				runWorkloadBench(b, name, w, keys.YCSBString, true)
			})
		}
	}
}

// BenchmarkFig5: hash indexes, integer keys (workloads without scans).
func BenchmarkFig5(b *testing.B) {
	for _, name := range core.HashNames {
		for _, w := range []ycsb.Workload{ycsb.LoadA, ycsb.A, ycsb.B, ycsb.C} {
			b.Run(fmt.Sprintf("%s/%s", name, w.Name), func(b *testing.B) {
				runHashBench(b, name, w, true)
			})
		}
	}
}

// counterBench runs one Load A pass in stats mode and reports clwb and
// mfence per insert plus simulated LLC misses per op.
func counterBench(b *testing.B, index string, kind keys.Kind, hash bool) {
	b.Helper()
	target := harness.ByName(index, kind)(pmem.Options{LLC: cachesim.New(cachesim.DefaultConfig())})
	res, err := harness.Run(index, target, harness.WritePath{}, ycsb.LoadA, benchLoadN/2, b.N, 4, 42, true)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.ClwbPerInsert(), "clwb/insert")
	b.ReportMetric(res.FencePerInsert(), "mfence/insert")
	b.ReportMetric(res.LLCMissPerOp(), "LLCmiss/op")
}

// BenchmarkFig4c: per-insert persistence instructions and LLC misses,
// ordered indexes, integer keys.
func BenchmarkFig4c(b *testing.B) {
	for _, name := range core.OrderedNames {
		b.Run(name, func(b *testing.B) { counterBench(b, name, keys.RandInt, false) })
	}
}

// BenchmarkFig4d: the same with string keys.
func BenchmarkFig4d(b *testing.B) {
	for _, name := range core.OrderedNames {
		b.Run(name, func(b *testing.B) { counterBench(b, name, keys.YCSBString, false) })
	}
}

// BenchmarkTable4: per-insert persistence instructions and LLC misses,
// hash indexes.
func BenchmarkTable4(b *testing.B) {
	for _, name := range core.HashNames {
		b.Run(name, func(b *testing.B) { counterBench(b, name, keys.RandInt, true) })
	}
}

// BenchmarkHeapScaling measures the instrumentation substrate itself
// rather than any index: Alloc + Persist + Fence throughput at 1..16
// goroutines. The counters and the line allocator are striped, so on a
// multi-core machine it scales with goroutines; this is the
// harness-overhead ceiling that would otherwise cap every index in
// Figs 4 and 5.
func BenchmarkHeapScaling(b *testing.B) {
	for _, g := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("goroutines=%d", g), func(b *testing.B) {
			heap := pmem.NewFast()
			per := b.N / g
			b.ResetTimer()
			var wg sync.WaitGroup
			for t := 0; t < g; t++ {
				n := per
				if t == g-1 {
					n = b.N - per*(g-1)
				}
				wg.Add(1)
				go func(n int) {
					defer wg.Done()
					for i := 0; i < n; i++ {
						o := heap.Alloc(64)
						heap.Persist(o, 0, 64)
						heap.Fence()
					}
				}(n)
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Mops/s")
		})
	}
}

// BenchmarkShardScaling sweeps the sharded front-end: insert throughput
// into a sharded P-ART at H ∈ {1,2,4,8} shards × {1,2,4,8} goroutines.
// With one heap, all goroutines contend on one index's write locks and
// one (striped) instrumentation substrate; with H heaps the partitioner
// spreads them over H independent indexes, the multi-socket-style
// scaling axis. As with BenchmarkHeapScaling, separation needs
// GOMAXPROCS > 1 — on a single-CPU container all configurations measure
// the same serial work plus routing overhead.
func BenchmarkShardScaling(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		for _, g := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("shards=%d/goroutines=%d", shards, g), func(b *testing.B) {
				m, err := shard.NewOrdered("P-ART", keys.RandInt, shard.Options{Shards: shards})
				if err != nil {
					b.Fatal(err)
				}
				gen := keys.NewGenerator(keys.RandInt)
				per := b.N / g
				b.ResetTimer()
				var wg sync.WaitGroup
				for t := 0; t < g; t++ {
					n := per
					if t == g-1 {
						n = b.N - per*(g-1)
					}
					base := uint64(t) << 40 // disjoint id ranges per goroutine
					wg.Add(1)
					go func(base uint64, n int) {
						defer wg.Done()
						buf := make([]byte, 0, 16)
						for i := 0; i < n; i++ {
							buf = gen.AppendKey(buf[:0], base+uint64(i))
							if err := m.Insert(buf, base+uint64(i)); err != nil {
								b.Error(err)
								return
							}
						}
					}(base, n)
				}
				wg.Wait()
				b.StopTimer()
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Mops/s")
			})
		}
	}
}

// BenchmarkScanStreaming measures the streaming k-way merge scan
// engine: range scans through the sharded front-end for both
// partitioners at H ∈ {1, 8} shards, bounded (100-entry) and unbounded
// lengths, over datasets that differ 10× in size. The headline metric
// of those cells is B/op (ReportAllocs): each shard's iterator buffers
// at most one leaf, so scan allocation does not grow with the dataset,
// where the old collect-then-sort merge buffered every remaining entry —
// O(dataset) — for unbounded scans. FAST & FAIR is the scanned index
// there: its leaf sibling links make the walk a linked-list walk (§7.1),
// so the numbers isolate the merge rather than trie re-walk costs.
//
// The last cells are the benchmark's lib-scan workload in miniature —
// 24-byte YCSB string keys, hash partitioning over 4 shards, roaming
// starts, 200K keys — where every shard is pulled through its index's
// own iterator: P-ART at three lengths (at len=1-100 ns/op is the cost of
// one merged scan of ~50 entries, and allocs/op should read 0 in all
// three), and FAST & FAIR at len=1-100.
func BenchmarkScanStreaming(b *testing.B) {
	for _, part := range []shard.Partitioner{shard.HashPartition{}, shard.RangePartition{}} {
		for _, shards := range []int{1, 8} {
			for _, loadN := range []int{20_000, 200_000} {
				for _, scanLen := range []int{100, 0} {
					lenName := fmt.Sprint(scanLen)
					if scanLen == 0 {
						lenName = "full"
					}
					name := fmt.Sprintf("part=%s/shards=%d/load=%d/len=%s", part.Name(), shards, loadN, lenName)
					b.Run(name, func(b *testing.B) {
						benchScan(b, "FAST & FAIR", keys.RandInt,
							shard.Options{Shards: shards, Partitioner: part}, loadN,
							func(int) int { return scanLen })
					})
				}
			}
		}
	}
	// len=1 and len=4 guard the iterator's child look-ahead: a short scan
	// pays for every sibling it touches and returns almost none of them.
	for _, c := range []struct {
		name string
		n    func(i int) int
	}{
		{"1", func(int) int { return 1 }},
		{"4", func(int) int { return 4 }},
		{"1-100", func(i int) int { return 1 + i*37%100 }},
	} {
		b.Run("index=P-ART/keys=ycsb/part=hash/shards=4/load=200000/len="+c.name, func(b *testing.B) {
			benchScan(b, "P-ART", keys.YCSBString, shard.Options{Shards: 4}, 200_000, c.n)
		})
	}
	b.Run("index=FAST & FAIR/keys=ycsb/part=hash/shards=4/load=200000/len=1-100", func(b *testing.B) {
		benchScan(b, "FAST & FAIR", keys.YCSBString, shard.Options{Shards: 4}, 200_000,
			func(i int) int { return 1 + i*37%100 })
	})
}

// benchScan loads loadN keys into a sharded front-end and times b.N
// scans whose i-th length is scanLen(i) (0 = unbounded, from the minimum
// key; otherwise from a start that roams the whole key space).
func benchScan(b *testing.B, index string, kind keys.Kind, opts shard.Options, loadN int, scanLen func(i int) int) {
	m, err := shard.NewOrdered(index, kind, opts)
	if err != nil {
		b.Fatal(err)
	}
	gen := keys.NewGenerator(kind)
	buf := make([]byte, 0, 32)
	for id := uint64(0); id < uint64(loadN); id++ {
		buf = gen.AppendKey(buf[:0], id)
		if err := m.Insert(buf, id); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	visited := 0
	for i := 0; i < b.N; i++ {
		var start []byte
		n := scanLen(i)
		if n > 0 {
			buf = gen.AppendKey(buf[:0], uint64(i)%uint64(loadN))
			start = buf
		}
		visited += m.Scan(start, n, func([]byte, uint64) bool { return true })
	}
	b.StopTimer()
	b.ReportMetric(float64(visited)/float64(b.N), "entries/op")
}

// BenchmarkWorkloadSkew sweeps the request-distribution axis the paper
// left closed: workload F (50/50 read/RMW) under uniform vs zipfian
// θ ∈ {0.5, 0.99} and workload D (95/5 read-latest/insert), across
// representative ordered indexes and shard counts. Under skew a
// handful of ranks absorb most read-like traffic: with H shards those
// ranks live on few partitions, so the per-shard striped counters and
// write locks that uniform traffic spreads evenly concentrate instead
// — the shard-imbalance effect DESIGN.md's "Request distributions and
// update semantics" section discusses. As with the other scaling
// families, the contention itself needs GOMAXPROCS > 1 to manifest;
// at 1 CPU the cells pin the code paths (and feed the bench-smoke CI
// lane) rather than the separation.
func BenchmarkWorkloadSkew(b *testing.B) {
	type cell struct {
		label string
		w     ycsb.Workload
		dist  ycsb.Distribution
	}
	cells := []cell{
		{"F/uniform", ycsb.F, ycsb.Uniform{}},
		{"F/zipf-0.5", ycsb.F, ycsb.Zipfian{Theta: 0.5}},
		{"F/zipf-0.99", ycsb.F, ycsb.Zipfian{Theta: 0.99}},
		{"D/latest-0.99", ycsb.D, ycsb.Latest{Theta: 0.99}},
	}
	for _, index := range []string{"P-ART", "FAST & FAIR"} {
		for _, c := range cells {
			for _, shards := range []int{1, 8} {
				b.Run(fmt.Sprintf("%s/%s/shards=%d", index, c.label, shards), func(b *testing.B) {
					m, err := shard.NewOrdered(index, keys.RandInt,
						shard.Options{Shards: shards})
					if err != nil {
						b.Fatal(err)
					}
					defer m.Release()
					w := c.w
					w.Dist = c.dist
					res, err := harness.Run(index, harness.ShardedOrdered(m, keys.RandInt), harness.WritePath{}, w,
						benchLoadN, b.N, benchThreads, 42, true)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(res.MopsPerSec(), "Mops/s")
				})
			}
		}
	}
}

// BenchmarkBatchedWrites sweeps the group-commit batch size on the
// write-heavy workloads A (50/50 insert/read) and F (50/50 read/RMW):
// per-thread combiners queue up to `batch` writes and commit them as
// one fence-coalesced group per shard, so the headline metric is
// fence/op falling as batch grows while batch=1 matches the plain
// per-op write path. Crash consistency at every batch size is proven
// by the crash-site campaign on the batched path under all four
// restart images (internal/harness TestLossyMatrix/batched).
func BenchmarkBatchedWrites(b *testing.B) {
	for _, w := range []ycsb.Workload{ycsb.A, ycsb.F} {
		for _, batch := range []int{1, 8, 64} {
			b.Run(fmt.Sprintf("P-ART/%s/batch=%d", w.Name, batch), func(b *testing.B) {
				m, err := shard.NewOrdered("P-ART", keys.RandInt,
					shard.Options{Heap: pmem.Options{DelayClwb: 40, DelayFence: 20}})
				if err != nil {
					b.Fatal(err)
				}
				defer m.Release()
				res, err := harness.Run("P-ART", harness.ShardedOrdered(m, keys.RandInt),
					harness.WritePath{Mode: harness.Batched, Batch: batch}, w, benchLoadN, b.N, benchThreads, 42, true)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.MopsPerSec(), "Mops/s")
				if res.Ops > 0 {
					b.ReportMetric(float64(res.Stats.Fence)/float64(res.Ops), "fence/op")
				}
			})
		}
	}
	for _, batch := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("P-CLHT/A/batch=%d", batch), func(b *testing.B) {
			m, err := shard.NewHash("P-CLHT",
				shard.Options{Heap: pmem.Options{DelayClwb: 40, DelayFence: 20}})
			if err != nil {
				b.Fatal(err)
			}
			defer m.Release()
			res, err := harness.Run("P-CLHT", harness.ShardedHash(m),
				harness.WritePath{Mode: harness.Batched, Batch: batch}, ycsb.A, benchLoadN, b.N, benchThreads, 42, true)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.MopsPerSec(), "Mops/s")
			if res.Ops > 0 {
				b.ReportMetric(float64(res.Stats.Fence)/float64(res.Ops), "fence/op")
			}
		})
	}
}

// BenchmarkAsyncPipeline compares the synchronous group-commit write
// path against the async commit pipeline on the write-heavy workloads
// A (50/50 insert/read) and F (50/50 read/RMW), on one ordered and one
// hash index, across per-shard queue depths. The sync baseline batches
// writes with the same group size the async committer drains
// (MaxBatch), so the comparison isolates the pipeline itself: enqueue
// + ack-after-fence futures versus combine-and-wait. Alongside Mops/s
// and fence/op the async cells report the mean enqueue-to-ack latency
// (ack-ns) — the price of decoupling the writer from the fence. Crash
// consistency of the async path is proven by the crash-site campaign
// on the async path under all four restart images (internal/harness
// TestLossyMatrix/async).
func BenchmarkAsyncPipeline(b *testing.B) {
	const maxBatch = 16
	heapOpts := pmem.Options{DelayClwb: 40, DelayFence: 20}
	report := func(b *testing.B, res harness.Result) {
		b.ReportMetric(res.MopsPerSec(), "Mops/s")
		if res.Ops > 0 {
			b.ReportMetric(float64(res.Stats.Fence)/float64(res.Ops), "fence/op")
		}
		if res.AckOps > 0 {
			b.ReportMetric(float64(res.MeanAckLatency().Nanoseconds()), "ack-ns")
		}
	}
	for _, w := range []ycsb.Workload{ycsb.A, ycsb.F} {
		b.Run(fmt.Sprintf("P-ART/%s/sync/batch=%d", w.Name, maxBatch), func(b *testing.B) {
			m, err := shard.NewOrdered("P-ART", keys.RandInt, shard.Options{Heap: heapOpts})
			if err != nil {
				b.Fatal(err)
			}
			defer m.Release()
			res, err := harness.Run("P-ART", harness.ShardedOrdered(m, keys.RandInt),
				harness.WritePath{Mode: harness.Batched, Batch: maxBatch}, w, benchLoadN, b.N, benchThreads, 42, true)
			if err != nil {
				b.Fatal(err)
			}
			report(b, res)
		})
		for _, queue := range []int{64, 1024} {
			b.Run(fmt.Sprintf("P-ART/%s/async/queue=%d", w.Name, queue), func(b *testing.B) {
				m, err := shard.NewOrdered("P-ART", keys.RandInt, shard.Options{Heap: heapOpts})
				if err != nil {
					b.Fatal(err)
				}
				defer m.Release()
				res, err := harness.Run("P-ART", harness.ShardedOrdered(m, keys.RandInt),
					harness.WritePath{Mode: harness.Async, Batch: maxBatch, Queue: queue}, w, benchLoadN, b.N, benchThreads, 42, true)
				if err != nil {
					b.Fatal(err)
				}
				report(b, res)
			})
		}
	}
	for _, w := range []ycsb.Workload{ycsb.A, ycsb.F} {
		b.Run(fmt.Sprintf("P-CLHT/%s/sync/batch=%d", w.Name, maxBatch), func(b *testing.B) {
			m, err := shard.NewHash("P-CLHT", shard.Options{Heap: heapOpts})
			if err != nil {
				b.Fatal(err)
			}
			defer m.Release()
			res, err := harness.Run("P-CLHT", harness.ShardedHash(m),
				harness.WritePath{Mode: harness.Batched, Batch: maxBatch}, w, benchLoadN, b.N, benchThreads, 42, true)
			if err != nil {
				b.Fatal(err)
			}
			report(b, res)
		})
		for _, queue := range []int{64, 1024} {
			b.Run(fmt.Sprintf("P-CLHT/%s/async/queue=%d", w.Name, queue), func(b *testing.B) {
				m, err := shard.NewHash("P-CLHT", shard.Options{Heap: heapOpts})
				if err != nil {
					b.Fatal(err)
				}
				defer m.Release()
				res, err := harness.Run("P-CLHT", harness.ShardedHash(m),
					harness.WritePath{Mode: harness.Async, Batch: maxBatch, Queue: queue}, w, benchLoadN, b.N, benchThreads, 42, true)
				if err != nil {
					b.Fatal(err)
				}
				report(b, res)
			})
		}
	}
}

// BenchmarkSec73_WOART: P-ART vs globally locked WOART (§7.3).
func BenchmarkSec73_WOART(b *testing.B) {
	for _, name := range []string{"P-ART", "WOART"} {
		for _, w := range []ycsb.Workload{ycsb.LoadA, ycsb.C} {
			b.Run(fmt.Sprintf("%s/%s", name, w.Name), func(b *testing.B) {
				runWorkloadBench(b, name, w, keys.RandInt, true)
			})
		}
	}
}

// BenchmarkAblation_FlushBatching compares the per-store flush+fence
// pattern against batched flushing before a single commit fence — the
// Condition #1 reordering optimisation (§4.3, §8).
func BenchmarkAblation_FlushBatching(b *testing.B) {
	for _, mode := range []string{"per-store", "batched"} {
		b.Run(mode, func(b *testing.B) {
			heap := pmem.New(pmem.Options{DelayClwb: 40, DelayFence: 20})
			obj := heap.Alloc(256)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode == "per-store" {
					for off := uintptr(0); off < 256; off += 64 {
						heap.PersistFence(obj, off, 64)
					}
				} else {
					heap.Persist(obj, 0, 256)
					heap.Fence()
				}
			}
		})
	}
}

// BenchmarkAblation_CLHTRehash isolates the globally locked rehash the
// paper blames for P-CLHT's Load A deficit (§7.2): inserts into a
// pre-sized table never rehash; inserts into a tiny table rehash
// repeatedly.
func BenchmarkAblation_CLHTRehash(b *testing.B) {
	for _, mode := range []string{"presized", "growing"} {
		b.Run(mode, func(b *testing.B) {
			heap := pmem.New(pmem.Options{DelayClwb: 40, DelayFence: 20})
			n := 4
			if mode == "presized" {
				n = 1 << 20
			}
			idx := clht.NewWithBuckets(heap, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := idx.Insert(uint64(i)+1, uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_ARTCrashRepair measures the cost of the Condition #3
// write-path repair: inserts into a tree whose last split was crash-torn
// (the first write pays the try-lock detection plus prefix fix) versus a
// clean tree.
func BenchmarkAblation_ARTCrashRepair(b *testing.B) {
	for _, mode := range []string{"clean", "torn"} {
		b.Run(mode, func(b *testing.B) {
			gen := keys.NewGenerator(keys.YCSBString)
			b.StopTimer()
			for i := 0; i < b.N; i++ {
				heap := pmem.NewFast()
				idx, err := recipe.NewOrdered("P-ART", heap, keys.YCSBString)
				if err != nil {
					b.Fatal(err)
				}
				for j := uint64(0); j < 64; j++ {
					if err := idx.Insert(gen.Key(j), j); err != nil {
						b.Fatal(err)
					}
				}
				if mode == "torn" {
					heap.SetInjector(crash.NewAtSite("art.split.installed", 1))
					for j := uint64(64); j < 4096; j++ {
						if err := idx.Insert(gen.Key(j), j); err != nil {
							break // simulated crash fired
						}
					}
					heap.SetInjector(nil)
					if err := idx.Recover(); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				if err := idx.Insert(gen.Key(1_000_000+uint64(i)), 1); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
			}
		})
	}
}

// BenchmarkRecover times one restart of each index holding 2^16 and 2^20
// random integer keys. Recover begins a new lock generation (CCEH's
// Faithful depth check aside), so both sizes should read the same. Each
// cell loads its index once, on its first call, outside the timer.
func BenchmarkRecover(b *testing.B) {
	gen := keys.NewGenerator(keys.RandInt)
	for _, name := range append(append(append([]string(nil), core.OrderedNames...), "WOART"), core.HashNames...) {
		for _, n := range []uint64{1 << 16, 1 << 20} {
			var idx interface{ Recover() error }
			b.Run(fmt.Sprintf("%s/keys=%d", name, n), func(b *testing.B) {
				if idx == nil {
					idx = loadForRecover(b, name, n, gen)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := idx.Recover(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// loadForRecover builds the named index on a fast heap holding n keys.
func loadForRecover(b *testing.B, name string, n uint64, gen *keys.Generator) interface{ Recover() error } {
	heap := pmem.NewFast()
	if idx, err := recipe.NewOrdered(name, heap, keys.RandInt); err == nil {
		for i := uint64(0); i < n; i++ {
			if err := idx.Insert(gen.Key(i), i); err != nil {
				b.Fatal(err)
			}
		}
		return idx
	}
	idx, err := recipe.NewHash(name, heap)
	if err != nil {
		b.Fatal(err)
	}
	for i := uint64(0); i < n; i++ {
		if err := idx.Insert(gen.Uint64(i), i); err != nil {
			b.Fatal(err)
		}
	}
	return idx
}

// BenchmarkReshardSkew is the resharding headline: P-ART behind the
// sharded front-end, H=8, zipfian θ=0.99 lookups — the regime where a
// static hash partition leaves one shard absorbing several times its
// fair share of traffic. Both cells warm the slot-load counters with
// the same skewed prelude; the resharded cell then runs the
// load-aware rebalancer (split/migrate hot slots under the live
// routing table) before the measured phase. Each cell reports the
// measured epoch's max/mean per-shard op share — the static cell
// shows the skew, the resharded cell shows what the slot moves
// recover. The ≥2× excess-imbalance reduction itself is asserted by
// shard.TestRebalanceImprovesSkew; this benchmark prices it.
func BenchmarkReshardSkew(b *testing.B) {
	const (
		loadN = 4_096
		h     = 8
		warmN = 120_000
	)
	run := func(b *testing.B, reshard bool) {
		m, err := shard.NewOrdered("P-ART", keys.RandInt, shard.Options{Shards: h})
		if err != nil {
			b.Fatal(err)
		}
		defer m.Release()
		gen := keys.NewGenerator(keys.RandInt)
		for id := uint64(0); id < loadN; id++ {
			if err := m.Insert(gen.Key(id), id); err != nil {
				b.Fatal(err)
			}
		}
		sampler := ycsb.Zipfian{Theta: 0.99}.NewSampler(loadN, rand.New(rand.NewSource(42)))
		for i := 0; i < warmN; i++ {
			m.Lookup(gen.Key(sampler.Next()))
		}
		if reshard {
			rep, err := m.Rebalance(shard.RebalanceOptions{Tolerance: 1.05})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(rep.Before, "imbalance-warm")
			b.ReportMetric(float64(len(rep.Moves)), "moves")
		}
		m.LoadReport() // close the warm epoch; measure only b.N ops
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Lookup(gen.Key(sampler.Next()))
		}
		b.StopTimer()
		b.ReportMetric(m.LoadReport().Imbalance(), "max/mean-opshare")
	}
	b.Run("P-ART/zipf-0.99/shards=8/static", func(b *testing.B) { run(b, false) })
	b.Run("P-ART/zipf-0.99/shards=8/resharded", func(b *testing.B) { run(b, true) })
}
