// The §7.5 crash-recovery campaign (probabilistic crash states, a
// concurrent mixed phase after recovery, full readback) on one heap and
// on the sharded front-end, and the §5 durability test of the clean
// write path. All three drive the index synchronously: they test the
// conversions themselves, not a write path.
package harness

import (
	"fmt"
	"sync"

	"repro/internal/crash"
	"repro/internal/keys"
	"repro/internal/pmem"
	"repro/shard"
)

// CrashReport summarises a §7.5 crash-recovery campaign.
type CrashReport struct {
	Index string
	// States is the number of distinct crash states exercised.
	States int
	// Crashed counts states where a crash actually fired during load.
	Crashed int
	// LostKeys counts committed keys unreadable after recovery.
	LostKeys int
	// WriteFailures counts post-crash writes that failed.
	WriteFailures int
	// RecoveryFailures counts recovery calls that returned an error (the
	// CCEH Faithful-mode recovery stall surfaces here).
	RecoveryFailures int
}

// Pass reports whether the campaign found no crash-consistency failures.
func (r CrashReport) Pass() bool {
	return r.LostKeys == 0 && r.WriteFailures == 0 && r.RecoveryFailures == 0
}

func (r CrashReport) String() string {
	return fmt.Sprintf("%-12s states=%d crashed=%d lost=%d writeFail=%d recoveryFail=%d  %s",
		r.Index, r.States, r.Crashed, r.LostKeys, r.WriteFailures, r.RecoveryFailures, verdict(r.Pass()))
}

// state runs crash state s against t, whose injector the caller armed:
// load identifiers [0, loadN) until the crash fires, restart (disarm
// and recover), run a mixed insert/read phase with `threads` concurrent
// threads, and finally read back every committed key.
func (r *CrashReport) state(s int, t *Target, restart func() error, loadN, mixedN, threads int) {
	main := t.session()
	committed := make([]uint64, 0, loadN+mixedN/2)
	for id := uint64(0); id < uint64(loadN); id++ {
		err := main.write(id, id, false)
		if crash.IsCrash(err) {
			r.Crashed++
			break
		}
		if err != nil {
			r.WriteFailures++
			break
		}
		committed = append(committed, id)
	}
	if err := restart(); err != nil {
		r.RecoveryFailures++
		return
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	for th := 0; th < threads; th++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := t.session()
			base := uint64(1_000_000 + s*100_000 + th*10_000)
			for i := 0; i < mixedN/threads; i++ {
				id := base + uint64(i)
				if i%2 == 1 {
					w.lookup(id - 1)
					continue
				}
				err := w.write(id, id, false)
				mu.Lock()
				if err != nil {
					r.WriteFailures++
				} else {
					committed = append(committed, id)
				}
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, id := range committed {
		if got, ok := main.lookup(id); !ok || got != id {
			r.LostKeys++
		}
	}
}

// CrashCampaign reproduces §7.5 for one index: for each of states
// trials, load loadN entries with a probabilistic crash armed, recover,
// run a mixed insert/read phase with `threads` concurrent threads, and
// finally read back every committed key.
func CrashCampaign(name string, build Build, states, loadN, mixedN, threads int) CrashReport {
	rep := CrashReport{Index: name}
	for s := 0; s < states; s++ {
		rep.States++
		heap := pmem.NewFast()
		t := build(heap)
		heap.SetInjector(crash.NewProbabilistic(0.002, int64(s)+1))
		rep.state(s, t, func() error {
			heap.SetInjector(nil)
			return t.recover()
		}, loadN, mixedN, threads)
		// The state's heap and index are dead.
		heap.Release()
	}
	return rep
}

// ShardCrashReport summarises a per-shard crash-recovery campaign.
type ShardCrashReport struct {
	CrashReport
	// Shards is the partition count H of the sharded front-end.
	Shards int
	// ExtraReplays counts recovery replays of shards that did not crash
	// — any non-zero value breaks the per-shard recovery invariant.
	ExtraReplays int
}

// Pass reports whether the campaign found no crash-consistency failures
// and never replayed a shard that did not crash.
func (r ShardCrashReport) Pass() bool {
	return r.CrashReport.Pass() && r.ExtraReplays == 0
}

func (r ShardCrashReport) String() string {
	return fmt.Sprintf("%-12s shards=%d states=%d crashed=%d lost=%d writeFail=%d recoveryFail=%d extraReplays=%d  %s",
		r.Index, r.Shards, r.States, r.Crashed, r.LostKeys, r.WriteFailures, r.RecoveryFailures, r.ExtraReplays, verdict(r.Pass()))
}

// CrashCampaignSharded runs the same methodology against the sharded
// ordered front-end with the per-shard recovery discipline: for each
// trial a crash is armed in one shard (rotating over shards), load
// proceeds until it fires, and recovery replays only the shards whose
// injector fired — the campaign counts any replay of a healthy shard as
// an ExtraReplays violation.
func CrashCampaignSharded(name string, kind keys.Kind, shards, states, loadN, mixedN, threads int) ShardCrashReport {
	shards = max(shards, 1) // match shard.Options, which clamps Shards < 1 to 1
	rep := ShardCrashReport{CrashReport: CrashReport{Index: name}, Shards: shards}
	for s := 0; s < states; s++ {
		rep.States++
		m, err := shard.NewOrdered(name, kind, shard.Options{Shards: shards})
		if err != nil {
			rep.RecoveryFailures++
			continue
		}
		target := s % shards
		m.Heap(target).SetInjector(crash.NewProbabilistic(0.002, int64(s)+1))
		rep.state(s, ShardedOrdered(m, kind), func() error {
			// RecoverCrashed keys on the fired injector and clears it; only
			// disarm by hand when no crash fired this trial.
			if !m.Heap(target).Injector().Fired() {
				m.Heap(target).SetInjector(nil)
			}
			if _, err := m.RecoverCrashed(); err != nil {
				return err
			}
			// Per-shard replay counts catch any replay path; only the armed
			// shard may have been replayed.
			for i, n := range m.Recoveries() {
				if i != target {
					rep.ExtraReplays += int(n)
				}
			}
			return nil
		}, loadN, mixedN, threads)
		m.Release()
	}
	return rep
}

// DurabilityReport summarises a §5 durability test.
type DurabilityReport struct {
	Index string
	// ConstructorViolations are lines left unpersisted by index creation
	// (the FAST & FAIR / CCEH finding of §7.5).
	ConstructorViolations int
	// OpViolations are lines left unpersisted at operation boundaries.
	OpViolations int
	// Ops is the number of ids inserted and then updated.
	Ops int
	// DryFences and CleanWriteBacks are the run's persistence waste, as
	// pmem.Tracker counts it: fences that ordered no write-back, and
	// write-backs of lines that were not dirty. Waste is a cost, not a
	// durability failure, so Pass ignores both.
	DryFences, CleanWriteBacks uint64
}

// Pass reports full flush coverage.
func (r DurabilityReport) Pass() bool {
	return r.ConstructorViolations == 0 && r.OpViolations == 0
}

func (r DurabilityReport) String() string {
	return fmt.Sprintf("%-12s ops=%d ctorViolations=%d opViolations=%d dryFence=%d cleanWB=%d  %s",
		r.Index, r.Ops, r.ConstructorViolations, r.OpViolations, r.DryFences, r.CleanWriteBacks, verdict(r.Pass()))
}

// Durability checks that index creation, each of n inserts and then an
// update of each inserted id leave every dirtied cache line flushed and
// fenced by the time they return (§5, "testing durability"), and counts
// the persistence waste of the whole run.
func Durability(name string, build Build, n int) DurabilityReport {
	heap := pmem.New(pmem.Options{Track: true})
	defer heap.Release()
	s := build(heap).session()
	rep := DurabilityReport{Index: name, Ops: n, ConstructorViolations: violations(heap)}
	for _, update := range []bool{false, true} {
		for id := uint64(0); id < uint64(n); id++ {
			if err := s.write(id, id+1, update); err != nil {
				rep.OpViolations++
				continue
			}
			rep.OpViolations += violations(heap)
		}
	}
	rep.DryFences, rep.CleanWriteBacks = heap.Tracker().DryFences(), heap.Tracker().CleanWriteBacks()
	return rep
}
