// The campaigns: four ways of choosing where the trial of trial.go
// crashes. SiteCampaign crashes once at every crash site a load passes
// through, CrashCampaign at §7.5's probabilistic crash states,
// ReshardCampaign at every crash site of a live migration, and
// Durability — the §5 durability test — nowhere.
package harness

import (
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/crash"
	"repro/internal/group"
	"repro/internal/keys"
	"repro/internal/pmem"
	"repro/shard"
)

// campaign fans n trials out over `workers` goroutines (< 1 selects
// GOMAXPROCS) and collects them in order; at names trial i and returns
// the crash it arms and the shard whose heap hosts it (taken mod the
// target's width, so 0 on one shard).
func (p protocol) campaign(name string, seed int64, n, workers int, at func(i int) (string, *crash.Injector, int)) CampaignReport {
	rep := CampaignReport{Index: name, Policy: p.policy, Seed: seed, PostOps: p.postN, Sites: make([]SiteReport, n)}
	forEachTrial(n, workers, func(i int) {
		site, inj, host := at(i)
		rep.Sites[i] = p.trial(site, inj, host, siteSeed(seed, site))
	})
	return rep
}

// siteSeed combines the campaign seed with the trial's name so each
// trial gets independent, reproducible torn coin flips.
func siteSeed(seed int64, site string) int64 {
	h := fnv.New64a()
	h.Write([]byte(site))
	return seed ^ int64(h.Sum64())
}

// discoverSites runs one untracked load with a never-firing injector
// (probability zero, which still records site visits) and returns every
// crash site it passed through, sorted by name: the index's own sites,
// plus the group.* boundary sites on the queued paths and the commit.*
// drain-loop sites on the Async path.
func discoverSites(build Build, path WritePath, loadN int) []string {
	inj := crash.NewProbabilistic(0, 1)
	t := build(pmem.Options{Injector: inj})
	defer t.release()
	_ = load(t, path, 0, loadN, false, hooks{}, nil) // a failing load still visited its sites
	m := inj.Sites()
	sites := make([]string, 0, len(m))
	for s := range m {
		sites = append(sites, s)
	}
	sort.Strings(sites)
	return sites
}

// SiteCampaign runs the per-crash-site campaign: discover every crash
// site a loadN-insert load through path passes through, then — one
// trial per site, fanned out over `workers` goroutines (< 1 selects
// GOMAXPROCS) — crash at the site's first visit, restart from the
// policy's image and run the trial's checks with postN post-crash
// inserts on one writer.
func SiteCampaign(name string, build Build, path WritePath, policy pmem.Policy, seed int64, loadN, postN, workers int) CampaignReport {
	sites := discoverSites(build, path, loadN)
	p := protocol{build: build, path: path, policy: policy, loadN: loadN, postN: postN, writers: 1}
	return p.campaign(name, seed, len(sites), workers, func(i int) (string, *crash.Injector, int) {
		return sites[i], crash.NewAtSite(sites[i], 1), 0
	})
}

// CrashCampaign reproduces §7.5 for one index: states trials, state s
// crashing where crash.NewProbabilistic(0.002, s+1) fires during a
// loadN-insert load, restarting from the intact image and running the
// post phase of postN inserts on `threads` concurrent workers, all
// through the per-op path. On a Sharded target state s crashes shard
// s mod H, and only that shard may be replayed.
func CrashCampaign(name string, build Build, states, loadN, postN, threads int) CampaignReport {
	p := protocol{build: build, policy: pmem.PolicyIntact, loadN: loadN, postN: postN, writers: max(threads, 1)}
	return p.campaign(name, 0, states, 0, func(s int) (string, *crash.Injector, int) {
		return fmt.Sprintf("state %d", s), crash.NewProbabilistic(0.002, int64(s)+1), s
	})
}

// Durability is the §5 durability test: one trial with no crash armed,
// through the per-op path on one writer. Index creation, each of n
// inserts and the in-place rewrite of each must leave every dirtied
// line written back and fenced by the time it returns, and everything
// must read back; the row also counts the run's persistence waste.
func Durability(name string, build Build, n int) CampaignReport {
	p := protocol{build: build, policy: pmem.PolicyIntact, postN: n, writers: 1}
	return p.campaign(name, 0, 1, 1, func(int) (string, *crash.Injector, int) { return "construction", nil, 0 })
}

// reshardSites are the migration's crash sites: the group-commit sites
// its copy batches pass through and reshard.copy.applied, all on the
// recipient's heap, and reshard.flip.published on the donor's.
var reshardSites = []string{group.SiteOpApplied, group.SiteCommitFenced, shard.SiteCopyApplied, shard.SiteFlipPublished}

// ReshardCampaign crashes a live migration: for the named index's
// sharded front-end, shards wide (an ordered index range-partitioned
// when ranged), one trial per reshard site, crashing the migration at
// the site's first visit while `writers` writers load through its
// handoff window. Only the crashed shard restarts, from the policy's
// image (torn coin flips from seed); the trial's checks then hold every
// acknowledged write to the surviving routing table, the merged scan to
// no duplicate, and a healthy shard to no replay, and the aborted
// migration runs again to completion after the post phase of postN
// inserts. More than one writer needs PolicyIntact, whose heaps capture
// no shadow images: shadow capture assumes one writer per heap at a
// time. Trials fan out over `workers` goroutines.
func ReshardCampaign(name string, ranged bool, policy pmem.Policy, seed int64, shards, loadN, postN, writers, workers int) CampaignReport {
	var part shard.Partitioner
	if ranged {
		part = shard.RangePartition{}
	}
	build := func(o pmem.Options) *Target {
		t, m := sharded(name, keys.RandInt, shards, part, o)
		t.migrate = migration(m)
		return t
	}
	p := protocol{build: build, policy: policy, loadN: loadN, postN: postN, writers: max(writers, 1)}
	return p.campaign(name, seed, len(reshardSites), workers, func(i int) (string, *crash.Injector, int) {
		host := recipientShard
		if reshardSites[i] == shard.SiteFlipPublished {
			host = donorShard
		}
		return reshardSites[i], crash.NewAtSite(reshardSites[i], 1), host
	})
}
