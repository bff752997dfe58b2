// The campaigns: three ways of choosing where the trial of trial.go
// crashes. SiteCampaign crashes once at every crash site a load passes
// through, CrashCampaign at §7.5's probabilistic crash states, and
// Durability — the §5 durability test — nowhere.
package harness

import (
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/crash"
	"repro/internal/pmem"
)

// campaign fans n trials out over `workers` goroutines (< 1 selects
// GOMAXPROCS) and collects them in order; at names trial i and returns
// the crash it arms.
func (p protocol) campaign(name string, seed int64, n, workers int, at func(i int) (string, *crash.Injector)) CampaignReport {
	rep := CampaignReport{Index: name, Policy: p.policy, Seed: seed, PostOps: p.postN, Sites: make([]SiteReport, n)}
	forEachTrial(n, workers, func(i int) {
		site, inj := at(i)
		rep.Sites[i] = p.trial(site, inj, i, siteSeed(seed, site))
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
	_ = load(t, path, 0, loadN, false, hooks{}) // a failing load still visited its sites
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
	return p.campaign(name, seed, len(sites), workers, func(i int) (string, *crash.Injector) {
		return sites[i], crash.NewAtSite(sites[i], 1)
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
	return p.campaign(name, 0, states, 0, func(s int) (string, *crash.Injector) {
		return fmt.Sprintf("state %d", s), crash.NewProbabilistic(0.002, int64(s)+1)
	})
}

// Durability is the §5 durability test: one trial with no crash armed,
// through the per-op path on one writer. Index creation, each of n
// inserts and the in-place rewrite of each must leave every dirtied
// line written back and fenced by the time it returns, and everything
// must read back; the row also counts the run's persistence waste.
func Durability(name string, build Build, n int) CampaignReport {
	p := protocol{build: build, policy: pmem.PolicyIntact, postN: n, writers: 1}
	return p.campaign(name, 0, 1, 1, func(int) (string, *crash.Injector) { return "construction", nil })
}
