// Package crash implements the crash-simulation methodology of RECIPE §5.
//
// The paper observes that insert and structure-modification operations in
// non-blocking indexes consist of a small number of ordered atomic steps,
// so it suffices to simulate a crash after each atomic store rather than
// at every instruction. A simulated crash "returns from an insert or
// structure-modification operation mid-way without cleaning up any state,
// leaving the index in a partially modified state".
//
// Indexes mark each such boundary with a call to Injector.Here(site). When
// the injector decides to crash there, Here panics with a Signal; the
// index's public operation recovers the Signal at its entry point and
// returns ErrCrashed without performing any cleanup, leaving locks held
// and intermediate state visible — exactly the post-crash persistent
// image, because every crash site is placed immediately after the
// preceding stores were persisted.
package crash

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
)

// ErrCrashed is returned by an index operation that was interrupted by a
// simulated crash.
var ErrCrashed = errors.New("crash: simulated crash")

// Signal is the panic value used to unwind out of an operation at a crash
// site. Index entry points recover it and convert it to ErrCrashed.
type Signal struct {
	// Site identifies the crash point that fired.
	Site string
}

// Mode selects how an Injector chooses crash points.
type Mode int

const (
	// Off disables crash injection entirely.
	Off Mode = iota
	// Probabilistic crashes at each site independently with probability P.
	Probabilistic
	// Nth crashes at the N-th site visit (1-based) counted across all
	// sites, enabling systematic enumeration of crash states.
	Nth
	// AtSite crashes at the K-th visit of one named site.
	AtSite
)

// Injector decides, at each crash site an index passes through, whether to
// simulate a crash there. The zero value never crashes. An Injector is
// safe for concurrent use.
type Injector struct {
	mode Mode

	// P is the per-site crash probability in Probabilistic mode.
	P float64

	// N is the target visit count in Nth mode.
	N int64

	// Site and K select the target in AtSite mode.
	Site string
	K    int64

	visits    atomic.Int64
	siteVisit atomic.Int64
	fired     atomic.Bool

	mu  sync.Mutex
	rng *rand.Rand

	// sitesSeen records every distinct site observed, for coverage
	// reporting in the crash-test harness.
	sites sync.Map // site string -> *atomic.Int64
}

// NewProbabilistic returns an injector that crashes at each site with
// probability p. It fires at most once (one crash per simulated run).
func NewProbabilistic(p float64, seed int64) *Injector {
	return &Injector{mode: Probabilistic, P: p, rng: rand.New(rand.NewSource(seed))}
}

// NewNth returns an injector that crashes at the n-th site visit.
func NewNth(n int64) *Injector {
	return &Injector{mode: Nth, N: n}
}

// NewAtSite returns an injector that crashes at the k-th visit of site.
func NewAtSite(site string, k int64) *Injector {
	return &Injector{mode: AtSite, Site: site, K: k}
}

// Here marks a crash site. If the injector decides to crash it panics with
// a Signal carrying the site name; otherwise it returns normally. A nil
// injector never crashes.
func (in *Injector) Here(site string) {
	if in == nil || in.mode == Off {
		return
	}
	if c, ok := in.sites.Load(site); ok {
		c.(*atomic.Int64).Add(1)
	} else {
		c := new(atomic.Int64)
		c.Add(1)
		in.sites.Store(site, c)
	}
	if in.fired.Load() {
		return
	}
	switch in.mode {
	case Probabilistic:
		in.mu.Lock()
		hit := in.rng.Float64() < in.P
		in.mu.Unlock()
		if hit && in.arm() {
			panic(Signal{Site: site})
		}
	case Nth:
		if in.visits.Add(1) == in.N && in.arm() {
			panic(Signal{Site: site})
		}
	case AtSite:
		if site != in.Site {
			return
		}
		if in.siteVisit.Add(1) == in.K && in.arm() {
			panic(Signal{Site: site})
		}
	}
}

// arm claims the injector's one crash: every injector fires at most once.
func (in *Injector) arm() bool { return in.fired.CompareAndSwap(false, true) }

// Fired reports whether the injector has crashed an operation.
func (in *Injector) Fired() bool { return in != nil && in.fired.Load() }

// Rearm resets the one-shot trigger and the visit counters so the
// injector can fire again in a new run phase — a multi-cycle campaign
// power-cycles, recovers, and then crashes the recovered index a second
// time. Without Rearm a fired one-shot injector silently never crashes
// again, which reads as "no crash site reached" instead of "injector
// spent". Site coverage counts are preserved across Rearm: a site
// visited before the cycle stays counted. Rearm must not be called
// concurrently with index operations.
func (in *Injector) Rearm() {
	if in == nil {
		return
	}
	in.visits.Store(0)
	in.siteVisit.Store(0)
	in.fired.Store(false)
}

// Visits returns the total number of site visits observed (Nth mode).
func (in *Injector) Visits() int64 { return in.visits.Load() }

// Sites returns the distinct crash sites observed and their visit counts.
func (in *Injector) Sites() map[string]int64 {
	out := make(map[string]int64)
	in.sites.Range(func(k, v any) bool {
		out[k.(string)] = v.(*atomic.Int64).Load()
		return true
	})
	return out
}

// Recover converts a recovered panic value into ErrCrashed when it is a
// crash Signal, and re-panics otherwise.
func Recover(r any) error {
	if _, ok := r.(Signal); ok {
		return ErrCrashed
	}
	panic(r)
}

// Catch, deferred at an index entry point (defer crash.Catch(&err)),
// turns a crash Signal unwinding the operation into ErrCrashed in *err.
func Catch(err *error) {
	if r := recover(); r != nil {
		*err = Recover(r)
	}
}

// IsCrash reports whether err is the simulated-crash error.
func IsCrash(err error) bool { return errors.Is(err, ErrCrashed) }
