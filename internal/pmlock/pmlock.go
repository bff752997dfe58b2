// Package pmlock provides CAS-based spinlocks for simulated
// persistent-memory indexes.
//
// RECIPE (§4.2) assumes that locks embedded in persistent nodes are
// non-persistent and re-initialised when an index restarts after a crash
// (§6, "Lock initialization"). Here a restart does that in O(1): each
// index owns a volatile restart generation, Gen, every lock word carries
// the generation it was last taken in, and a word from an older
// generation reads as free — whatever a crash or a restored power-loss
// image left in it. The 32-bit word is a 30-bit generation, an obsolete
// bit (ART's retired-node mark, set by the holder and read under the
// lock) and a held bit. Taking a stale word clears its obsolete bit: a
// node reachable after a restart is live. The generation wraps after
// 2^30 restarts of one index.
package pmlock

import (
	"runtime"
	"sync/atomic"
)

const (
	held     = 1 << 0
	obsolete = 1 << 1
	flags    = held | obsolete
)

// Gen is an index's restart generation; the zero Mutex is free in the
// zero Gen. It must live in the volatile index object, never in state a
// power cycle restores.
type Gen struct {
	v atomic.Uint32
}

// Restart begins a new generation, in which every lock taken in an
// earlier one is free and live. It is only safe while no operation is
// inside the index, i.e. during post-crash recovery.
func (g *Gen) Restart() { g.v.Add(1) }

// stamp is the free, live word of the current generation.
func (g *Gen) stamp() uint32 { return g.v.Load() << 2 }

// Mutex is a CAS spinlock whose word is stamped with its owner's Gen. The
// zero value is unlocked. Every call on one Mutex must pass the same Gen.
type Mutex struct {
	v atomic.Uint32
}

// Lock acquires the lock, spinning until it is available.
func (m *Mutex) Lock(g *Gen) {
	if cur := g.stamp(); !m.v.CompareAndSwap(cur, cur|held) {
		// The generation is re-read: a waiter takes a word a restart freed.
		for i := 0; !m.acquire(g.stamp()); i++ {
			if i%64 == 63 {
				runtime.Gosched()
			}
		}
	}
}

// acquire makes one attempt on a word the fast path could not take: a
// stale word is taken free and live, a free one of this generation with
// its obsolete mark kept.
func (m *Mutex) acquire(cur uint32) bool {
	w := m.v.Load()
	switch {
	case w&^flags != cur:
		return m.v.CompareAndSwap(w, cur|held)
	case w&held == 0:
		return m.v.CompareAndSwap(w, w|held)
	}
	return false
}

// TryLock attempts to acquire the lock without blocking and reports
// whether it succeeded. RECIPE's Condition #3 crash detection is built on
// try-lock: if a writer observes an inconsistency and then successfully
// acquires the lock, no concurrent writer can be mid-update, so the
// inconsistency must be permanent (left by a crash).
func (m *Mutex) TryLock(g *Gen) bool {
	cur := g.stamp()
	return m.v.CompareAndSwap(cur, cur|held) || m.acquire(cur)
}

// Unlock releases the lock. It must only be called by the holder, whose
// word has the held bit, bit 0, set: subtracting one clears it in one
// atomic add.
func (m *Mutex) Unlock() { m.v.Add(^uint32(0)) }

// MarkObsolete marks the lock's node retired. Only the holder calls it.
func (m *Mutex) MarkObsolete() { m.v.Store(m.v.Load() | obsolete) }

// Obsolete reports whether the node was retired. Read it under the lock,
// whose acquisition cleared a mark from an older generation.
func (m *Mutex) Obsolete() bool { return m.v.Load()&obsolete != 0 }
