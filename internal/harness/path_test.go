package harness

import (
	"testing"

	"repro/internal/crash"
	"repro/internal/keys"
	"repro/internal/pmem"
)

// TestWriterContract holds each write path to the seam's own contract
// on a Track-mode heap, for an ordered and an unordered index:
//
//   - settle returning nil means every accepted write was acknowledged
//     after its covering fence: resolved(id, nil) fired for each, and
//     the tracker holds no dirty or unfenced line;
//   - after a settle the worker has no unacknowledged inserts of its
//     own, whatever it returned;
//   - a write failed by an injected crash is reported unacknowledged —
//     never acknowledged — and a fresh generation works after recovery;
//   - on the Async path the dead committer quarantines its shard until
//     the restart.
func TestWriterContract(t *testing.T) {
	for _, p := range paths {
		for _, name := range []string{"P-ART", "P-CLHT"} {
			t.Run(p.name+"/"+name, func(t *testing.T) {
				target, front := sharded(name, keys.RandInt, 1, nil, pmem.Options{Track: true})
				defer target.release()
				heap := target.heaps[0]
				heap.Tracker().Reset()

				acked := map[uint64]bool{}
				var failed []uint64
				h := hooks{resolved: func(id uint64, err error) {
					if err != nil {
						failed = append(failed, id)
					} else if acked[id] {
						t.Errorf("id %d resolved twice", id)
					} else {
						acked[id] = true
					}
				}}
				// write drives ids [lo, lo+n) through one generation, settling
				// it every `every` writes, and returns the last settle's error.
				write := func(lo, n, every int) error {
					g := p.path.open(target, h, true)
					defer func() { g.end() }()
					w := g.writer(target.session())
					var err error
					for i := 0; i < n; i++ {
						id := uint64(lo + i)
						if werr := w.write(id, id, false); werr != nil {
							return werr
						}
						if p.path.Mode != Sync && !w.ownInserts() {
							t.Fatalf("write %d queued an insert but ownInserts is false", id)
						}
						if (i+1)%every == 0 || i == n-1 {
							err = w.settle()
							if w.ownInserts() {
								t.Fatalf("ownInserts still true after settle at id %d", id)
							}
							if err == nil {
								if v := heap.Tracker().Check(); len(v) != 0 {
									t.Fatalf("settle returned nil at id %d with %d unflushed lines", id, len(v))
								}
							}
							if p.path.Mode == Async && i != n-1 {
								// A trial's async writer ends its generation at settle.
								g.end()
								g = p.path.open(target, h, true)
								w = g.writer(target.session())
							}
						}
					}
					return err
				}

				// Clean traffic, settled mid-batch, at batch boundaries and at
				// the tail.
				if err := write(0, 100, 5); err != nil {
					t.Fatalf("clean settle: %v", err)
				}
				if len(acked) != 100 || len(failed) != 0 {
					t.Fatalf("clean run acknowledged %d of 100, failed %v", len(acked), failed)
				}

				// A crash mid-load: whatever the path had accepted but not yet
				// acknowledged is reported failed, and nothing is both.
				heap.SetInjector(crash.NewNth(50))
				err := write(1000, 300, 300)
				if !heap.Injector().Fired() {
					t.Fatal("crash at the 50th site visit never fired")
				}
				if err == nil || len(failed) == 0 {
					t.Fatalf("crashed load settled with err=%v and %d failed writes", err, len(failed))
				}
				for _, id := range failed {
					if acked[id] {
						t.Errorf("id %d reported both acknowledged and failed", id)
					}
				}
				s := target.session()
				readBack := func(when string) {
					for id := range acked {
						if v, ok := s.lookup(id); !ok || v != id {
							t.Errorf("acknowledged id %d reads back %d,%v %s", id, v, ok, when)
						}
					}
				}
				if p.path.Mode == Async {
					// The dead committer quarantined its shard: until the
					// restart every key reads as unavailable.
					if q := front.(interface{ Quarantined() []int }).Quarantined(); len(q) != 1 {
						t.Errorf("dead committer left its shard serving: quarantined %v", q)
					}
				} else {
					readBack("after the crash")
				}

				// A crashed committer stays dead; a fresh generation over the
				// recovered index is clean again.
				heap.Tracker().Reset()
				if _, err := target.recover(); err != nil {
					t.Fatal(err)
				}
				if p.path.Mode == Async {
					readBack("after the restart")
				}
				before := len(acked)
				if err := write(5000, 40, 40); err != nil {
					t.Fatalf("post-recovery settle: %v", err)
				}
				if len(acked) != before+40 {
					t.Fatalf("post-recovery generation acknowledged %d of 40", len(acked)-before)
				}
			})
		}
	}
}
