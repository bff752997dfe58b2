package main

import (
	"hash/fnv"
	"math/rand"

	"repro/internal/keys"
	"repro/internal/ycsb"
)

// op is one generated request with the result the stream's model
// expects, so verification needs nothing but the op itself.
type op struct {
	kind opKind
	n    uint8  // scan length, 1..ycsb.MaxScanLen
	id   uint64 // dense key identifier
	// val is the value to write (update, insert) or the value the reply
	// must carry (read; for a scan, the value under its start key).
	val uint64
}

// valueOf is the value under key id after ver updates. Version 0 is
// what preload and SET-new write.
func valueOf(id uint64, ver uint32) uint64 { return id + uint64(ver)<<32 }

// gen is one client's seeded op stream. Clients own disjoint keys —
// client w of W owns every identifier ≡ w (mod W), preloaded or new —
// so each keeps an exact model of its keys however the clients
// interleave: per-connection (and per-goroutine) order is all that
// matters, and reads check values, not just shapes.
type gen struct {
	worker, workers int
	loadN           int
	rng             *rand.Rand
	smp             ycsb.Sampler // over this client's preloaded keys
	ver             []uint32     // updates applied so far, per owned preloaded key
	inserted        uint64       // new keys this client has written
	pattern         [blockLen]opKind
	block           [blockLen]opKind
	pos             int
}

func newGen(w workload, seed int64, worker, workers int) *gen {
	own := (w.loadN - worker + workers - 1) / workers
	rng := rand.New(rand.NewSource(seed + int64(worker)*1_000_003))
	g := &gen{
		worker: worker, workers: workers, loadN: w.loadN,
		rng: rng,
		smp: ycsb.Uniform{}.NewSampler(own, rng),
		ver: make([]uint32, own),
		pos: blockLen,
	}
	i := 0
	for k, n := range w.mix {
		for ; n > 0; n-- {
			g.pattern[i] = opKind(k)
			i++
		}
	}
	if i != blockLen {
		panic("bench: workload mix does not sum to blockLen")
	}
	return g
}

// newID is the identifier of this client's j-th new key.
func (g *gen) newID(j uint64) uint64 {
	return uint64(g.loadN) + uint64(g.worker) + j*uint64(g.workers)
}

// fill generates the next len(ops) ops of the stream.
func (g *gen) fill(ops []op) {
	for i := range ops {
		if g.pos == blockLen {
			g.block = g.pattern
			g.rng.Shuffle(blockLen, func(a, b int) { g.block[a], g.block[b] = g.block[b], g.block[a] })
			g.pos = 0
		}
		kind := g.block[g.pos]
		g.pos++
		o := op{kind: kind}
		if kind == kInsert {
			o.id = g.newID(g.inserted)
			o.val = valueOf(o.id, 0)
			g.inserted++
		} else {
			j := g.smp.Next()
			o.id = uint64(g.worker) + j*uint64(g.workers)
			switch kind {
			case kUpdate:
				g.ver[j]++
			case kScan:
				o.n = uint8(1 + g.rng.Intn(ycsb.MaxScanLen))
			}
			o.val = valueOf(o.id, g.ver[j])
		}
		ops[i] = o
	}
}

// loadOps is the preload: identifiers [0, n) inserted in order.
func loadOps(n int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{kind: kInsert, id: uint64(i), val: valueOf(uint64(i), 0)}
	}
	return ops
}

// streamHash fingerprints the first n ops of every client's stream.
func streamHash(w workload, seed int64, workers, n int) uint64 {
	h := fnv.New64a()
	ops := make([]op, n)
	var b [18]byte
	for c := 0; c < workers; c++ {
		newGen(w, seed, c, workers).fill(ops)
		for _, o := range ops {
			b[0], b[1] = byte(o.kind), o.n
			for i := 0; i < 8; i++ {
				b[2+i] = byte(o.id >> (8 * i))
				b[10+i] = byte(o.val >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// stringKeys renders identifiers as the paper's 24-byte YCSB string
// keys, the key type recipesrv is built with.
var stringKeys = keys.NewGenerator(keys.YCSBString)
