package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/keys"
	"repro/internal/pmem"
	"repro/shard"
)

// libHeap is the PM latency model of the library workloads: busy-wait
// iterations per clwb and per fence, the values cmd/ycsbbench defaults to.
var libHeap = pmem.Options{DelayClwb: 40, DelayFence: 20}

const libShards = 4

// libSUT is an in-process sharded front-end; the SUT process is the
// benchmark itself.
type libSUT struct {
	hash    *shard.Hash
	ordered *shard.Ordered
	cls     []client
}

func startLib(w workload, e env) (sut, error) {
	s := &libSUT{}
	opts := shard.Options{Shards: libShards, Heap: libHeap}
	var err error
	if w.sut == sutLibHash {
		s.hash, err = shard.NewHash("P-CLHT", opts)
	} else {
		s.ordered, err = shard.NewOrdered("P-ART", keys.YCSBString, opts)
	}
	if err != nil {
		return nil, err
	}
	for i := 0; i < e.workers; i++ {
		if s.hash != nil {
			s.cls = append(s.cls, &hashClient{m: s.hash})
		} else {
			s.cls = append(s.cls, &orderedClient{m: s.ordered})
		}
	}
	return s, nil
}

func (s *libSUT) clients() []client           { return s.cls }
func (s *libSUT) pid() int                    { return os.Getpid() }
func (s *libSUT) cpu() (time.Duration, error) { return selfCPU(), nil }
func (s *libSUT) close() error                { return nil }
func (s *libSUT) kill()                       {}

func (s *libSUT) stats() (pmem.Stats, error) {
	if s.hash != nil {
		return s.hash.Stats(), nil
	}
	return s.ordered.Stats(), nil
}

// hashClient calls shard.Hash with the paper's random-integer keys.
type hashClient struct {
	m *shard.Hash
	// direct bypasses the front-end: ops go to the owning shard's index,
	// routed ahead of time (the traced run's index level).
	direct bool
	ops    []op
	route  []uint8
}

func (c *hashClient) prepare(ops []op) {
	c.ops = ops
	if c.direct {
		c.route = c.route[:0]
		for _, o := range ops {
			c.route = append(c.route, uint8(c.m.Route(keys.Mix64(o.id))))
		}
	}
}

func (c *hashClient) do(i int) (bool, error) {
	o := c.ops[i]
	key := keys.Mix64(o.id)
	var ix core.HashIndex = c.m
	if c.direct {
		ix = c.m.Shard(int(c.route[i]))
	}
	switch o.kind {
	case kRead:
		v, found := ix.Lookup(key)
		return found && v == o.val, nil
	case kUpdate:
		return ix.Update(key, o.val) == nil, nil
	case kInsert:
		return ix.Insert(key, o.val) == nil, nil
	}
	return false, fmt.Errorf("hash client: op kind %s", o.kind)
}

func (c *hashClient) exec(_, sampleEvery int, lat []int64) ([]int64, int, error) {
	return execSeq(c, len(c.ops), sampleEvery, lat)
}

// orderedClient calls shard.Ordered with 24-byte YCSB string keys,
// rendered ahead of the timed section.
type orderedClient struct {
	m       *shard.Ordered
	direct  bool // as hashClient.direct
	ops     []op
	keys    []byte // len(ops) keys of keyLen bytes, back to back
	route   []uint8
	visited int // entries the last scan visited
}

var keyLen = keys.YCSBString.Size()

func (c *orderedClient) key(i int) []byte { return c.keys[i*keyLen : (i+1)*keyLen] }

func (c *orderedClient) prepare(ops []op) {
	c.ops = ops
	c.keys, c.route = c.keys[:0], c.route[:0]
	for _, o := range ops {
		c.keys = stringKeys.AppendKey(c.keys, o.id)
	}
	if c.direct {
		for i := range ops {
			c.route = append(c.route, uint8(c.m.Route(c.key(i))))
		}
	}
}

func (c *orderedClient) do(i int) (bool, error) {
	o, key := c.ops[i], c.key(i)
	var ix core.OrderedIndex = c.m
	if c.direct {
		ix = c.m.Shard(int(c.route[i]))
	}
	switch o.kind {
	case kRead:
		v, found := ix.Lookup(key)
		return found && v == o.val, nil
	case kUpdate:
		return ix.Update(key, o.val) == nil, nil
	case kInsert:
		return ix.Insert(key, o.val) == nil, nil
	case kScan:
		var ok bool
		ok, c.visited = checkScan(ix, key, o)
		return ok, nil
	}
	return false, fmt.Errorf("ordered client: op kind %s", o.kind)
}

func (c *orderedClient) exec(_, sampleEvery int, lat []int64) ([]int64, int, error) {
	return execSeq(c, len(c.ops), sampleEvery, lat)
}

// execSeq issues n synchronous calls back to back, timing one in
// sampleEvery.
func execSeq(c interface{ do(int) (bool, error) }, n, sampleEvery int, lat []int64) ([]int64, int, error) {
	failed := 0
	for i := 0; i < n; i++ {
		timed := sampleEvery > 0 && i%sampleEvery == 0
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		ok, err := c.do(i)
		if timed {
			lat = append(lat, int64(time.Since(t0)))
		}
		if err != nil {
			return lat, failed, err
		}
		if !ok {
			failed++
		}
	}
	return lat, failed, nil
}

// checkScan runs one scan and verifies the page: it starts at the start
// key itself (which exists) carrying the modelled value, keys ascend
// strictly, and no more than the requested count arrive. A page may be
// short only by running off the end of the key space. It also returns
// the number of entries visited.
func checkScan(ix core.OrderedIndex, start []byte, o op) (bool, int) {
	var prev [64]byte
	n, good := 0, true
	visited := ix.Scan(start, int(o.n), func(k []byte, v uint64) bool {
		switch {
		case n == 0:
			good = bytes.Equal(k, start) && v == o.val
		case bytes.Compare(prev[:keyLen], k) >= 0:
			good = false
		}
		copy(prev[:], k)
		n++
		return good
	})
	return good && visited == n && n >= 1 && n <= int(o.n), n
}
