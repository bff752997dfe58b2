package shard

import (
	"math"

	"repro/internal/keys"
)

// Partitioner maps a byte-string key to one of `shards` shards. The
// mapping must be deterministic and total: every key routes to exactly
// one shard in [0, shards), every time. Routing runs on the operation
// hot path, so implementations should be allocation-free.
type Partitioner interface {
	// Shard returns the shard index for key, in [0, shards).
	Shard(key []byte, shards int) int
	// Name identifies the partitioner in reports and flags.
	Name() string
}

// PointMapper is implemented by partitioners that can reduce a key to a
// point on the 64-bit ring, the first stage of table-based routing (see
// table.go). The built-in partitioners implement it — each defines Shard
// as a reduction of Point, so a fresh table routes exactly like the
// partitioner by construction; a custom Partitioner without it cannot
// be resharded (ErrNotReshardable).
type PointMapper interface {
	// Point maps key to a 64-bit value consistent with the partitioner's
	// Shard mapping: Shard(key, H) must equal the table lookup of
	// Point(key) on a fresh H-shard table (see newSlotTable /
	// newRangeTable for the two contracts).
	Point(key []byte) uint64
}

// partitioner and pointMapper are the two routing contracts over any
// key type, as frontend[K] holds them: Partitioner and PointMapper are
// their byte-key instantiations, HashPartition64 is the uint64 one.
type (
	partitioner[K any] interface {
		Shard(key K, shards int) int
		Name() string
	}
	pointMapper[K any] interface {
		Point(key K) uint64
	}
)

// HashPartition is the default partitioner: a 64-bit FNV-1a hash of the
// whole key, finalised with keys.Mix64 and reduced modulo the shard
// count. It balances any key population (including the skewed prefixes
// of YCSB "user..." string keys) at the cost of scattering adjacent keys
// across shards, which makes range scans merge across all shards.
type HashPartition struct{}

// Point implements PointMapper: FNV-1a over the key, then Mix64.
func (HashPartition) Point(key []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return keys.Mix64(h)
}

// Shard implements Partitioner.
func (p HashPartition) Shard(key []byte, shards int) int {
	return int(p.Point(key) % uint64(shards))
}

// Name implements Partitioner.
func (HashPartition) Name() string { return "hash" }

// RangePartition splits the key space into `shards` equal contiguous
// ranges of the first eight key bytes (big-endian, zero-padded). It is
// order-preserving — adjacent keys land in the same or adjacent shard,
// so range scans touch few shards — but it only balances populations
// whose leading bytes are uniform (e.g. the RandInt keys, which are
// Mix64-scrambled). YCSB string keys all share the "user" prefix and
// would degenerate to one shard; use HashPartition for those.
type RangePartition struct{}

// Point implements PointMapper: the first eight key bytes, big-endian,
// zero-padded.
func (RangePartition) Point(key []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v <<= 8
		if i < len(key) {
			v |= uint64(key[i])
		}
	}
	return v
}

// Shard implements Partitioner.
func (p RangePartition) Shard(key []byte, shards int) int {
	if shards <= 1 {
		return 0
	}
	// Divide 2^64 into `shards` equal ranges. width = ceil(2^64 / shards),
	// so v/width < shards for every v.
	width := math.MaxUint64/uint64(shards) + 1
	return int(p.Point(key) / width)
}

// Name implements Partitioner.
func (RangePartition) Name() string { return "range" }

// OrderPreserving implements OrderPreserver: byte-string order implies
// 8-byte-prefix order, so shard indices never decrease along a scan.
func (RangePartition) OrderPreserving() bool { return true }

// OrderPreserver is implemented by partitioners that guarantee shard
// order equals key order: key a <= key b implies Shard(a) <= Shard(b)
// for every shard count. Scans over such partitioners skip the k-way
// merge entirely and stream shard by shard with no buffering.
type OrderPreserver interface {
	OrderPreserving() bool
}

// orderPreserving reports whether partitioner p declares the
// order-preserving guarantee.
func orderPreserving(p any) bool {
	op, ok := p.(OrderPreserver)
	return ok && op.OrderPreserving()
}

// HashPartition64 is the routing of the unordered indexes, which key on
// non-zero uint64 values directly: keys.Mix64 reduced modulo the shard
// count.
type HashPartition64 struct{}

// Point is the key's ring point (PointMapper for uint64 keys).
func (HashPartition64) Point(key uint64) uint64 { return keys.Mix64(key) }

// Shard returns the shard index for key, in [0, shards).
func (p HashPartition64) Shard(key uint64, shards int) int {
	return int(p.Point(key) % uint64(shards))
}

// Name identifies the partitioner in reports.
func (HashPartition64) Name() string { return "hash" }

// ByName returns the named byte-key partitioner ("hash" or "range"),
// for flag parsing in the command-line harnesses.
func ByName(name string) (Partitioner, bool) {
	switch name {
	case "hash":
		return HashPartition{}, true
	case "range":
		return RangePartition{}, true
	default:
		return nil, false
	}
}
