package shard

import "repro/internal/keys"

// Partitioner is the routing contract of a front-end over byte-string
// keys (Options.Partitioner): Point reduces a key to a point on the
// 64-bit ring, and the front-end's routing table (table.go) locates the
// point's shard. Point must be deterministic and total, and it runs on
// the operation hot path, so implementations should be allocation-free.
// Name identifies the partitioner in reports and flags. OrderPreserving
// declares that key order implies point order (a <= b implies
// Point(a) <= Point(b)): such a front-end's slot table maps points to
// slots in order, slot ⌊point·S/2^64⌋, and gives each shard a contiguous
// run of slots — shard order equals key order until a migration moves a
// slot, so scans stream shard by shard with no merge — and every other
// front-end's maps point to slot point % S.
type Partitioner = partitioner[[]byte]

// partitioner is the one routing contract, over any key type:
// Partitioner is its byte-key instantiation, HashPartition64 implements
// the uint64 one.
type partitioner[K any] interface {
	Point(key K) uint64
	Name() string
	OrderPreserving() bool
}

// HashPartition is the default partitioner: a 64-bit FNV-1a hash of the
// whole key, finalised with keys.Mix64 (a fresh slot table reduces it
// modulo the shard count). It balances any key population (including the skewed prefixes
// of YCSB "user..." string keys) at the cost of scattering adjacent keys
// across shards, which makes range scans merge across all shards.
type HashPartition struct{}

// Point implements Partitioner: FNV-1a over the key, then Mix64.
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

// Name implements Partitioner.
func (HashPartition) Name() string { return "hash" }

// OrderPreserving implements Partitioner: hashing scatters adjacent keys.
func (HashPartition) OrderPreserving() bool { return false }

// RangePartition routes by the first eight key bytes (big-endian,
// zero-padded), which a fresh ordered slot table splits into one equal
// contiguous range per shard. It is
// order-preserving — adjacent keys land in the same or adjacent shard,
// so range scans touch few shards — but it only balances populations
// whose leading bytes are uniform (e.g. the RandInt keys, which are
// Mix64-scrambled). YCSB string keys all share the "user" prefix and
// would degenerate to one shard; use HashPartition for those.
type RangePartition struct{}

// Point implements Partitioner: the first eight key bytes, big-endian,
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

// Name implements Partitioner.
func (RangePartition) Name() string { return "range" }

// OrderPreserving implements Partitioner: byte-string order implies
// 8-byte-prefix order, so points never decrease along a scan.
func (RangePartition) OrderPreserving() bool { return true }

// HashPartition64 is the routing of the unordered indexes, which key on
// non-zero uint64 values directly: the ring point is keys.Mix64 of the
// key.
type HashPartition64 struct{}

// Point is the key's ring point.
func (HashPartition64) Point(key uint64) uint64 { return keys.Mix64(key) }

// Name identifies the partitioner in reports.
func (HashPartition64) Name() string { return "hash" }

// OrderPreserving reports false: a hash front-end routes by slot table.
func (HashPartition64) OrderPreserving() bool { return false }

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
