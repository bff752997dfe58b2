// Package fastfair implements FAST & FAIR (Hwang et al., FAST '18), the
// hand-crafted persistent B+ tree RECIPE compares against (§3, §7.1).
//
// FAST (Failure-Atomic ShifT) keeps node entries sorted by shifting them
// in place with 8-byte atomic stores; a reader that observes the transient
// duplicate created by an in-flight shift skips it. FAIR (Failure-Atomic
// In-place Rebalancing) splits nodes B-link style: the new sibling is
// linked before the parent learns about it, so readers reach moved keys
// through sibling pointers. Writes lock individual nodes; reads are
// lock-free and tolerate the transient states.
//
// Two fidelity notes that reproduce the paper's findings:
//
//   - String keys are supported the way the RECIPE authors extended the
//     original (integer-only) implementation: key slots hold references to
//     out-of-line key records, so every comparison dereferences a pointer.
//     This is what makes FAST & FAIR 2.5–5x slower on string keys (§7.1)
//     and inflates its LLC misses (Fig 4d) — behaviour this port keeps.
//   - In Faithful mode the initial root allocation is not persisted, the
//     unpersisted-allocation durability bug §7.5 reports for FAST & FAIR.
//     Fixed mode persists it.
package fastfair

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/keys"
	"repro/internal/pmem"
	"repro/internal/pmlock"
)

// ErrKeySize is returned when an integer-keyed tree receives a key that is
// not exactly 8 bytes.
var ErrKeySize = errors.New("fastfair: integer keys must be 8 bytes")

// Cardinality is the number of records per node. With 16-byte records and
// a 64-byte header this gives the 512-byte nodes used by the original.
const Cardinality = 28

// Mode selects bug fidelity.
type Mode int

const (
	// Fixed persists the initial allocation (correct behaviour).
	Fixed Mode = iota
	// Faithful reproduces the durability bug found in §7.5: the node
	// allocation containing the root pointer is not persisted.
	Faithful
)

// Persistent layout: 64-byte header (sibling, count, level, high key),
// then Cardinality 16-byte (key, ptr) records.
const (
	hdrBytes   = 64
	recBytes   = 16
	nodeBytes  = hdrBytes + Cardinality*recBytes
	offSibling = 0
	offHigh    = 8
)

func recOff(i int) uintptr { return hdrBytes + uintptr(i)*recBytes }

// krec is an out-of-line string key record (string mode only).
type krec struct {
	b  []byte
	pm pmem.Obj
}

// node is one B+ tree node. Leaves store value handles in ptrs-as-values;
// internal nodes store child pointers. Slot occupancy is detected by a
// nil pointer sentinel (the original's NULL-terminated record array),
// which keeps FAST shifts failure-atomic without a separate count field.
type node struct {
	pm       pmem.Obj
	lock     pmlock.Mutex
	leaf     bool
	level    int
	keys     [Cardinality]atomic.Uint64
	vals     [Cardinality]atomic.Pointer[vref] // leaf values
	kids     [Cardinality]atomic.Pointer[node] // internal children
	leftmost atomic.Pointer[node]              // internal only
	sibling  atomic.Pointer[node]
	highSet  atomic.Bool   // node has split at least once
	high     atomic.Uint64 // first key of the right sibling
}

// vref is a leaf value record; the pointer doubles as the slot-occupancy
// sentinel, mirroring the original's record pointers.
type vref struct {
	v  uint64
	pm pmem.Obj
}

// Tree is a concurrent persistent B+ tree over either 8-byte integer keys
// or arbitrary byte-string keys (dereferenced out of line, as the paper's
// string extension does).
type Tree struct {
	heap   *pmem.Heap
	mode   Mode
	kind   keys.Kind
	rootPM pmem.Obj
	root   atomic.Pointer[node]
	rootMu pmlock.Mutex
	gen    pmlock.Gen // stamps every lock of the tree; volatile
	count  atomic.Int64

	arenaMu sync.Mutex
	arena   []*krec // string-key records, handle = index+1
}

// New returns an empty tree for the given key kind in Fixed mode.
func New(heap *pmem.Heap, kind keys.Kind) *Tree { return NewWithMode(heap, kind, Fixed) }

// NewWithMode returns an empty tree with explicit bug fidelity.
func NewWithMode(heap *pmem.Heap, kind keys.Kind, mode Mode) *Tree {
	t := &Tree{heap: heap, mode: mode, kind: kind}
	t.rootPM = heap.Alloc(64)
	heap.Shadow(t.rootPM, &t.root)
	r := t.newNode(true, 0)
	t.root.Store(r)
	if mode == Fixed {
		// RECIPE-FIXED: persist the initial allocation; Faithful mode
		// reproduces the durability bug of §7.5 by skipping this.
		heap.PersistFence(t.rootPM, 0, 64)
		heap.PersistFence(r.pm, 0, nodeBytes)
	}
	return t
}

func (t *Tree) newNode(leaf bool, level int) *node {
	n := &node{leaf: leaf, level: level}
	n.pm = t.heap.Alloc(nodeBytes)
	t.heap.Shadow(n.pm, n)
	return n
}

// intern stores a string key out of line and returns its handle.
func (t *Tree) intern(k []byte) uint64 {
	r := &krec{b: append([]byte(nil), k...)}
	r.pm = t.heap.Alloc(uintptr(len(k)))
	t.heap.Shadow(r.pm, r)
	t.heap.Persist(r.pm, 0, uintptr(len(k)))
	t.arenaMu.Lock()
	t.arena = append(t.arena, r)
	h := uint64(len(t.arena))
	t.arenaMu.Unlock()
	return h
}

func (t *Tree) krecOf(h uint64) *krec {
	t.arenaMu.Lock()
	r := t.arena[h-1]
	t.arenaMu.Unlock()
	return r
}

// cmpProbe compares a probe key against a stored key slot. In string mode
// this dereferences the out-of-line record and charges the LLC model for
// it — the pointer chase the paper blames for FAST & FAIR's string-key
// collapse.
func (t *Tree) cmpProbe(probe []byte, stored uint64) int {
	if t.kind == keys.RandInt {
		p := keys.DecodeUint64(probe)
		switch {
		case p < stored:
			return -1
		case p > stored:
			return 1
		default:
			return 0
		}
	}
	r := t.krecOf(stored)
	t.heap.Load(r.pm, 0, uintptr(len(r.b)))
	return bytes.Compare(probe, r.b)
}

// appendKeyBytes returns the byte representation of a stored key: an
// integer key's encoding appended to dst, a string key's interned bytes.
func (t *Tree) appendKeyBytes(dst []byte, stored uint64) []byte {
	if t.kind == keys.RandInt {
		return keys.AppendUint64(dst, stored)
	}
	return t.krecOf(stored).b
}

// encode converts a probe key to its stored representation, interning
// string keys.
func (t *Tree) encode(k []byte) uint64 {
	if t.kind == keys.RandInt {
		return keys.DecodeUint64(k)
	}
	return t.intern(k)
}

// Len returns the number of keys.
func (t *Tree) Len() int { return int(t.count.Load()) }

// countRecords returns the number of live records (nil-sentinel scan).
func (n *node) countRecords() int {
	for i := 0; i < Cardinality; i++ {
		if n.leaf {
			if n.vals[i].Load() == nil {
				return i
			}
		} else {
			if n.kids[i].Load() == nil {
				return i
			}
		}
	}
	return Cardinality
}

// Recover restarts the tree after a crash with a new lock generation,
// which frees every lock the crash left held (§6). A split torn between
// link and truncation is completed by the node's next split.
func (t *Tree) Recover() error {
	t.gen.Restart()
	return nil
}
