package art

import "sync/atomic"

// atomicBytes is a byte array readable with atomic loads. ART readers
// scan node key arrays without locks while a locked writer appends, so
// every byte must be loadable race-free; the bytes are packed eight to a
// 64-bit word that readers load atomically and writers update with
// read-modify-write under the node lock.
type atomicBytes []atomic.Uint64

func (a atomicBytes) Get(i int) byte {
	return byte(a[i/8].Load() >> (8 * uint(i%8)))
}

// Set must be called with the owning node's lock held.
func (a atomicBytes) Set(i int, b byte) {
	sh := 8 * uint(i%8)
	w := &a[i/8]
	w.Store(w.Load()&^(0xFF<<sh) | uint64(b)<<sh)
}

// atomicBytes256 is a Node48's index: key byte -> child slot + 1.
type atomicBytes256 [32]atomic.Uint64

func (a *atomicBytes256) Get(i int) byte    { return atomicBytes(a[:]).Get(i) }
func (a *atomicBytes256) Set(i int, b byte) { atomicBytes(a[:]).Set(i, b) }
