// Interleaved lease blocks (DESIGN §7). A granter of stride S hands out
// blocks of W = L·S timestamps starting at a multiple of S (L is the lease
// size); node slot i owns residue class i of a block: start + j·S + i for
// j < L. Every node draws from the same range, so a peer's timestamp lands
// inside the local lease or just past it instead of ending it.
//
// A grant to slot i returns the newest block when slot i of it has not been
// granted yet, and otherwise opens a fresh block above every timestamp
// issued. Each slot of a block is granted once, so leases stay disjoint
// whoever asks. At stride 1 every grant opens a fresh block of L
// timestamps: the contiguous lease, which is all the replicated oracle
// grants.
package clock

import (
	"fmt"

	"remus/internal/base"
)

// maxStride bounds a granter's stride: the slots taken from the newest
// block are one bit each of a uint64.
const maxStride = 64

// blockLedger is the in-process sequencer's record of its newest block. The
// caller serializes access (GTS.mu). The replicated oracle keeps granting
// contiguous leases (Replica.grant), which are blocks of stride 1.
type blockLedger struct {
	stride uint64
	start  uint64 // first timestamp of the newest block; 0 when none may be shared
	rows   uint64 // lease size of the newest block
	taken  uint64 // slots of the newest block already granted, one bit each
}

func newBlockLedger(stride int) blockLedger {
	if stride < 1 || stride > maxStride {
		panic(fmt.Sprintf("clock: lease stride %d outside [1, %d]", stride, maxStride))
	}
	return blockLedger{stride: uint64(stride)}
}

// share hands slot its row of the newest block when that block has the
// requested lease size and slot has not drawn from it yet.
func (b *blockLedger) share(slot, rows uint64) (LeaseGrant, bool) {
	slot %= b.stride
	if b.start == 0 || b.rows != rows || b.taken&(1<<slot) != 0 {
		return LeaseGrant{}, false
	}
	b.taken |= 1 << slot
	g := b.row(slot)
	g.Shared = true
	return g, true
}

// span returns the bounds of a fresh block of rows·stride timestamps at the
// first multiple of the stride at or above from.
func (b *blockLedger) span(from, rows uint64) (start, last uint64) {
	start = (from + b.stride - 1) / b.stride * b.stride
	return start, start + rows*b.stride - 1
}

// open records the fresh block at start (from span) as the newest and
// hands slot its row of it.
func (b *blockLedger) open(start, slot, rows uint64) LeaseGrant {
	slot %= b.stride
	b.start, b.rows, b.taken = start, rows, 1<<slot
	return b.row(slot)
}

// retire stops the newest block from being shared: every later grant opens
// a fresh block. GTS.AdvanceTo uses it, because after it the newest block
// may lie below a timestamp that must never be issued again.
func (b *blockLedger) retire() { b.start = 0 }

func (b *blockLedger) row(slot uint64) LeaseGrant {
	return LeaseGrant{Start: base.Timestamp(b.start + slot), Count: b.rows, Stride: b.stride}
}
