package chord

import (
	"math/bits"

	"github.com/dht-sampling/randompeer/internal/overlay"
)

// routing is chord's half of the flat slot arena (see overlay.Core for
// the arena, its bridge and its locking): per-slot routing state as
// packed uint32 slot references in contiguous slices, guarded by the
// core's stripes. Every array has len == cap spanning the arena
// capacity; the core grows them through growRouting.
type routing struct {
	preds   []uint32 // predecessor slot, noSlot when unknown
	succLen []uint16 // live prefix length of the successor row
	succs   []uint32 // successor rows, stride = Network.succStride
	fingers []uint32 // finger rows, stride = idBits; nil when disabled
	fingOK  []uint64 // finger-set bitmask, one word per slot
	nextFix []uint8  // next finger index to fix
}

// noSlot marks an unknown predecessor.
const noSlot = ^uint32(0)

// growRouting reallocates every routing array to the new capacity
// (overlay.Spec.Grow).
func (n *Network) growRouting(capacity int) {
	a := &n.st
	a.preds = overlay.GrowCopy(a.preds, capacity)
	a.succLen = overlay.GrowCopy(a.succLen, capacity)
	a.succs = overlay.GrowCopy(a.succs, capacity*n.succStride)
	if !n.cfg.DisableFingers {
		a.fingers = overlay.GrowCopy(a.fingers, capacity*idBits)
		a.fingOK = overlay.GrowCopy(a.fingOK, capacity)
	}
	a.nextFix = overlay.GrowCopy(a.nextFix, capacity)
}

// resetRouting writes slot s's fresh-node baseline (overlay.Spec.Reset):
// successor self, no predecessor, no fingers.
func (n *Network) resetRouting(s uint32) {
	a := &n.st
	a.preds[s] = noSlot
	a.succLen[s] = 1
	a.succs[int(s)*n.succStride] = s
	if !n.cfg.DisableFingers {
		a.fingOK[s] = 0
	}
	a.nextFix[s] = 0
}

// markRouting marks the slots live slot s references: its successor
// row, predecessor and set fingers (overlay.Spec.Mark).
func (n *Network) markRouting(s uint32, marks overlay.Bits) {
	a := &n.st
	base := int(s) * n.succStride
	for i := 0; i < int(a.succLen[s]); i++ {
		marks.Set(a.succs[base+i])
	}
	if p := a.preds[s]; p != noSlot {
		marks.Set(p)
	}
	if !n.cfg.DisableFingers {
		fb := int(s) * idBits
		for w := a.fingOK[s]; w != 0; w &= w - 1 {
			marks.Set(a.fingers[fb+bits.TrailingZeros64(w)])
		}
	}
}
