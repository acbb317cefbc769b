package kademlia

import (
	"sync"
	"sync/atomic"

	"github.com/dht-sampling/randompeer/internal/overlay"
)

// routing is kademlia's half of the flat slot arena (see overlay.Core
// for the arena, its bridge and its locking). Ring pointers are single
// packed uint32 slot references; the k-buckets live in a shared region
// pool: one region per non-empty bucket holding a length header, up to
// k entry slots and a small replacement cache, all as uint32 slot
// references in large contiguous chunks. No per-bucket []Point slices —
// a 2^21-node overlay is a few hundred large allocations instead of
// hundreds of millions of small ones.
//
// The per-slot arrays are guarded by the core's stripes. The region
// pool has its own leaf mutex (regionMu) ordered after the stripes:
// allocation only ever appends a chunk (copy-on-write of the chunk
// index, loaded atomically by readers), so region data never moves.
type routing struct {
	succs []uint32 // ring successor slot (self when alone)
	preds []uint32 // ring predecessor slot (self when alone)
	// bucketRefs holds each slot's k-bucket region references, stride
	// idBits. noRegion (zero, so freshly grown arrays are valid) marks
	// a bucket with no region yet.
	bucketRefs []uint32

	// Region pool. Regions live in fixed-size chunks so they never
	// move: chunks is the copy-on-write chunk index (append-only,
	// atomic load to read), regionMu is a leaf lock guarding
	// allocation state, nextRegion the bump pointer (1-based so the
	// zero ref means "no region"), regionFree the recycled refs.
	chunks     atomic.Pointer[[][]uint32]
	regionMu   sync.Mutex
	nextRegion uint32
	regionFree []uint32
}

const (
	// noRegion marks an empty bucket. It is zero so the zero-value
	// bucketRefs rows produced by arena growth are already correct.
	noRegion = 0
	// regionChunk is the number of regions per pool chunk.
	regionChunk = 1024
	// regionBatch is how many regions a build worker reserves per trip
	// to the allocator.
	regionBatch = 256
)

// growRouting reallocates every per-slot routing array to the new
// capacity (overlay.Spec.Grow).
func (n *Network) growRouting(capacity int) {
	a := &n.st
	a.succs = overlay.GrowCopy(a.succs, capacity)
	a.preds = overlay.GrowCopy(a.preds, capacity)
	a.bucketRefs = overlay.GrowCopy(a.bucketRefs, capacity*idBits)
}

// resetRouting writes slot s's fresh-node baseline, ring pointers to
// self (overlay.Spec.Reset). Its buckets are already empty: the core
// releases a slot's regions before resetting it.
func (n *Network) resetRouting(s uint32) {
	n.st.succs[s] = s
	n.st.preds[s] = s
}

// markRouting marks the slots live slot s references: its ring
// pointers and every bucket entry and replacement-cache contact
// (overlay.Spec.Mark).
func (n *Network) markRouting(s uint32, marks overlay.Bits) {
	a := &n.st
	marks.Set(a.succs[s])
	marks.Set(a.preds[s])
	for _, ref := range a.bucketRefs[int(s)*idBits : int(s)*idBits+idBits] {
		if ref == noRegion {
			continue
		}
		reg := n.region(ref)
		for _, c := range regEntries(reg) {
			marks.Set(c)
		}
		for _, c := range regCache(reg, n.cfg.BucketSize) {
			marks.Set(c)
		}
	}
}

// StorageStats reports the flat storage layout's occupancy: the slot
// arena's plus the bucket region pool's.
type StorageStats struct {
	overlay.StorageStats
	// Regions is the number of bucket regions ever allocated from the
	// pool; FreeRegions of them are recycled and awaiting reuse.
	Regions     int
	FreeRegions int
}

// StorageStats returns the current slot-arena and region-pool
// occupancy.
func (n *Network) StorageStats() StorageStats {
	st := StorageStats{StorageStats: n.Core.StorageStats()}
	n.st.regionMu.Lock()
	st.Regions = int(n.st.nextRegion)
	st.FreeRegions = len(n.st.regionFree)
	n.st.regionMu.Unlock()
	return st
}

// region returns the backing words of a region reference (1-based;
// callers must not pass noRegion). The chunk index is loaded
// atomically, so this is safe under any stripe while other goroutines
// allocate: chunks only ever gain entries and existing chunk data
// never moves.
func (n *Network) region(ref uint32) []uint32 {
	chunks := *n.st.chunks.Load()
	i := int(ref - 1)
	c := chunks[i/regionChunk]
	off := (i % regionChunk) * n.regStride
	return c[off : off+n.regStride]
}

// allocRegion hands out one zeroed region. regionMu is a leaf lock, so
// this is callable while holding a stripe (the caller installing the
// ref into its bucket row).
func (n *Network) allocRegion() uint32 {
	a := &n.st
	a.regionMu.Lock()
	var ref uint32
	if ln := len(a.regionFree); ln > 0 {
		ref = a.regionFree[ln-1]
		a.regionFree = a.regionFree[:ln-1]
	} else {
		n.growRegionsLocked(1)
		a.nextRegion++
		ref = a.nextRegion
	}
	a.regionMu.Unlock()
	n.region(ref)[0] = 0 // safe: the region is owned by the caller alone
	return ref
}

// allocRegionBlock reserves cnt consecutive fresh region refs and
// returns the first; the bulk build path uses it to batch allocator
// trips.
func (n *Network) allocRegionBlock(cnt int) uint32 {
	a := &n.st
	a.regionMu.Lock()
	n.growRegionsLocked(cnt)
	first := a.nextRegion + 1
	a.nextRegion += uint32(cnt)
	a.regionMu.Unlock()
	return first
}

// growRegionsLocked appends chunks until cnt more regions fit past the
// bump pointer. Caller holds regionMu. The chunk index is replaced
// copy-on-write so concurrent region() readers never see a partial
// append.
func (n *Network) growRegionsLocked(cnt int) {
	a := &n.st
	old := *a.chunks.Load()
	need := (int(a.nextRegion) + cnt + regionChunk - 1) / regionChunk
	if need <= len(old) {
		return
	}
	next := make([][]uint32, need)
	copy(next, old)
	for i := len(old); i < need; i++ {
		next[i] = make([]uint32, regionChunk*n.regStride)
	}
	a.chunks.Store(&next)
}

// releaseRegions returns refs to the pool.
func (n *Network) releaseRegions(refs []uint32) {
	if len(refs) == 0 {
		return
	}
	a := &n.st
	a.regionMu.Lock()
	a.regionFree = append(a.regionFree, refs...)
	a.regionMu.Unlock()
}

// freeRegionRow returns every region of slot s to the pool and clears
// the row. The caller must hold stripe(s) (or own the slot outright).
func (n *Network) freeRegionRow(s uint32) {
	a := &n.st
	row := a.bucketRefs[int(s)*idBits : int(s)*idBits+idBits]
	var back [idBits]uint32
	freed := back[:0]
	for b, ref := range row {
		if ref != noRegion {
			freed = append(freed, ref)
			row[b] = noRegion
		}
	}
	n.releaseRegions(freed)
}

// regionBatcher hands one build worker regions in blocks of
// regionBatch, cutting allocator-mutex trips by that factor; leftover
// refs return to the pool when the worker finishes its shard.
type regionBatcher struct {
	n         *Network
	next, end uint32
}

// alloc returns one zeroed region ref from the worker's batch.
func (rb *regionBatcher) alloc() uint32 {
	if rb.next == rb.end {
		rb.next = rb.n.allocRegionBlock(regionBatch)
		rb.end = rb.next + regionBatch
	}
	ref := rb.next
	rb.next++
	rb.n.region(ref)[0] = 0
	return ref
}

// release returns the unused remainder of the batch to the pool.
func (rb *regionBatcher) release() {
	refs := make([]uint32, 0, rb.end-rb.next)
	for r := rb.next; r < rb.end; r++ {
		refs = append(refs, r)
	}
	rb.n.releaseRegions(refs)
	rb.next, rb.end = 0, 0
}
