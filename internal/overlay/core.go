// Package overlay is the machinery the structured overlays
// (internal/chord, internal/kademlia) share: a flat slot arena with
// striped locks and a mark-and-sweep scavenger, the copy-on-write
// sorted membership that bridges identifiers to slots, transport
// registration and dispatch, the static-build skeleton, and the dht.DHT
// adapter the samplers run on. Each overlay embeds one Core by value
// and keeps only its per-slot routing arrays, its RPC handler, its
// maintenance protocol and its Byzantine forgery hooks.
package overlay

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/simnet"
)

// Core is one overlay network's slot arena, membership and transport
// binding. H is the overlay's public node handle type.
//
// Every node the network knows about — live members, crashed members
// whose state in-flight RPCs may still read, and external contacts
// learned over the wire — occupies one dense uint32 slot. The core
// keeps the slot's identifier, alive flag and preconstructed handle;
// the overlay keeps its routing state (successor lists, fingers,
// k-bucket references) as packed uint32 slot references in its own
// per-slot arrays, which follow the arena through the four hooks in
// Spec. No per-node heap objects, no map[Point]*Node: a 10^7-node ring
// is a handful of large allocations.
//
// The ID↔slot bridge is the copy-on-write sorted membership snapshot
// (members) plus an aligned slot snapshot (memberSlots): a member's
// slot is memberSlots[rank] with rank found by binary search. Non-member
// slots — zombies (crashed nodes still visible to in-flight RPCs) and
// external contacts — resolve through a small overflow map that only
// ever holds the churn margin, never the ring.
//
// Locking. Per-slot routing state is guarded by a fixed pool of striped
// RWMutexes (slot & stripeMask picks the stripe). The network mutex mu
// guards membership, the bridge, slot allocation, the alive flags and
// the handles. Lock order is mu before stripe; overlay leaf locks (such
// as kademlia's region pool) come after both. Slot identifiers are read
// and written atomically, so translating a slot reference found in
// another node's routing array back to its identifier needs no
// cross-stripe locking; growth swaps the backing slices under mu plus
// every stripe, so a reader holding either never observes a half-moved
// arena.
//
// Slot reuse can alias: a handle or routing entry observed just before
// its slot was scavenged and recycled reads the new occupant's state.
// That is protocol-equivalent to the stale answers crashed nodes have
// always been allowed to give (routing verifies progress every hop),
// and the atomic ids keep it a stale read, never a data race.
type Core[H any] struct {
	// Field order matters for two concurrent samplers. Every RPC loads
	// tr and, through the nil check on the receiver, the core's first
	// word, while both workers write mu's and the stripes' lock words.
	// A read sharing a cache line with those writes misses on every RPC
	// (about 10% of chord-static throughput), so the read-mostly fields
	// come first and the churn-only state, over a cache line of it,
	// separates them from the locks.
	spec Spec[H]
	tr   simnet.Transport
	// multi records that the transport accepted a bulk registration:
	// one handler serves every node this network hosts and joins and
	// crashes cost no per-node transport bookkeeping. Without it the
	// core falls back to one registered closure per node.
	multi bool

	// used is the number of allocated slots. Every per-slot array has
	// len == cap spanning the arena capacity, so growth (which swaps
	// the backing arrays under all stripes) is the only operation that
	// ever changes a slice header.
	used     int
	free     []uint32 // recycled slots ready for reuse (LIFO)
	freeBits Bits     // marks slots currently on free
	overflow map[ring.Point]uint32
	// reclaimable counts dead (zombie or external) slots not yet on
	// the free list; it triggers the mark-and-sweep scavenger.
	reclaimable int
	epoch       uint64

	mu      sync.RWMutex
	stripes [numStripes]sync.RWMutex

	ids     []uint64 // slot -> identifier; atomic access
	alive   []bool   // slot hosts a live local member
	handles []H      // preconstructed public handles, one per slot

	// members is the sorted live membership, maintained incrementally:
	// join/crash installs a fresh copy with the id spliced in or out
	// (copy-on-write) and bumps epoch. The slice itself is immutable, so
	// Members hands it out with no per-call copy and holders keep a
	// consistent snapshot across later churn.
	members []ring.Point
	// memberSlots is the aligned slot snapshot: memberSlots[i] is the
	// slot of members[i], maintained copy-on-write in lockstep.
	memberSlots []uint32
}

// Spec is what an overlay plugs into its Core.
type Spec[H any] struct {
	// Name prefixes the errors the core reports ("chord").
	Name string
	// ErrExists and ErrNotFound are the overlay's errors for adding an
	// id already live here and for an id hosting no live node here.
	ErrExists, ErrNotFound error
	// Handle returns slot s's public handle. It runs once per slot.
	Handle func(s uint32) H
	// Serve handles one RPC addressed to the node in slot s.
	Serve func(s uint32, from simnet.NodeID, msg simnet.Message) (simnet.Message, error)

	// Grow reallocates every routing array to capacity slots, keeping
	// the used prefix. It runs under mu and every stripe, or during
	// single-threaded construction.
	Grow func(capacity int)
	// Reset writes slot s's fresh-node routing baseline. No live node
	// references the slot, and the caller holds stripe(s) or owns the
	// slot outright.
	Reset func(s uint32)
	// Mark sets in marks every slot that live slot s's routing state
	// references. It runs under every stripe.
	Mark func(s uint32, marks Bits)
	// Release drops the side state a slot holds outside its routing
	// arrays (stored items, bucket regions) before the slot is reset or
	// recycled. The caller holds stripe(s).
	Release func(s uint32)

	Router
}

const (
	numStripes = 256
	stripeMask = numStripes - 1
)

// Bits is a slot bitset.
type Bits []uint64

// Set marks slot s.
func (b Bits) Set(s uint32) { b[s/64] |= 1 << (s % 64) }

// Has reports whether slot s is marked.
func (b Bits) Has(s uint32) bool { return b[s/64]&(1<<(s%64)) != 0 }

// Init binds an empty core to its transport and overlay. The overlay's
// constructor calls it once, on the core's final address: the transport
// keeps handlers bound to it.
func (c *Core[H]) Init(tr simnet.Transport, spec Spec[H]) {
	c.spec = spec
	c.tr = tr
	c.overflow = make(map[ring.Point]uint32)
	if mr, ok := tr.(simnet.MultiRegistrar); ok {
		if err := mr.RegisterMulti(c.ownsID, c.dispatchAny); err == nil {
			c.multi = true
		}
	}
}

// Stripe returns the lock guarding slot s's routing state.
func (c *Core[H]) Stripe(s uint32) *sync.RWMutex { return &c.stripes[s&stripeMask] }

// ID returns slot s's identifier. Callers must hold a stripe or the
// network mutex (either mode) to pin the backing array; the element
// itself is read atomically, so s may belong to any stripe.
func (c *Core[H]) ID(s uint32) ring.Point {
	return ring.Point(atomic.LoadUint64(&c.ids[s]))
}

// IDOf returns slot s's identifier, taking the slot's stripe.
func (c *Core[H]) IDOf(s uint32) ring.Point {
	st := c.Stripe(s)
	st.RLock()
	id := c.ID(s)
	st.RUnlock()
	return id
}

// lockAllStripes acquires every stripe in index order.
func (c *Core[H]) lockAllStripes() {
	for i := range c.stripes {
		c.stripes[i].Lock()
	}
}

// unlockAllStripes releases every stripe.
func (c *Core[H]) unlockAllStripes() {
	for i := range c.stripes {
		c.stripes[i].Unlock()
	}
}

// growLocked reallocates every per-slot array, the overlay's included,
// to the new capacity. Callers must hold mu plus every stripe, except
// during single-threaded construction.
func (c *Core[H]) growLocked(capacity int) {
	if capacity <= cap(c.ids) {
		return
	}
	c.ids = GrowCopy(c.ids, capacity)
	c.alive = GrowCopy(c.alive, capacity)
	c.handles = GrowCopy(c.handles, capacity)
	c.freeBits = GrowCopy(c.freeBits, (capacity+63)/64)
	c.spec.Grow(capacity)
}

// GrowCopy returns a full-length slice of the new capacity holding a
// copy of src.
func GrowCopy[S ~[]E, E any](src S, capacity int) S {
	dst := make(S, capacity)
	copy(dst, src)
	return dst
}

// lookupLocked resolves an id to its slot: members bridge first, then
// the overflow map. Caller holds mu (either mode).
func (c *Core[H]) lookupLocked(id ring.Point) (uint32, bool) {
	if rank, ok := ring.Rank(c.members, id); ok {
		return c.memberSlots[rank], true
	}
	s, ok := c.overflow[id]
	return s, ok
}

// Intern resolves id to a slot, allocating an external slot when the
// id has never been seen. On the steady-state path (id is a member)
// this is one binary search under a read lock and allocates nothing.
// Callers must not hold any stripe (lock order: mu before stripe).
func (c *Core[H]) Intern(id ring.Point) uint32 {
	c.mu.RLock()
	s, ok := c.lookupLocked(id)
	c.mu.RUnlock()
	if ok {
		return s
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if s, ok := c.lookupLocked(id); ok {
		return s
	}
	s = c.newSlotLocked(id)
	c.overflow[id] = s
	c.reclaimable++ // external slots are reclaimable once unreferenced
	return s
}

// SlotOf resolves an id without allocating; the second result is false
// for ids the network has never seen (or whose slot was scavenged).
func (c *Core[H]) SlotOf(id ring.Point) (uint32, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.lookupLocked(id)
}

// LiveSlot resolves an id to the slot of a live locally hosted member.
func (c *Core[H]) LiveSlot(id ring.Point) (uint32, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	rank, ok := ring.Rank(c.members, id)
	if !ok {
		return 0, false
	}
	s := c.memberSlots[rank]
	return s, c.alive[s]
}

// newSlotLocked allocates a slot for id and resets its routing state
// to the fresh-node baseline. Caller holds mu; the new slot is not yet
// live and not yet in any bridge structure.
func (c *Core[H]) newSlotLocked(id ring.Point) uint32 {
	if len(c.free) == 0 && c.reclaimable >= scavengeThreshold(c.used) {
		c.scavengeLocked()
	}
	var s uint32
	if n := len(c.free); n > 0 {
		s = c.free[n-1]
		c.free = c.free[:n-1]
		c.freeBits[s/64] &^= 1 << (s % 64)
	} else {
		if c.used == cap(c.ids) {
			next := c.used * 2
			if next < 16 {
				next = 16
			}
			c.lockAllStripes()
			c.growLocked(next)
			c.unlockAllStripes()
		}
		s = uint32(c.used)
		c.used++
		c.handles[s] = c.spec.Handle(s)
	}
	c.resetSlotLocked(s, id)
	return s
}

// resetSlotLocked gives slot s to id with fresh-node state: side state
// released, routing at the overlay's baseline. Caller holds mu; no live
// node references the slot.
func (c *Core[H]) resetSlotLocked(s uint32, id ring.Point) {
	st := c.Stripe(s)
	st.Lock()
	atomic.StoreUint64(&c.ids[s], uint64(id))
	c.spec.Release(s)
	c.spec.Reset(s)
	st.Unlock()
}

// scavengeThreshold is the dead-slot count that triggers a sweep.
func scavengeThreshold(used int) int {
	if t := used / 8; t > 64 {
		return t
	}
	return 64
}

// scavengeLocked frees every dead slot no live member references: it
// marks the slots reachable from the membership bridge and, through
// the Mark hook, from every live node's routing state, then moves
// unmarked dead slots to the free list (LIFO, so reuse order is
// deterministic), releases their side state and drops their overflow
// entries. Caller holds mu.
func (c *Core[H]) scavengeLocked() int {
	c.lockAllStripes()
	defer c.unlockAllStripes()
	marks := make(Bits, (c.used+63)/64)
	for _, s := range c.memberSlots {
		marks.Set(s)
	}
	for _, s := range c.memberSlots {
		if !c.alive[s] {
			continue // remote members of a partitioned build hold no local state
		}
		c.spec.Mark(s, marks)
	}
	freed := 0
	for s := uint32(0); int(s) < c.used; s++ {
		if c.alive[s] || marks.Has(s) || c.freeBits.Has(s) {
			continue
		}
		c.free = append(c.free, s)
		c.freeBits.Set(s)
		c.spec.Release(s)
		freed++
	}
	if freed > 0 {
		for id, s := range c.overflow {
			if c.freeBits.Has(s) {
				delete(c.overflow, id)
			}
		}
	}
	c.reclaimable -= freed
	if c.reclaimable < 0 {
		c.reclaimable = 0
	}
	return freed
}

// Scavenge forces one slot-recycling sweep and reports how many dead
// slots were freed for reuse. The network runs sweeps automatically
// once enough reclaimable slots accumulate; tests and operators use
// this to observe recycling deterministically.
func (c *Core[H]) Scavenge() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.scavengeLocked()
}

// StorageStats reports the flat storage layout's occupancy.
type StorageStats struct {
	// Slots is the arena size: every node ever seen occupies one slot
	// until scavenged.
	Slots int
	// Live is the number of slots hosting live locally hosted members.
	Live int
	// Free is the number of recycled slots awaiting reuse.
	Free int
	// Reclaimable is the number of dead slots not yet recycled (they
	// free once no live node's routing state references them).
	Reclaimable int
}

// StorageStats returns the current slot-arena occupancy.
func (c *Core[H]) StorageStats() StorageStats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	live := 0
	for _, s := range c.memberSlots {
		if c.alive[s] {
			live++
		}
	}
	return StorageStats{
		Slots:       c.used,
		Live:        live,
		Free:        len(c.free),
		Reclaimable: c.reclaimable,
	}
}

// ownsID reports whether this network currently hosts a live node with
// the given transport id; the transport's bulk-registration path
// consults it in place of a per-node handler table.
func (c *Core[H]) ownsID(id simnet.NodeID) bool {
	_, ok := c.LiveSlot(ring.Point(id))
	return ok
}

// dispatchAny routes a bulk-registered RPC to its destination slot.
// Crashed nodes remain resolvable through the overflow map until
// scavenged, so an in-flight RPC that won the transport's liveness
// check still reaches the node's frozen state, exactly as a registered
// handler keeps answering until deregistration takes effect.
func (c *Core[H]) dispatchAny(to, from simnet.NodeID, msg simnet.Message) (simnet.Message, error) {
	s, ok := c.SlotOf(ring.Point(to))
	if !ok {
		return nil, fmt.Errorf("%w: %d", simnet.ErrUnknownNode, to)
	}
	return c.spec.Serve(s, from, msg)
}

// idHandler returns the per-node registration closure for transports
// without bulk registration. It captures the identifier, never the
// slot: the slot is resolved per call, so slot recycling cannot
// misroute a stale registration.
func (c *Core[H]) idHandler(id ring.Point) simnet.Handler {
	return func(from simnet.NodeID, msg simnet.Message) (simnet.Message, error) {
		s, ok := c.SlotOf(id)
		if !ok {
			return nil, fmt.Errorf("%w: %d", simnet.ErrUnknownNode, simnet.NodeID(id))
		}
		return c.spec.Serve(s, from, msg)
	}
}

// register installs id's per-node handler when the transport has no
// bulk registration.
func (c *Core[H]) register(id ring.Point) error {
	if c.multi {
		return nil
	}
	if err := c.tr.Register(simnet.NodeID(id), c.idHandler(id)); err != nil {
		return fmt.Errorf("%s: registering node %v: %w", c.spec.Name, id, err)
	}
	return nil
}

// Transport returns the underlying transport (for meters and faults).
func (c *Core[H]) Transport() simnet.Transport { return c.tr }

// Meter returns the transport's cost meter.
func (c *Core[H]) Meter() *simnet.Meter { return c.tr.Meter() }

// Call performs one RPC through the transport.
func (c *Core[H]) Call(from, to ring.Point, msg simnet.Message) (simnet.Message, error) {
	return c.tr.Call(simnet.NodeID(from), simnet.NodeID(to), msg)
}

// Node returns the live node with the given id. The returned handle
// points into the preconstructed handle table, so the call allocates
// nothing.
func (c *Core[H]) Node(id ring.Point) (*H, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if rank, ok := ring.Rank(c.members, id); ok {
		if s := c.memberSlots[rank]; c.alive[s] {
			return &c.handles[s], nil
		}
	}
	return nil, fmt.Errorf("%w: %v", c.spec.ErrNotFound, id)
}

// Members returns the ids of all live nodes in sorted order. The
// returned slice is a shared immutable snapshot — callers must not
// modify it. Join/crash never re-sorts and never invalidates: each
// installs a fresh spliced copy (copy-on-write), so a held snapshot
// stays internally consistent across later churn and a call here is a
// read-locked pointer fetch even at n = 10^6 under sustained churn.
func (c *Core[H]) Members() []ring.Point {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.members
}

// Epoch returns the membership epoch: it increments on every join and
// crash, so two equal readings around a Members call certify the
// snapshot is current.
func (c *Core[H]) Epoch() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.epoch
}

// NumAlive returns the number of live nodes. The membership snapshot
// holds exactly the live nodes (Crash removes before marking dead), so
// this is the snapshot length.
func (c *Core[H]) NumAlive() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.members)
}

// AddNode allocates (or recycles) a slot for id, registers it on the
// transport when per-node registration is in use, and splices it into
// the live membership with fresh-node routing state. The overlay's join
// protocol then wires it into the routing structure.
func (c *Core[H]) AddNode(id ring.Point) (*H, error) {
	// Register before taking the network lock: the transport may
	// consult its own locks, and registration order is observable to
	// concurrent callers.
	if err := c.register(id); err != nil {
		return nil, err
	}
	c.mu.Lock()
	rank, found := ring.Rank(c.members, id)
	if found {
		c.mu.Unlock()
		if !c.multi {
			c.tr.Deregister(simnet.NodeID(id))
		}
		return nil, fmt.Errorf("%w: %v", c.spec.ErrExists, id)
	}
	s, ok := c.overflow[id]
	if ok {
		// The id had a zombie or external slot: reclaim it for the
		// rejoining node with fresh baseline state.
		delete(c.overflow, id)
		if c.reclaimable > 0 {
			c.reclaimable--
		}
		c.resetSlotLocked(s, id)
	} else {
		s = c.newSlotLocked(id)
	}
	c.alive[s] = true
	c.members = spliceIn(c.members, rank, id)
	c.memberSlots = spliceIn(c.memberSlots, rank, s)
	c.epoch++
	nd := &c.handles[s]
	c.mu.Unlock()
	return nd, nil
}

// Crash removes a node abruptly: it leaves the live membership and
// every new RPC to it fails until the overlay's maintenance routes
// around it. Its slot parks in the overflow map (state frozen, still
// answering RPCs already in flight) until the scavenger recycles it.
func (c *Core[H]) Crash(id ring.Point) error {
	c.mu.Lock()
	rank, ok := ring.Rank(c.members, id)
	var s uint32
	if ok {
		s = c.memberSlots[rank]
		if !c.alive[s] {
			ok = false // partitioned build: the member is hosted elsewhere
		}
	}
	if ok {
		c.members = ring.RemoveSorted(c.members, id)
		c.memberSlots = spliceOut(c.memberSlots, rank)
		c.alive[s] = false
		c.overflow[id] = s
		c.reclaimable++
		c.epoch++
	}
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %v", c.spec.ErrNotFound, id)
	}
	if !c.multi {
		c.tr.Deregister(simnet.NodeID(id))
	}
	return nil
}

// InstallStatic is the skeleton of a static build: it sizes the arena
// once and gives the sorted membership slots 0..len-1 in ring order
// (slot i hosts sorted[i]) at the routing baseline. Only the ids owned
// selects (all when owned is nil) are marked live and registered; the
// others are members hosted by peer processes. It returns the ring
// indices of the owned slots, whose routing state the overlay then
// fills — a pure function of (sorted membership, index), so the fill
// can run over parallel shards with no locks. The core must be fresh
// and unpublished.
func (c *Core[H]) InstallStatic(sorted []ring.Point, owned func(ring.Point) bool) ([]int, error) {
	size := len(sorted)
	c.growLocked(size)
	c.used = size
	c.memberSlots = make([]uint32, size)
	ownedIdx := make([]int, 0, size)
	for i, id := range sorted {
		s := uint32(i)
		c.memberSlots[i] = s
		c.ids[s] = uint64(id)
		c.handles[s] = c.spec.Handle(s)
		c.spec.Reset(s)
		if owned != nil && !owned(id) {
			continue
		}
		c.alive[s] = true
		if err := c.register(id); err != nil {
			return nil, err
		}
		ownedIdx = append(ownedIdx, i)
	}
	c.members = sorted
	c.epoch++
	return ownedIdx, nil
}

// spliceIn returns a copy of s with v inserted at index i
// (copy-on-write, the aligned-snapshot counterpart of
// ring.InsertSorted).
func spliceIn[T any](s []T, i int, v T) []T {
	out := make([]T, len(s)+1)
	copy(out, s[:i])
	out[i] = v
	copy(out[i+1:], s[i:])
	return out
}

// spliceOut returns a copy of s with index i removed (copy-on-write).
func spliceOut[T any](s []T, i int) []T {
	out := make([]T, len(s)-1)
	copy(out, s[:i])
	copy(out[i:], s[i+1:])
	return out
}
