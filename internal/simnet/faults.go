package simnet

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
)

// Faults injects failures into a transport. The zero value injects
// nothing. A plan composes three fault families, checked in this order
// for every RPC:
//
//  1. dead nodes (SetDead) — ErrNodeDead,
//  2. named partitions (Partition/Heal) — ErrPartitioned when source and
//     destination sit in different groups of any installed partition,
//  3. the drop rate (SetDropRate) — ErrDropped.
//
// All methods are safe for concurrent use. When no fault is installed,
// Check costs one atomic load, so a plan can stay permanently attached
// to a hot transport.
type Faults struct {
	mu       sync.Mutex
	dead     map[NodeID]bool
	dropRate float64
	parts    map[string]partition
	rng      *rand.Rand

	// active is false while the plan injects nothing, letting Check
	// return before taking the mutex. Every mutator refreshes it.
	active atomic.Bool
}

// partition maps each member node to its group index; nodes absent from
// the map are not isolated by this partition.
type partition map[NodeID]int

// NewFaults returns a fault plan using rng for drop decisions. A nil
// rng is valid: the first probabilistic decision lazily seeds a fixed
// deterministic PCG, so NewFaults(nil) followed by SetDropRate drops
// messages reproducibly. Pass an explicit rng to control the decision
// stream (e.g. to fork it per scenario).
func NewFaults(rng *rand.Rand) *Faults {
	return &Faults{dead: make(map[NodeID]bool), rng: rng}
}

// refresh recomputes the fast-path flag (caller holds f.mu).
func (f *Faults) refresh() {
	f.active.Store(len(f.dead) > 0 || f.dropRate > 0 || len(f.parts) > 0)
}

// SetDead marks a node dead or alive. RPCs to a dead node fail with
// ErrNodeDead without reaching its handler.
func (f *Faults) SetDead(id NodeID, dead bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dead == nil {
		f.dead = make(map[NodeID]bool)
	}
	if dead {
		f.dead[id] = true
	} else {
		delete(f.dead, id)
	}
	f.refresh()
}

// SetDropRate sets the probability that any RPC is dropped in flight
// (failing with ErrDropped). Rates outside [0,1] are clamped. Drop
// decisions use the plan's rng, lazily seeded with a fixed PCG when
// NewFaults was given nil — a non-zero rate always drops.
func (f *Faults) SetDropRate(rate float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.dropRate = clampRate(rate)
	f.refresh()
}

// Partition installs (or replaces) a named partition: nodes in
// different groups cannot exchange RPCs (both directions fail with
// ErrPartitioned) until Heal removes it. Nodes listed in no group are
// unaffected by this partition. Multiple named partitions compose: an
// RPC is blocked if any installed partition separates its endpoints.
// Schedule Partition/Heal from sim.Kernel callbacks to cut and heal the
// network at chosen virtual times.
func (f *Faults) Partition(name string, groups ...[]NodeID) {
	p := make(partition)
	for g, nodes := range groups {
		for _, id := range nodes {
			p[id] = g
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.parts == nil {
		f.parts = make(map[string]partition)
	}
	f.parts[name] = p
	f.refresh()
}

// Heal removes the named partition; unknown names are a no-op.
func (f *Faults) Heal(name string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.parts, name)
	f.refresh()
}

// Partitioned reports whether an installed partition currently
// separates from and to.
func (f *Faults) Partitioned(from, to NodeID) bool {
	if f == nil || !f.active.Load() {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.partitioned(from, to)
}

// partitioned is the lock-held separation check.
func (f *Faults) partitioned(from, to NodeID) bool {
	for _, p := range f.parts {
		gf, okf := p[from]
		gt, okt := p[to]
		if okf && okt && gf != gt {
			return true
		}
	}
	return false
}

// Check returns the error the fault plan injects for an RPC from
// "from" to "to", or nil to let it through. Transports
// call it once per RPC; it is exported so that transports outside this
// package (internal/sim, tests) share the same fault plans. A nil or
// empty plan costs one nil check plus one atomic load.
func (f *Faults) Check(from, to NodeID) error {
	if f == nil || !f.active.Load() {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dead[to] {
		return ErrNodeDead
	}
	if len(f.parts) > 0 && f.partitioned(from, to) {
		return ErrPartitioned
	}
	if f.roll(f.dropRate) {
		return ErrDropped
	}
	return nil
}

// roll decides one drop with probability rate (caller holds f.mu). It
// lazily seeds the deterministic fallback PCG so plans built with
// NewFaults(nil) still drop — the bug class where a configured rate
// silently did nothing.
func (f *Faults) roll(rate float64) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	if f.rng == nil {
		f.rng = rand.New(rand.NewPCG(0x6b696e67, 0x73616961))
	}
	return f.rng.Float64() < rate
}

// clampRate clamps a probability into [0,1].
func clampRate(rate float64) float64 {
	if rate < 0 {
		return 0
	}
	if rate > 1 {
		return 1
	}
	return rate
}
