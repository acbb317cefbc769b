package overlay

import (
	"errors"
	"fmt"
	"sync/atomic"

	"github.com/dht-sampling/randompeer/internal/dht"
	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/simnet"
)

// Router is the routing an overlay supplies to the DHT adapter.
type Router struct {
	// Resolve returns h(x) as resolved from node from: the peer whose
	// point is the clockwise successor of x.
	Resolve func(from, x ring.Point) (ring.Point, error)
	// Successor returns next(of), asked of node of by from: one pointer
	// chase.
	Successor func(from, of ring.Point) (ring.Point, error)
	// Neighbors returns the overlay edges of live node id, the graph
	// random-walk samplers traverse.
	Neighbors func(id ring.Point) ([]ring.Point, error)
}

// source is the slice of a Core the adapter reads.
type source interface {
	Members() []ring.Point
	Meter() *simnet.Meter
}

// DHT adapts an overlay network, viewed from one caller node, to the
// paper's abstract DHT model: H is the overlay's routed lookup and Next
// one successor RPC, every RPC charged on the transport meter.
type DHT struct {
	name   string
	net    source
	route  *Router
	caller ring.Point
	// sorted is the membership snapshot owner indices are derived from:
	// a peer's owner index is its rank here (binary search), so the
	// adapter carries no per-peer map — at 10^7 peers a map[Point]int
	// would cost more memory than the overlay itself. The snapshot is
	// immutable, so a pointer swap publishes it and every Next reads it
	// without writing a lock word: views of concurrent workers are
	// allocated side by side and would otherwise share a cache line.
	sorted atomic.Pointer[[]ring.Point]
}

var _ dht.DHT = (*DHT)(nil)

// AsDHT returns the network viewed from the given caller node. The
// owner index of each peer is its rank in the current sorted
// membership; call RefreshOwners after churn to re-derive it.
func (c *Core[H]) AsDHT(caller ring.Point) (*DHT, error) {
	if _, ok := c.LiveSlot(caller); !ok {
		return nil, fmt.Errorf("%w: %v", c.spec.ErrNotFound, caller)
	}
	d := &DHT{name: c.spec.Name, net: c, route: &c.spec.Router, caller: caller}
	d.RefreshOwners()
	return d, nil
}

// RefreshOwners re-snapshots the membership the owner indices are
// ranked against (global knowledge used only for experiment tallying,
// never by the protocol or the samplers). The snapshot is the network's
// immutable copy-on-write membership slice, so this is a pointer fetch,
// not a rebuild.
func (d *DHT) RefreshOwners() {
	members := d.net.Members()
	d.sorted.Store(&members)
}

// Self returns the caller as a peer.
func (d *DHT) Self() dht.Peer { return d.peerOf(d.caller) }

// H implements dht.DHT via the overlay's routed lookup.
func (d *DHT) H(x ring.Point) (dht.Peer, error) {
	owner, err := d.route.Resolve(d.caller, x)
	if err != nil {
		return dht.Peer{}, fmt.Errorf("%s dht: h(%v): %w", d.name, x, err)
	}
	return d.peerOf(owner), nil
}

// Next implements dht.DHT via one get-successor RPC to p. A p the
// transport knows no node for fails with both dht.ErrUnknownPeer (the
// DHT contract) and simnet.ErrUnknownNode (its transport class).
func (d *DHT) Next(p dht.Peer) (dht.Peer, error) {
	succ, err := d.route.Successor(d.caller, p.Point)
	if err != nil {
		if errors.Is(err, simnet.ErrUnknownNode) {
			return dht.Peer{}, fmt.Errorf("%s dht: next(%v): %w: %w", d.name, p.Point, dht.ErrUnknownPeer, err)
		}
		return dht.Peer{}, fmt.Errorf("%s dht: next(%v): %w", d.name, p.Point, err)
	}
	return d.peerOf(succ), nil
}

// Size implements dht.DHT.
func (d *DHT) Size() int { return len(*d.sorted.Load()) }

// Owners implements dht.DHT. Overlays host one point per peer.
func (d *DHT) Owners() int { return d.Size() }

// Meter implements dht.DHT.
func (d *DHT) Meter() *simnet.Meter { return d.net.Meter() }

func (d *DHT) peerOf(id ring.Point) dht.Peer {
	owner := -1
	if rank, ok := ring.Rank(*d.sorted.Load(), id); ok {
		owner = rank
	}
	return dht.Peer{Point: id, Owner: owner}
}

// NeighborsOf returns the overlay neighbors of the node at p, as peers.
// Random-walk samplers traverse these edges; the per-step RPC cost is
// charged by the walker.
func (d *DHT) NeighborsOf(p dht.Peer) ([]dht.Peer, error) {
	points, err := d.route.Neighbors(p.Point)
	if err != nil {
		return nil, fmt.Errorf("%s dht: neighbors of %v: %w", d.name, p.Point, err)
	}
	out := make([]dht.Peer, len(points))
	for i, pt := range points {
		out[i] = d.peerOf(pt)
	}
	return out, nil
}
