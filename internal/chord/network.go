package chord

import (
	"errors"
	"fmt"
	"sync"

	"github.com/dht-sampling/randompeer/internal/overlay"
	"github.com/dht-sampling/randompeer/internal/parallel"
	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/simnet"
)

// Config parameterizes a Chord network.
type Config struct {
	// SuccListLen is the successor-list length r; Chord remains connected
	// w.h.p. while fewer than r consecutive successors fail between
	// stabilization rounds. Default 8.
	SuccListLen int
	// MaxLookupHops aborts lookups that fail to converge (possible only
	// while the ring is badly damaged). Default 256.
	MaxLookupHops int
	// DisableFingers turns off finger tables: routing falls back to
	// successor lists, making lookups Theta(n/SuccListLen) hops. This
	// models a minimal ring-only DHT and demonstrates Theorem 7's t_h
	// dependence — the sampler inherits whatever lookup cost the DHT
	// has. Set MaxLookupHops accordingly. Finger-disabled networks also
	// skip the finger arrays entirely, cutting the per-node footprint
	// by idBits slot references.
	DisableFingers bool
}

func (c Config) withDefaults() Config {
	if c.SuccListLen <= 0 {
		c.SuccListLen = 8
	}
	if c.MaxLookupHops <= 0 {
		c.MaxLookupHops = 256
	}
	return c
}

// Network is a collection of Chord nodes sharing one simulated
// transport. The embedded overlay.Core holds the slot arena, the
// membership and the transport binding; chord's per-slot routing arrays
// live beside it in st (see arena.go). Nodes are addressed internally by
// dense uint32 slot and externally by ring.Point identifier.
type Network struct {
	overlay.Core[Node]
	cfg Config
	// succStride is the row width of the packed successor-list array
	// (cfg.SuccListLen after defaulting).
	succStride int
	st         routing

	// stores holds per-slot key/value items (primaries + replicas),
	// keyed by slot. Most nodes store nothing, so a side map beats a
	// per-slot field. Guarded by storeMu, which nests inside any other
	// lock (it is taken last and held across no calls).
	storeMu sync.RWMutex
	stores  map[uint32]map[ring.Point][]byte
}

// Chord error conditions.
var (
	ErrNodeExists    = errors.New("chord: node already exists")
	ErrNodeNotFound  = errors.New("chord: node not found")
	ErrLookupAborted = errors.New("chord: lookup aborted")
	ErrEmptyNetwork  = errors.New("chord: network has no live nodes")
)

// NewNetwork creates an empty Chord network over the given transport.
func NewNetwork(cfg Config, tr simnet.Transport) *Network {
	cfg = cfg.withDefaults()
	n := &Network{
		cfg:        cfg,
		succStride: cfg.SuccListLen,
		stores:     make(map[uint32]map[ring.Point][]byte),
	}
	n.Init(tr, overlay.Spec[Node]{
		Name:        "chord",
		ErrExists:   ErrNodeExists,
		ErrNotFound: ErrNodeNotFound,
		Handle:      func(s uint32) Node { return Node{net: n, slot: s} },
		Serve:       n.handleRPC,
		Grow:        n.growRouting,
		Reset:       n.resetRouting,
		Mark:        n.markRouting,
		Release:     n.dropStore,
		Router: overlay.Router{
			Resolve:   n.Lookup,
			Successor: n.Successor,
			Neighbors: func(id ring.Point) ([]ring.Point, error) {
				nd, err := n.Node(id)
				if err != nil {
					return nil, err
				}
				return nd.Neighbors(), nil
			},
		},
	})
	return n
}

// Create starts the first node of a fresh ring.
func (n *Network) Create(id ring.Point) (*Node, error) {
	return n.AddNode(id)
}

// Join adds a node to the ring through the existing node via, per the
// Chord join protocol: resolve the new node's successor with a lookup,
// adopt its successor list, and let stabilization integrate the rest.
func (n *Network) Join(id, via ring.Point) (*Node, error) {
	if _, ok := n.LiveSlot(id); ok {
		return nil, fmt.Errorf("%w: %v", ErrNodeExists, id)
	}
	succ, err := n.Lookup(via, id)
	if err != nil {
		return nil, fmt.Errorf("chord: join of %v via %v: %w", id, via, err)
	}
	return n.finishJoin(id, succ)
}

// JoinVia adds a locally hosted node to a ring whose bootstrap contact
// may live on another process: the successor is resolved by routing
// through bootstrap over the transport (lookupVia) instead of
// initiating at a local node. It is the join path wire-transport
// daemons use.
func (n *Network) JoinVia(id, bootstrap ring.Point) (*Node, error) {
	if _, ok := n.LiveSlot(id); ok {
		return nil, fmt.Errorf("%w: %v", ErrNodeExists, id)
	}
	succ, err := n.lookupVia(id, bootstrap, id)
	if err != nil {
		return nil, fmt.Errorf("chord: join of %v via remote %v: %w", id, bootstrap, err)
	}
	return n.finishJoin(id, succ)
}

// finishJoin integrates a freshly resolved joiner below its successor:
// register the node, adopt the successor's list, and announce.
func (n *Network) finishJoin(id, succ ring.Point) (*Node, error) {
	nd, err := n.AddNode(id)
	if err != nil {
		return nil, err
	}
	var tail []ring.Point
	if resp, err := n.Call(id, succ, succListReq{}); err == nil {
		tail = resp.(succListResp).List
	}
	nd.setSuccessors(succ, tail)
	// Announce ourselves; the successor adopts us as predecessor if we
	// are closer than its current one.
	if _, err := n.Call(id, succ, notifyReq{Candidate: id}); err != nil {
		// The successor crashed between lookup and notify; stabilization
		// will repair via the successor list.
		nd.advanceSuccessor(succ)
	}
	return nd, nil
}

// Lookup resolves the successor of key, initiated at node from, using
// iterative finger-table routing. The first routing step executes
// locally at the initiator (no RPC), subsequent steps cost one RPC each;
// with correct fingers the total is O(log n) RPCs.
//
// The request envelope is boxed once for the whole lookup (the key
// never changes hop to hop), every reply is drained into locals and
// recycled before the next RPC, and the backup-candidate scratch is a
// fixed-size array — the routing loop allocates nothing per hop.
func (n *Network) Lookup(from, key ring.Point) (ring.Point, error) {
	initiator, err := n.Node(from)
	if err != nil {
		return 0, err
	}
	return n.route(initiator, from, key, initiator.handleNextHop(nextHopReq{Key: key}))
}

// lookupVia resolves the successor of key by routing through start,
// which may be hosted on another process: the first routing step is an
// RPC to start instead of a local table read, so no local node is
// required. from identifies the caller on the transport; it need not
// be registered anywhere (a joiner uses its own id).
func (n *Network) lookupVia(from, start, key ring.Point) (ring.Point, error) {
	raw, err := n.Call(from, start, nextHopReq{Key: key})
	if err != nil {
		return 0, fmt.Errorf("%w: bootstrap %v unreachable: %v", ErrLookupAborted, start, err)
	}
	return n.route(nil, from, key, raw.(*nextHopResp))
}

// route consumes resp (recycling it) and follows the candidate chain
// to the key's successor. initiator, when non-nil, has its fingers
// invalidated as dead hops are discovered.
func (n *Network) route(initiator *Node, from, key ring.Point, resp *nextHopResp) (ring.Point, error) {
	req := simnet.Message(nextHopReq{Key: key})
	var backup [maxCandidates - 1]ring.Point
	for hop := 0; hop < n.cfg.MaxLookupHops; hop++ {
		if resp.Done {
			succ := resp.Succ
			putNextHopResp(resp)
			return succ, nil
		}
		if resp.N == 0 {
			putNextHopResp(resp)
			return 0, fmt.Errorf("%w: no route toward %v", ErrLookupAborted, key)
		}
		cur := resp.Cands[0]
		nBackup := copy(backup[:], resp.Cands[1:resp.N])
		putNextHopResp(resp)
		next := 0
		for {
			raw, err := n.Call(from, cur, req)
			if err == nil {
				resp = raw.(*nextHopResp)
				break
			}
			if initiator != nil {
				initiator.invalidateFingersTo(cur)
			}
			if next >= nBackup {
				// Double-wrap so callers can match both the lookup
				// abort and the transport-level cause (ErrDropped,
				// ErrPartitioned) behind it.
				return 0, fmt.Errorf("%w: all routes toward %v failed: %w", ErrLookupAborted, key, err)
			}
			cur = backup[next]
			next++
		}
	}
	putNextHopResp(resp)
	return 0, fmt.Errorf("%w: exceeded %d hops toward %v", ErrLookupAborted, n.cfg.MaxLookupHops, key)
}

// Successor returns the immediate successor of node id by asking it (one
// RPC), which is the paper's next(p) primitive.
func (n *Network) Successor(from, of ring.Point) (ring.Point, error) {
	raw, err := n.Call(from, of, getSuccessorReq{})
	if err != nil {
		return 0, fmt.Errorf("chord: successor of %v: %w", of, err)
	}
	resp := raw.(*pointResp)
	p := resp.P
	putPointResp(resp)
	return p, nil
}

// StabilizeNode runs one stabilize + notify round for node id, repairing
// its successor pointer and refreshing its successor list.
func (n *Network) StabilizeNode(id ring.Point) error {
	nd, err := n.Node(id)
	if err != nil {
		return err
	}
	succ := nd.Successor()
	if succ == id {
		// Lost all successors: try to rejoin through any other live node.
		if other, ok := n.anyOtherNode(id); ok {
			if target, err := n.Lookup(other, id); err == nil && target != id {
				nd.setSuccessors(target, nil)
				succ = target
			}
		}
	}
	raw, err := n.Call(id, succ, getPredecessorReq{})
	if err != nil {
		nd.advanceSuccessor(succ)
		nd.invalidateFingersTo(succ)
		return nil // repaired; next round continues
	}
	pr := *raw.(*pointResp)
	putPointResp(raw.(*pointResp))
	if pr.Has && betweenExcl(id, succ, pr.P) {
		// The successor knows a node between us: adopt it if reachable.
		if _, err := n.Call(id, pr.P, pingReq{}); err == nil {
			succ = pr.P
		}
	}
	var tail []ring.Point
	if raw, err := n.Call(id, succ, succListReq{}); err == nil {
		tail = raw.(succListResp).List
	} else {
		nd.advanceSuccessor(succ)
		return nil
	}
	nd.setSuccessors(succ, tail)
	if _, err := n.Call(id, succ, notifyReq{Candidate: id}); err != nil {
		nd.advanceSuccessor(succ)
	}
	return nil
}

// FixFinger refreshes one finger of node id (cycling through indices).
// It is a no-op on finger-disabled networks.
func (n *Network) FixFinger(id ring.Point) error {
	if n.cfg.DisableFingers {
		return nil
	}
	nd, err := n.Node(id)
	if err != nil {
		return err
	}
	a := &n.st
	st := n.Stripe(nd.slot)
	st.Lock()
	k := int(a.nextFix[nd.slot])
	a.nextFix[nd.slot] = uint8((k + 1) % idBits)
	st.Unlock()
	target, err := n.Lookup(id, nd.fingerStart(k))
	if err != nil {
		return nil // ring damaged; retry on a later round
	}
	nd.setFinger(k, target)
	return nil
}

// CheckPredecessor probes node id's predecessor and clears it if dead.
func (n *Network) CheckPredecessor(id ring.Point) error {
	nd, err := n.Node(id)
	if err != nil {
		return err
	}
	pred, has := nd.Predecessor()
	if !has {
		return nil
	}
	if _, err := n.Call(id, pred, pingReq{}); err != nil {
		nd.clearPredecessor()
	}
	return nil
}

// RunMaintenance executes the given number of synchronous maintenance
// rounds. In each round every live node (in sorted order, for
// determinism) stabilizes, checks its predecessor, and fixes
// fingersPerRound fingers. Enough rounds after churn restore a perfect
// ring; tests assert this invariant via VerifyRing.
func (n *Network) RunMaintenance(rounds, fingersPerRound int) {
	for r := 0; r < rounds; r++ {
		for _, id := range n.Members() {
			// Ignore per-node errors: nodes may crash mid-round; the
			// surviving nodes keep repairing.
			_ = n.StabilizeNode(id)
			_ = n.CheckPredecessor(id)
			for f := 0; f < fingersPerRound; f++ {
				_ = n.FixFinger(id)
			}
		}
	}
}

// anyOtherNode returns a live node other than id, if one exists. It
// picks the smallest id rather than an arbitrary choice so that repair
// behaviour — and therefore whole simulations — is a deterministic
// function of network state; with the sorted snapshot that is the first
// entry not equal to id, an O(1) read.
func (n *Network) anyOtherNode(id ring.Point) (ring.Point, bool) {
	members := n.Members()
	if len(members) == 0 {
		return 0, false
	}
	if members[0] != id {
		return members[0], true
	}
	if len(members) > 1 {
		return members[1], true
	}
	return 0, false
}

// BuildStatic constructs a fully stabilized ring over the given points in
// one step: successors, predecessors, successor lists and all fingers are
// computed directly. It is the starting state for experiments that study
// the sampler rather than ring convergence.
//
// Construction is bulk and parallel: the arena is sized once, slots are
// assigned in ring order (slot i hosts the i-th point), and per-slot
// routing state — pure index arithmetic on (sorted ring, i) — is
// populated over contiguous worker shards with no interning, no locks
// and no per-node allocation. The result is bit-identical to the
// sequential build at any GOMAXPROCS, which the determinism tests
// assert; a 10^7-peer ring constructs in well under a minute on one
// core and occupies a few GB.
func BuildStatic(cfg Config, tr simnet.Transport, points []ring.Point) (*Network, error) {
	return BuildStaticPartition(cfg, tr, points, nil)
}

// BuildStaticPartition constructs the local shard of a stabilized ring
// that spans multiple processes: the full membership defines every
// node's routing state, but only the nodes selected by owned are marked
// live (and registered, on per-node transports) on this process. The
// other points must be hosted by peer processes reachable through the
// transport (the wire transport routes by node id). A nil owned
// predicate owns everything, which is exactly BuildStatic.
//
// Per-node routing state is a pure function of (sorted membership,
// index), so every process computes identical state for its shard and
// the union across processes is bit-identical to the single-process
// build.
func BuildStaticPartition(cfg Config, tr simnet.Transport, points []ring.Point, owned func(ring.Point) bool) (*Network, error) {
	r, err := ring.New(points)
	if err != nil {
		return nil, fmt.Errorf("chord: building static ring: %w", err)
	}
	n := NewNetwork(cfg, tr)
	ownedIdx, err := n.InstallStatic(r.Points(), owned)
	if err != nil {
		return nil, err
	}
	parallel.Shards(len(ownedIdx), parallel.Workers(len(ownedIdx)), func(lo, hi int) {
		for j := lo; j < hi; j++ {
			n.fillStaticSlot(r, ownedIdx[j])
		}
	})
	return n, nil
}

// fillStaticSlot computes the stabilized routing state of the node at
// ring index i (slot i, by construction). It runs during BuildStatic's
// sharded phase: the slot is owned exclusively by one worker and
// published by the shard barrier, so no locks are taken — and because
// slot and ring index coincide, every successor, predecessor and finger
// reference is plain index arithmetic with no ID translation at all.
func (n *Network) fillStaticSlot(r *ring.Ring, i int) {
	a := &n.st
	s := uint32(i)
	size := r.Len()
	base := i * n.succStride
	a.succs[base] = uint32(r.NextIndex(i))
	cnt := 1
	for k := 2; k <= n.cfg.SuccListLen && k < size; k++ {
		a.succs[base+cnt] = uint32((i + k) % size)
		cnt++
	}
	a.succLen[s] = uint16(cnt)
	if size > 1 {
		a.preds[s] = uint32(r.PrevIndex(i))
	}
	if n.cfg.DisableFingers {
		return
	}
	// Finger k points at the successor of id + 2^k. The targets'
	// clockwise distances are strictly increasing, so their owners
	// advance monotonically around the ring: gallop from the previous
	// finger's offset instead of paying a full binary search per finger.
	// Offset 0 means the successor wrapped all the way back to the node
	// itself (no peer at clockwise distance >= 2^k) — once that happens
	// it holds for every larger k.
	off := 1
	fb := i * idBits
	for k := 0; k < idBits; k++ {
		if off != 0 {
			off = succOffset(r, i, uint64(1)<<uint(k), off)
		}
		if off == 0 {
			a.fingers[fb+k] = s
		} else {
			a.fingers[fb+k] = uint32((i + off) % size)
		}
	}
	a.fingOK[s] = ^uint64(0)
}

// succOffset returns the clockwise offset from node i of the successor
// of r.At(i) + d, galloping right from prev (the previous finger's
// offset, ≥ 1). Offset 0 reports that no peer lies at clockwise
// distance >= d, in which case the successor is node i itself.
func succOffset(r *ring.Ring, i int, d uint64, prev int) int {
	size := r.Len()
	if size == 1 {
		return 0
	}
	id := r.At(i)
	dist := func(off int) uint64 { return ring.Distance(id, r.At((i+off)%size)) }
	if dist(prev) >= d {
		return prev
	}
	// Exponential bracket: dist(lo) < d <= dist(right).
	lo, step := prev, 1
	right := lo + 1
	for right <= size-1 && dist(right) < d {
		lo = right
		right += step
		step <<= 1
	}
	if right > size-1 {
		right = size - 1
		if dist(right) < d {
			return 0
		}
	}
	for right-lo > 1 {
		mid := int(uint(lo+right) >> 1)
		if dist(mid) >= d {
			right = mid
		} else {
			lo = mid
		}
	}
	return right
}

// VerifyFingers checks every live node's set fingers against the
// current membership: finger k must point at the live successor of
// id + 2^k. Unset fingers are ignored (they only cost lookup hops, not
// correctness). It returns nil when every set finger is correct, which
// is the state RunMaintenance converges to once every node has cycled
// through all 64 fingers.
func (n *Network) VerifyFingers() error {
	members := n.Members()
	if len(members) == 0 {
		return ErrEmptyNetwork
	}
	r, err := ring.New(members)
	if err != nil {
		return err
	}
	for _, id := range members {
		nd, err := n.Node(id)
		if err != nil {
			return err
		}
		for k := 0; k < idBits; k++ {
			finger, ok := nd.Finger(k)
			if !ok {
				continue
			}
			want := r.At(r.Successor(nd.fingerStart(k)))
			if finger != want {
				return fmt.Errorf("chord: node %v finger %d = %v, want %v", id, k, finger, want)
			}
		}
	}
	return nil
}

// VerifyRing checks global ring consistency: following successor
// pointers from the smallest live node must visit every live node
// exactly once in sorted order, and each predecessor must match. It
// returns nil when the ring is perfect.
func (n *Network) VerifyRing() error {
	members := n.Members()
	if len(members) == 0 {
		return ErrEmptyNetwork
	}
	for i, id := range members {
		nd, err := n.Node(id)
		if err != nil {
			return err
		}
		wantSucc := members[(i+1)%len(members)]
		if got := nd.Successor(); got != wantSucc {
			return fmt.Errorf("chord: node %v successor = %v, want %v", id, got, wantSucc)
		}
		if len(members) > 1 {
			wantPred := members[(i-1+len(members))%len(members)]
			pred, has := nd.Predecessor()
			if !has {
				return fmt.Errorf("chord: node %v has no predecessor", id)
			}
			if pred != wantPred {
				return fmt.Errorf("chord: node %v predecessor = %v, want %v", id, pred, wantPred)
			}
		}
	}
	return nil
}
