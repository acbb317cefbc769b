package kademlia

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"github.com/dht-sampling/randompeer/internal/overlay"
	"github.com/dht-sampling/randompeer/internal/parallel"
	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/simnet"
)

// Config parameterizes a Kademlia network.
type Config struct {
	// BucketSize is Kademlia's k: the capacity of each k-bucket and the
	// closeness of FIND_NODE results. Default 16.
	BucketSize int
	// Alpha is the lookup parallelism: the number of candidates queried
	// per lookup round. Default 3.
	Alpha int
	// MaxLookupRounds aborts iterative lookups that fail to converge
	// (possible only with badly damaged routing tables). Default 128.
	MaxLookupRounds int
	// MaxChaseSteps caps the ring-pointer walk that turns an XOR-routed
	// lookup into the clockwise owner (see ResolveOwner). Zero means
	// "number of live nodes plus slack", the tight correctness bound.
	MaxChaseSteps int
}

func (c Config) withDefaults() Config {
	if c.BucketSize <= 0 {
		c.BucketSize = 16
	}
	if c.Alpha <= 0 {
		c.Alpha = 3
	}
	if c.MaxLookupRounds <= 0 {
		c.MaxLookupRounds = 128
	}
	return c
}

// Network is a collection of Kademlia nodes sharing one simulated
// transport. The embedded overlay.Core holds the slot arena, the
// membership and the transport binding; kademlia's ring pointers and
// bucket regions live beside it in st (see arena.go). Nodes are
// addressed internally by dense uint32 slot and externally by
// ring.Point identifier.
type Network struct {
	overlay.Core[Node]
	cfg Config
	// regStride is the word width of one bucket region: a header word,
	// BucketSize entry slots and the replacement cache.
	regStride int
	st        routing
}

// Kademlia error conditions.
var (
	ErrNodeExists    = errors.New("kademlia: node already exists")
	ErrNodeNotFound  = errors.New("kademlia: node not found")
	ErrLookupAborted = errors.New("kademlia: lookup aborted")
	ErrEmptyNetwork  = errors.New("kademlia: network has no live nodes")
)

// NewNetwork creates an empty Kademlia network over the given transport.
func NewNetwork(cfg Config, tr simnet.Transport) *Network {
	cfg = cfg.withDefaults()
	n := &Network{
		cfg:       cfg,
		regStride: 1 + cfg.BucketSize + replacementCacheLen,
	}
	empty := make([][]uint32, 0)
	n.st.chunks.Store(&empty)
	n.Init(tr, overlay.Spec[Node]{
		Name:        "kademlia",
		ErrExists:   ErrNodeExists,
		ErrNotFound: ErrNodeNotFound,
		Handle:      func(s uint32) Node { return Node{net: n, slot: s} },
		Serve:       n.handleRPC,
		Grow:        n.growRouting,
		Reset:       n.resetRouting,
		Mark:        n.markRouting,
		Release:     n.freeRegionRow,
		Router: overlay.Router{
			Resolve: func(from, x ring.Point) (ring.Point, error) {
				owner, _, err := n.ResolveOwner(from, x)
				return owner, err
			},
			Successor: n.Successor,
			Neighbors: func(id ring.Point) ([]ring.Point, error) {
				nd, err := n.Node(id)
				if err != nil {
					return nil, err
				}
				return nd.Contacts(), nil
			},
		},
	})
	return n
}

// Config returns the network's effective (defaulted) configuration.
func (n *Network) Config() Config { return n.cfg }

// Create starts the first node of a fresh network.
func (n *Network) Create(id ring.Point) (*Node, error) {
	return n.AddNode(id)
}

// Join adds a node through the existing node via, per the Kademlia join
// protocol: seed the routing table with the bootstrap contact, perform
// an iterative lookup of the node's own identifier (which both fills
// its buckets with the contacts it learns and announces it to every
// node it queries), then splice the node into the ownership ring
// between its successor and predecessor.
func (n *Network) Join(id, via ring.Point) (*Node, error) {
	if _, err := n.Node(via); err != nil {
		return nil, fmt.Errorf("kademlia: join of %v: bootstrap %v: %w", id, via, err)
	}
	return n.JoinVia(id, via)
}

// JoinVia adds a locally hosted node through a bootstrap contact that
// may live on another process: identical to Join except the bootstrap
// is not required to be a local node — every interaction with it is an
// RPC, which the wire transport routes across processes. It is the
// join path wire-transport daemons use.
func (n *Network) JoinVia(id, via ring.Point) (*Node, error) {
	if _, ok := n.LiveSlot(id); ok {
		return nil, fmt.Errorf("%w: %v", ErrNodeExists, id)
	}
	nd, err := n.AddNode(id)
	if err != nil {
		return nil, err
	}
	// Any failure past this point must withdraw the half-joined node:
	// the self-lookup announces id into other tables, and a registered
	// node with self-looping ring pointers would otherwise be reported
	// as the owner of arbitrary keys by later resolutions.
	fail := func(step string, err error) (*Node, error) {
		_ = n.Crash(id)
		return nil, fmt.Errorf("kademlia: join of %v: %s: %w", id, step, err)
	}
	n.touchContact(nd.slot, via)
	if _, err := n.FindClosest(id, id); err != nil {
		return fail("self-lookup", err)
	}
	// Resolve the clockwise successor among the EXISTING nodes (the
	// joiner excludes itself) and splice the ring pointers.
	succ, _, err := n.resolveOwner(id, id, id, true)
	if err != nil {
		return fail("resolving successor", err)
	}
	raw, err := n.Call(id, succ, getPredecessorReq{})
	if err != nil {
		return fail(fmt.Sprintf("predecessor of %v", succ), err)
	}
	pred := raw.(*pointResp).P
	putPointResp(raw.(*pointResp))
	if _, err := n.Call(id, succ, spliceReq{Pred: id, HasPred: true}); err != nil {
		return fail(fmt.Sprintf("splicing %v", succ), err)
	}
	if pred != succ {
		if _, err := n.Call(id, pred, spliceReq{Succ: id, HasSucc: true}); err != nil {
			return fail(fmt.Sprintf("splicing %v", pred), err)
		}
	} else {
		// Two-node ring: the single existing node is both successor and
		// predecessor; its succ pointer must also come to the joiner.
		if _, err := n.Call(id, succ, spliceReq{Succ: id, HasSucc: true}); err != nil {
			return fail(fmt.Sprintf("splicing %v", succ), err)
		}
	}
	nd.setRing(succ, pred)
	return nd, nil
}

// LookupResult reports one iterative FIND_NODE lookup.
type LookupResult struct {
	// Closest holds up to k live contacts sorted by XOR distance to the
	// target, every one of them queried (or the initiator itself).
	Closest []ring.Point
	// Seen holds every identifier learned during the lookup, including
	// the initiator. Entries that were never queried may be stale.
	Seen []ring.Point
	// Rounds is the number of sequential query waves: with alpha
	// queries in flight per wave, it is the lookup's latency in the
	// paper's t_h model.
	Rounds int
	// RPCs is the number of FIND_NODE calls issued (half the messages).
	RPCs int
}

// lookup candidate states.
const (
	stateCandidate = iota
	stateQueried
	stateFailed
)

// lookupScratch is the per-lookup working set FindClosest reuses
// across calls via a free-list: the candidate state map, the bounded
// k-best selection buffer, the table-seed buffer and the per-round
// query wave. One lookup used to allocate all four (the state map and
// a fresh sorted slice per round); now concurrent lookups each check a
// scratch out of the pool and return it cleared.
type lookupScratch struct {
	state map[ring.Point]int
	best  []ring.Point
	seed  []ring.Point
	wave  []ring.Point
}

var lookupScratchPool = sync.Pool{New: func() any {
	return &lookupScratch{state: make(map[ring.Point]int)}
}}

// FindClosest performs an iterative Kademlia lookup from node "from"
// toward target: each round queries the alpha XOR-closest unqueried
// candidates with FIND_NODE and merges their answers, until the k
// closest known contacts have all been queried. Every successfully
// queried contact is recorded in the initiator's routing table; dead
// candidates are evicted from it.
//
// Each round selects the k closest known contacts with the same
// bounded-insertion selection the k-bucket tables use, instead of
// sorting every known contact per round; the map iteration feeding the
// selection is unordered, but a bounded k-best under the total
// (distance, id) order is order-independent, so results are
// bit-identical to the sorted implementation it replaces.
func (n *Network) FindClosest(from, target ring.Point) (LookupResult, error) {
	initiator, err := n.Node(from)
	if err != nil {
		return LookupResult{}, err
	}
	self := initiator.slot
	k, alpha := n.cfg.BucketSize, n.cfg.Alpha
	ls := lookupScratchPool.Get().(*lookupScratch)
	defer func() {
		clear(ls.state)
		lookupScratchPool.Put(ls)
	}()
	state := ls.state
	state[from] = stateQueried
	ls.seed = n.closestIntoSlot(self, ls.seed, target, k, false)
	for _, c := range ls.seed {
		state[c] = stateCandidate
	}
	var res LookupResult

	// kClosest fills ls.best with the up-to-k XOR-closest non-failed
	// known ids, sorted best first.
	kClosest := func() []ring.Point {
		ls.best = ls.best[:0]
		for id, st := range state {
			if st != stateFailed {
				ls.best = insertClosest(ls.best, target, k, id)
			}
		}
		return ls.best
	}

	req := simnet.Message(findNodeReq{Target: target, K: k})
	for round := 0; ; round++ {
		if round >= n.cfg.MaxLookupRounds {
			return res, fmt.Errorf("%w: exceeded %d rounds toward %v", ErrLookupAborted, n.cfg.MaxLookupRounds, target)
		}
		ls.wave = ls.wave[:0]
		for _, id := range kClosest() {
			if state[id] == stateCandidate {
				ls.wave = append(ls.wave, id)
				if len(ls.wave) >= alpha {
					break
				}
			}
		}
		if len(ls.wave) == 0 {
			// Every one of the k closest known contacts has been
			// queried: the lookup has converged.
			break
		}
		res.Rounds++
		for _, id := range ls.wave {
			raw, err := n.Call(from, id, req)
			res.RPCs++
			if err != nil {
				state[id] = stateFailed
				n.removeContact(self, id)
				continue
			}
			state[id] = stateQueried
			n.touchContact(self, id)
			resp := raw.(*findNodeResp)
			for _, c := range resp.Closest {
				if _, known := state[c]; !known {
					state[c] = stateCandidate
				}
			}
			putFindNodeResp(resp)
		}
	}

	res.Seen = make([]ring.Point, 0, len(state))
	for id, st := range state {
		if st != stateFailed {
			res.Seen = append(res.Seen, id)
		}
	}
	slices.Sort(res.Seen)
	res.Closest = make([]ring.Point, 0, k)
	for id, st := range state {
		if st == stateQueried {
			res.Closest = insertClosest(res.Closest, target, k, id)
		}
	}
	return res, nil
}

// Successor asks node "of" for its ring successor pointer (one RPC):
// the paper's next(p) primitive.
func (n *Network) Successor(from, of ring.Point) (ring.Point, error) {
	raw, err := n.Call(from, of, getSuccessorReq{})
	if err != nil {
		return 0, fmt.Errorf("kademlia: successor of %v: %w", of, err)
	}
	resp := raw.(*pointResp)
	p := resp.P
	putPointResp(resp)
	return p, nil
}

// Predecessor asks node "of" for its ring predecessor pointer.
func (n *Network) Predecessor(from, of ring.Point) (ring.Point, error) {
	raw, err := n.Call(from, of, getPredecessorReq{})
	if err != nil {
		return 0, fmt.Errorf("kademlia: predecessor of %v: %w", of, err)
	}
	resp := raw.(*pointResp)
	p := resp.P
	putPointResp(resp)
	return p, nil
}

// OwnerStats reports the cost split of one ResolveOwner call.
type OwnerStats struct {
	// Lookup is the iterative XOR lookup's result.
	Lookup LookupResult
	// ChaseRPCs counts the ring-pointer RPCs spent turning the XOR
	// result into the clockwise owner (successor/predecessor chases).
	ChaseRPCs int
}

// ResolveOwner resolves h(x) from node "from": the peer whose point is
// clockwise-closest to x. Kademlia routes by XOR, not by clockwise
// distance, so the resolution has two phases:
//
//  1. An iterative FIND_NODE toward x. The XOR-closest node to x
//     shares x's longest common prefix b, so every node inside x's
//     deepest non-empty aligned 2^(64-b) block is within the lookup's
//     k-closest result (blocks nest in the XOR metric: in-block
//     distances are below 2^(64-b), out-of-block distances above).
//  2. A ring-pointer verification. Let m be the learned node closest
//     counterclockwise-at-or-below x and c the closest clockwise-at-
//     or-above. If the block holds a node below x, m is x's exact
//     predecessor (any closer node would sit inside the block and have
//     been learned), so one successor RPC finishes; if the block only
//     holds nodes at or above x, c is the exact owner, confirmed by
//     one predecessor RPC. Either way the expected overhead is O(1)
//     RPCs; with damaged tables the chase walks pointer by pointer,
//     still converging because ring pointers are ground truth.
func (n *Network) ResolveOwner(from, x ring.Point) (ring.Point, OwnerStats, error) {
	return n.resolveOwner(from, x, 0, false)
}

func (n *Network) resolveOwner(from, x ring.Point, exclude ring.Point, hasExclude bool) (ring.Point, OwnerStats, error) {
	var stats OwnerStats
	res, err := n.FindClosest(from, x)
	if err != nil {
		return 0, stats, err
	}
	stats.Lookup = res
	// m: closest at-or-below x (counterclockwise); c: closest at-or-
	// above x (clockwise). A node exactly at x is both and owns x.
	// Scanned in place — the filtered copy this used to build per
	// resolution only fed these two reductions.
	var m, c ring.Point
	found := false
	for _, id := range res.Seen {
		if hasExclude && id == exclude {
			continue
		}
		if !found {
			m, c, found = id, id, true
			continue
		}
		if cwDist(id, x) < cwDist(m, x) { // distance from id clockwise to x
			m = id
		}
		if cwDist(x, id) < cwDist(x, c) { // distance from x clockwise to id
			c = id
		}
	}
	if !found {
		return 0, stats, fmt.Errorf("%w: no live contacts toward %v", ErrLookupAborted, x)
	}
	if c == x {
		return c, stats, nil
	}
	// Below side: if m is x's exact predecessor, its successor pointer
	// is the answer.
	s, err := n.Successor(from, m)
	if err != nil {
		return 0, stats, err
	}
	stats.ChaseRPCs++
	if (!hasExclude || s != exclude) && betweenIncl(m, s, x) {
		return s, stats, nil
	}
	// Above side: if c is the exact owner, its predecessor confirms it.
	p, err := n.Predecessor(from, c)
	if err != nil {
		return 0, stats, err
	}
	stats.ChaseRPCs++
	if (!hasExclude || p != exclude) && betweenIncl(p, c, x) {
		return c, stats, nil
	}
	// Fallback (imperfect routing tables): walk successor pointers
	// clockwise from m. Ring pointers are ground truth, so the walk
	// terminates at the true owner. An excluded node (a joiner running
	// this resolution) is never the target of live ring pointers, so no
	// exclusion check is needed here. The O(n) alive-count cap is only
	// computed on this rare path, keeping the common case O(1).
	maxChase := n.cfg.MaxChaseSteps
	if maxChase <= 0 {
		maxChase = n.NumAlive() + 8
	}
	cur := m
	for step := 0; step < maxChase; step++ {
		next, err := n.Successor(from, cur)
		if err != nil {
			return 0, stats, err
		}
		stats.ChaseRPCs++
		if betweenIncl(cur, next, x) {
			return next, stats, nil
		}
		cur = next
	}
	return 0, stats, fmt.Errorf("%w: owner chase for %v exceeded %d steps", ErrLookupAborted, x, maxChase)
}

// RefreshNode runs one maintenance round for node id:
//
//  1. k-bucket upkeep: probe every entry of each non-empty bucket in
//     least-recently-seen-first order, evicting dead contacts and
//     promoting replacement-cache contacts into freed slots (a full
//     liveness sweep; Kademlia's on-insert rule pings only the LRU
//     entry, but insert-time pings would nest RPCs inside handlers,
//     so all probing is concentrated here).
//  2. Bucket refresh: an iterative lookup toward a point in bucket
//     "refreshBucket"'s distance range, repopulating it with live
//     contacts.
//  3. Ring repair: if the successor pointer is dead, re-resolve it
//     from the surviving contacts and re-splice the ring.
func (n *Network) RefreshNode(id ring.Point, refreshBucket int) error {
	nd, err := n.Node(id)
	if err != nil {
		return err
	}
	for i := 0; i < idBits; i++ {
		entries := n.entriesOfSlot(nd.slot, i)
		if len(entries) == 0 {
			continue
		}
		// Probe least-recently-seen first, the Kademlia eviction order:
		// dead entries are dropped, live ones move to the fresh end, and
		// replacement-cache contacts are promoted into freed slots.
		for _, e := range entries {
			if _, err := n.Call(id, e, pingReq{}); err != nil {
				n.removeContact(nd.slot, e)
			} else {
				n.markAliveContact(nd.slot, i, e)
			}
		}
		n.promoteBucket(nd.slot, i)
	}
	if refreshBucket >= 0 && refreshBucket < idBits {
		// A target with bit "refreshBucket" flipped lands in that
		// bucket's distance octave. A failed refresh (badly damaged
		// tables) is ignored: ring repair below matters more after
		// churn, and later rounds keep repairing the buckets.
		target := ring.Point(uint64(id) ^ (uint64(1) << uint(refreshBucket)))
		_, _ = n.FindClosest(id, target)
	}
	return n.repairRing(nd)
}

// repairRing checks the node's successor pointer and re-splices the
// ring around dead neighbors.
func (n *Network) repairRing(nd *Node) error {
	id := nd.ID()
	succ := nd.Successor()
	if succ != id {
		if _, err := n.Call(id, succ, pingReq{}); err == nil {
			// Successor alive; reconcile with its predecessor pointer.
			p, err := n.Predecessor(id, succ)
			if err == nil && p != id {
				alive := false
				if _, err := n.Call(id, p, pingReq{}); err == nil {
					alive = true
				}
				if alive && p != succ && betweenIncl(id, succ, p) {
					// The successor knows a live node between us — a
					// joiner whose splice toward us was lost, or a
					// repair that outran ours. Adopt it and announce
					// ourselves (Chord's stabilize rule); without this
					// tightening step the ring wedges permanently with
					// the middle node invisible to its predecessor.
					n.setSucc(nd.slot, p)
					_, _ = n.Call(id, p, spliceReq{Pred: id, HasPred: true})
					return nil
				}
				if !alive || !betweenIncl(id, succ, p) {
					// Its predecessor is dead or behind us: we are the
					// rightful predecessor — re-assert.
					_, _ = n.Call(id, succ, spliceReq{Pred: id, HasPred: true})
				}
			}
			return nil
		}
		n.removeContact(nd.slot, succ)
	}
	// Successor dead (or self while others exist): pick the best live
	// candidate and tighten it by walking predecessor pointers.
	best, ok := n.bestLiveSuccessorCandidate(nd)
	if !ok {
		return nil // nothing else alive; ring is just this node
	}
	maxChase := n.cfg.MaxChaseSteps
	if maxChase <= 0 {
		maxChase = n.NumAlive() + 8
	}
	for step := 0; step < maxChase; step++ {
		p, err := n.Predecessor(id, best)
		if err != nil || p == best {
			break
		}
		if _, err := n.Call(id, p, pingReq{}); err != nil {
			break // dead predecessor: best is the boundary
		}
		if !betweenIncl(id, best, p) || p == id {
			break
		}
		best = p
	}
	n.setSucc(nd.slot, best)
	_, _ = n.Call(id, best, spliceReq{Pred: id, HasPred: true})
	return nil
}

// bestLiveSuccessorCandidate returns the live contact clockwise-
// closest after id, gathered from the node's table plus a lookup.
func (n *Network) bestLiveSuccessorCandidate(nd *Node) (ring.Point, bool) {
	id := nd.ID()
	cands := n.contactsOf(nd.slot)
	if res, err := n.FindClosest(id, ring.Point(uint64(id)+1)); err == nil {
		cands = append(cands, res.Closest...)
	}
	var best ring.Point
	found := false
	for _, c := range cands {
		if c == id {
			continue
		}
		if found && cwDist(id, c) >= cwDist(id, best) {
			continue
		}
		if _, err := n.Call(id, c, pingReq{}); err != nil {
			n.removeContact(nd.slot, c)
			continue
		}
		best, found = c, true
	}
	return best, found
}

// RunMaintenance executes the given number of synchronous maintenance
// rounds: in each round every live node (in sorted order, for
// determinism) runs RefreshNode with a rotating bucket-refresh index.
// Enough rounds after churn restore correct buckets and a perfect
// ring; tests assert this via VerifyRing and VerifyTables.
func (n *Network) RunMaintenance(rounds int) {
	for r := 0; r < rounds; r++ {
		for _, id := range n.Members() {
			// Ignore per-node errors: nodes may crash mid-round; the
			// survivors keep repairing.
			_ = n.RefreshNode(id, r%idBits)
		}
	}
}

// VerifyRing checks global ring consistency: every live node's succ
// and pred pointers must match the sorted membership exactly.
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
		wantPred := members[(i-1+len(members))%len(members)]
		if got := nd.Successor(); got != wantSucc {
			return fmt.Errorf("kademlia: node %v successor = %v, want %v", id, got, wantSucc)
		}
		if got := nd.Predecessor(); got != wantPred {
			return fmt.Errorf("kademlia: node %v predecessor = %v, want %v", id, got, wantPred)
		}
	}
	return nil
}

// VerifyTables checks structural routing-table invariants for every
// live node: entries are live members, sit in the bucket matching
// their XOR distance, contain no duplicates, and never exceed k.
func (n *Network) VerifyTables() error {
	members := make(map[ring.Point]bool)
	for _, id := range n.Members() {
		members[id] = true
	}
	if len(members) == 0 {
		return ErrEmptyNetwork
	}
	for id := range members {
		nd, err := n.Node(id)
		if err != nil {
			return err
		}
		for i := 0; i < idBits; i++ {
			entries := n.entriesOfSlot(nd.slot, i)
			if len(entries) > n.cfg.BucketSize {
				return fmt.Errorf("kademlia: node %v bucket %d has %d entries (k=%d)", id, i, len(entries), n.cfg.BucketSize)
			}
			seen := make(map[ring.Point]bool, len(entries))
			for _, e := range entries {
				if seen[e] {
					return fmt.Errorf("kademlia: node %v bucket %d duplicate entry %v", id, i, e)
				}
				seen[e] = true
				if !members[e] {
					return fmt.Errorf("kademlia: node %v bucket %d holds dead contact %v", id, i, e)
				}
				if got := bucketIndex(xorDist(id, e)); got != i {
					return fmt.Errorf("kademlia: node %v contact %v in bucket %d, belongs in %d", id, e, i, got)
				}
			}
		}
	}
	return nil
}

// BuildStatic constructs a fully populated Kademlia network over the
// given points in one step: every node's k-buckets hold the k XOR-
// closest members of each distance octave and the ring pointers are
// exact. It is the starting state for experiments that study the
// sampler rather than overlay convergence.
//
// Construction is bulk and parallel: slots are assigned sequentially
// (slot i is ring rank i) with the membership snapshot installed once,
// then per-node buckets — pure functions of the sorted membership —
// are populated over contiguous worker shards, bit-identically to the
// sequential build at any GOMAXPROCS. The per-node fill itself is
// O(log^2 n + k log n) via sorted-range trie descent instead of the
// O(n log n) full scan-and-sort the incremental path would pay per
// node, and because slot and ring index coincide the bucket entries
// are written as plain indices with no ID translation at all.
func BuildStatic(cfg Config, tr simnet.Transport, points []ring.Point) (*Network, error) {
	return BuildStaticPartition(cfg, tr, points, nil)
}

// BuildStaticPartition constructs the local shard of a fully populated
// network that spans multiple processes: the full membership defines
// every node's buckets and ring pointers, but only the nodes selected
// by owned are instantiated (and registered, on per-node transports)
// on this process's transport. The other points must be hosted by peer
// processes reachable through the transport (the wire transport routes
// by node id). A nil owned predicate owns everything, which is exactly
// BuildStatic.
//
// Per-node state is a pure function of the sorted membership, so every
// process computes identical state for its shard and the union across
// processes is bit-identical to the single-process build.
func BuildStaticPartition(cfg Config, tr simnet.Transport, points []ring.Point, owned func(ring.Point) bool) (*Network, error) {
	r, err := ring.New(points)
	if err != nil {
		return nil, fmt.Errorf("kademlia: building static network: %w", err)
	}
	n := NewNetwork(cfg, tr)
	sorted := r.Points()
	ownedIdx, err := n.InstallStatic(sorted, owned)
	if err != nil {
		return nil, err
	}
	parallel.Shards(len(ownedIdx), parallel.Workers(len(ownedIdx)), func(lo, hi int) {
		scratch := make([]uint32, 0, n.cfg.BucketSize)
		rb := regionBatcher{n: n}
		for j := lo; j < hi; j++ {
			scratch = n.fillStaticSlot(sorted, ownedIdx[j], scratch, &rb)
		}
		rb.release()
	})
	return n, nil
}

// fillStaticSlot sets slot i's ring pointers (slot = ring rank, by
// construction) and populates its buckets with the k XOR-closest
// members of each distance octave, farthest first so the closest
// contacts sit at the most-recently-seen end — the same state the old full scan-and-sort fill
// produced, computed from the sorted membership instead: bucket b's
// candidates form one contiguous value range (the aligned block
// reached by flipping bit b of the node's id and clearing the bits
// below), and the k XOR-closest within the range are selected by
// descending the implicit binary trie, visiting only subranges that
// can still contribute. It runs during BuildStatic's sharded phase:
// the slot is owned exclusively by one worker and published by the
// shard barrier, so no locks are taken.
func (n *Network) fillStaticSlot(sorted []ring.Point, i int, scratch []uint32, rb *regionBatcher) []uint32 {
	if size := len(sorted); size > 1 {
		n.st.succs[i] = uint32((i + 1) % size)
		n.st.preds[i] = uint32((i + size - 1) % size)
	}
	id := uint64(sorted[i])
	k := n.cfg.BucketSize
	row := n.st.bucketRefs[i*idBits : i*idBits+idBits]
	for b := 0; b < idBits; b++ {
		base := (id ^ (uint64(1) << uint(b))) &^ (uint64(1)<<uint(b) - 1)
		lo, _ := slices.BinarySearch(sorted, ring.Point(base))
		var hi int
		if end := base + uint64(1)<<uint(b); end == 0 {
			hi = len(sorted) // bucket 63's upper block ends at 2^64
		} else {
			hi, _ = slices.BinarySearch(sorted, ring.Point(end))
		}
		if lo >= hi {
			continue
		}
		scratch = collectXorClosest(scratch[:0], sorted, lo, hi, base, b, id, k)
		// Insertion-sort by descending XOR distance (≤ k elements, all
		// distances distinct) and install: entries order farthest →
		// closest matches the touch-farthest-first order of the
		// incremental path.
		for x := 1; x < len(scratch); x++ {
			v := scratch[x]
			dv := uint64(sorted[v]) ^ id
			j := x - 1
			for j >= 0 && uint64(sorted[scratch[j]])^id < dv {
				scratch[j+1] = scratch[j]
				j--
			}
			scratch[j+1] = v
		}
		ref := rb.alloc()
		reg := n.region(ref)
		copy(reg[1:], scratch)
		regSetLens(reg, len(scratch), 0)
		row[b] = ref
	}
	return scratch
}

// collectXorClosest appends the sorted-membership indices of the
// up-to-rem XOR-closest members to id within sorted[lo:hi), an aligned
// block of size 2^level starting at base. Output order is unspecified;
// callers sort. The descent takes the half sharing id's next bit first
// (strictly closer than the other half), so only ranges that can still
// contribute are visited. Indices double as arena slots during the
// static build, so the bucket entries need no ID translation.
func collectXorClosest(dst []uint32, sorted []ring.Point, lo, hi int, base uint64, level int, id uint64, rem int) []uint32 {
	for {
		if rem <= 0 || lo >= hi {
			return dst
		}
		if hi-lo <= rem || level == 0 {
			for j := lo; j < hi; j++ {
				dst = append(dst, uint32(j))
			}
			return dst
		}
		half := uint64(1) << uint(level-1)
		m, _ := slices.BinarySearch(sorted[lo:hi], ring.Point(base+half))
		mid := lo + m
		if id&half == 0 {
			// Lower half is XOR-closer: everything in it beats
			// everything in the upper half.
			before := len(dst)
			dst = collectXorClosest(dst, sorted, lo, mid, base, level-1, id, rem)
			rem -= len(dst) - before
			lo, base, level = mid, base+half, level-1
		} else {
			before := len(dst)
			dst = collectXorClosest(dst, sorted, mid, hi, base+half, level-1, id, rem)
			rem -= len(dst) - before
			hi, level = mid, level-1
		}
	}
}
