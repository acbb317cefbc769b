// Package randompeer is a complete implementation and experimental
// evaluation of Valerie King and Jared Saia's "Choosing a Random Peer"
// (PODC 2004): the first fully distributed algorithm that chooses a peer
// uniformly at random — each peer with probability exactly 1/n — from
// all peers of a DHT, with O(log n) expected latency and messages.
//
// The package is the public facade; the implementation lives in the
// internal packages:
//
//   - internal/core: the paper's algorithms (Estimate n, Choose Random
//     Peer) and the exact assignment analyzer behind Theorem 6.
//   - internal/chord: a full Chord DHT over a simulated network.
//   - internal/kademlia: a full Kademlia DHT (XOR metric, k-buckets,
//     iterative FIND_NODE) proving the sampler's substrate independence.
//   - internal/overlay: the slot arena, membership and dht.DHT adapter
//     both overlays share.
//   - internal/dht: the abstract (h, next) DHT model and an oracle
//     backend for million-peer experiments.
//   - internal/baseline: the naive, random-walk and virtual-node
//     samplers the algorithm is evaluated against.
//   - internal/{collect,randgraph,loadbalance,agreement}: the paper's
//     motivating applications.
//   - internal/exp: the experiment harness (E1-E26, see DESIGN.md).
//
// # Quick start
//
//	tb, err := randompeer.New(randompeer.WithPeers(1024), randompeer.WithSeed(7))
//	if err != nil { ... }
//	s, err := tb.UniformSampler(42)
//	if err != nil { ... }
//	peer, err := s.Sample() // uniform over all 1024 peers
package randompeer

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"time"

	"github.com/dht-sampling/randompeer/internal/baseline"
	"github.com/dht-sampling/randompeer/internal/biased"
	"github.com/dht-sampling/randompeer/internal/chord"
	"github.com/dht-sampling/randompeer/internal/core"
	"github.com/dht-sampling/randompeer/internal/dht"
	"github.com/dht-sampling/randompeer/internal/kademlia"
	"github.com/dht-sampling/randompeer/internal/obs"
	"github.com/dht-sampling/randompeer/internal/overlay"
	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/sim"
	"github.com/dht-sampling/randompeer/internal/simnet"
)

// Re-exported core types. Peer identifies a sampled peer (Owner is its
// stable index); Sampler is the common sampling interface; Point is a
// position on the 2^64-unit identifier circle.
type (
	// Peer is a peer of the DHT: its point on the circle plus a stable
	// owner index used for tallies.
	Peer = dht.Peer
	// Sampler chooses peers; all samplers in this module implement it.
	Sampler = dht.Sampler
	// DHT is the paper's abstract model: h (lookup) and next (successor).
	DHT = dht.DHT
	// Point is a position on the identifier circle.
	Point = ring.Point
	// SamplerConfig tunes the King-Saia sampler's constants.
	SamplerConfig = core.Config
	// EstimateResult reports one run of the Estimate n algorithm.
	EstimateResult = core.EstimateResult
	// Assignment is the exact measure partition behind Theorem 6.
	Assignment = core.Assignment
	// WeightFunc assigns relative selection weights for biased sampling
	// (the paper's open problem 3).
	WeightFunc = biased.WeightFunc
	// LatencyModel maps each simulated RPC to a virtual round-trip
	// duration (see WithLatencyModel); build one with
	// ParseLatencyModel or the constructors in internal/sim.
	LatencyModel = sim.Model
	// LatencySnapshot is an immutable view of the per-RPC virtual
	// latency histogram a time-simulating testbed records.
	LatencySnapshot = simnet.Latency
	// Trace is a hop-level record of one traced operation (see
	// TraceSample).
	Trace = obs.Trace
	// Hop is one RPC within a Trace.
	Hop = obs.Hop
)

// ParseLatencyModel parses a -latency flag spec such as "constant:1ms",
// "uniform:500us-5ms", "lognormal:2ms,0.6" or
// "straggler:0.1,8,constant:1ms".
func ParseLatencyModel(spec string) (LatencyModel, error) {
	return sim.ParseModel(spec)
}

// Backend selects the DHT substrate of a Testbed.
type Backend int

// Available backends.
const (
	// OracleBackend resolves lookups by binary search and charges the
	// textbook O(log n) costs; it scales to millions of peers.
	OracleBackend Backend = iota + 1
	// ChordBackend runs a real Chord ring: every h is an iterative
	// finger-table lookup over the simulated network.
	ChordBackend
	// KademliaBackend runs a real Kademlia overlay: every h is an
	// iterative XOR-metric FIND_NODE lookup (alpha-parallel, k-close)
	// plus an O(1) ring-pointer verification; next is one successor RPC.
	KademliaBackend
)

// String implements fmt.Stringer; the names round-trip through
// ParseBackend and are the values commands accept for -backend flags.
func (b Backend) String() string {
	switch b {
	case OracleBackend:
		return "oracle"
	case ChordBackend:
		return "chord"
	case KademliaBackend:
		return "kademlia"
	default:
		return fmt.Sprintf("backend(%d)", int(b))
	}
}

// Backends returns every available backend. Commands and experiments
// iterate it so new substrates appear in help strings, flag parsing
// and comparison tables automatically.
func Backends() []Backend {
	return []Backend{OracleBackend, ChordBackend, KademliaBackend}
}

// BackendNames returns the accepted -backend flag values, in order.
func BackendNames() string {
	names := make([]string, 0, 3)
	for _, b := range Backends() {
		names = append(names, b.String())
	}
	return strings.Join(names, ", ")
}

// ParseBackend resolves a backend name (as printed by Backend.String)
// to its constant. It is the single parser all commands share.
func ParseBackend(name string) (Backend, error) {
	for _, b := range Backends() {
		if name == b.String() {
			return b, nil
		}
	}
	if name == "" {
		return OracleBackend, nil
	}
	return 0, fmt.Errorf("randompeer: unknown backend %q (want %s)", name, BackendNames())
}

// Testbed is a simulated DHT populated with uniformly placed peers,
// ready for sampling and measurement.
type Testbed struct {
	backend Backend
	n       int
	seed    uint64

	oracle *dht.Oracle
	// ov is the chord or kademlia network (nil for the oracle) and view
	// its DHT adapter from peer 0.
	ov   overlayNetwork
	view *overlay.DHT
	r    *ring.Ring

	// faults is the always-attached fault plan of transport-backed
	// backends (nil for the oracle). Empty plans cost one atomic load
	// per RPC, so attachment is unconditional.
	faults *simnet.Faults

	vnow  func() time.Duration // non-nil when simulated time is on
	model sim.Model
}

// Option configures New.
type Option func(*options)

type options struct {
	n          int
	seed       uint64
	backend    Backend
	bucketSize int
	alpha      int
	simTime    bool
	latency    sim.Model
}

// WithPeers sets the network size (default 128).
func WithPeers(n int) Option { return func(o *options) { o.n = n } }

// WithSeed sets the placement seed (default 1); equal seeds build
// identical networks.
func WithSeed(seed uint64) Option { return func(o *options) { o.seed = seed } }

// WithBackend selects the substrate (default OracleBackend).
func WithBackend(b Backend) Option { return func(o *options) { o.backend = b } }

// WithBucketSize sets Kademlia's k — the k-bucket capacity and lookup
// closeness (default 16). It applies only to KademliaBackend.
func WithBucketSize(k int) Option { return func(o *options) { o.bucketSize = k } }

// WithAlpha sets Kademlia's lookup parallelism (default 3). It applies
// only to KademliaBackend.
func WithAlpha(a int) Option { return func(o *options) { o.alpha = a } }

// WithSimTime runs the testbed on simulated time: the Chord and
// Kademlia backends are built over the virtual-clock transport
// (internal/sim), and the oracle charges per-hop virtual latencies, so
// VirtualTime advances with every RPC and the meter records per-RPC
// latency histograms. The default latency model is a constant 1ms round
// trip; override it with WithLatencyModel.
func WithSimTime() Option { return func(o *options) { o.simTime = true } }

// WithLatencyModel selects the per-link latency model and implies
// WithSimTime. Build models with ParseLatencyModel ("constant:1ms",
// "uniform:500us-5ms", "lognormal:2ms,0.6",
// "straggler:0.1,8,constant:1ms") or directly from internal/sim.
func WithLatencyModel(m LatencyModel) Option {
	return func(o *options) {
		o.latency = m
		o.simTime = true
	}
}

// New builds a Testbed.
func New(opts ...Option) (*Testbed, error) {
	cfg := options{n: 128, seed: 1, backend: OracleBackend}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.n < 1 {
		return nil, fmt.Errorf("randompeer: need at least one peer, got %d", cfg.n)
	}
	rng := rand.New(rand.NewPCG(cfg.seed, cfg.seed^0x517cc1b727220a95))
	r, err := ring.Generate(rng, cfg.n)
	if err != nil {
		return nil, fmt.Errorf("randompeer: placing peers: %w", err)
	}
	tb := &Testbed{backend: cfg.backend, n: cfg.n, seed: cfg.seed, r: r}
	if cfg.simTime && cfg.latency == nil {
		cfg.latency = sim.Constant{RTT: time.Millisecond}
	}
	// transport builds the RPC fabric the protocol backends run on:
	// virtual-clock when simulated time is requested, Direct otherwise.
	// Either carries the testbed's fault plan (see FaultPlan).
	transport := func() simnet.Transport {
		tb.faults = simnet.NewFaults(nil)
		if !cfg.simTime {
			return simnet.NewDirect(simnet.WithFaults(tb.faults))
		}
		st := sim.NewTransport(
			sim.WithModel(cfg.latency),
			sim.WithStreamSeed(cfg.seed^0x71e0),
			sim.WithFaults(tb.faults),
		)
		tb.vnow = st.Now
		tb.model = cfg.latency
		return st
	}
	switch cfg.backend {
	case OracleBackend:
		tb.oracle = dht.NewOracle(r)
		if cfg.simTime {
			clk := new(sim.Clock)
			tb.vnow = clk.Now
			tb.model = cfg.latency
			tb.oracle.SimulateLatency(clk, cfg.latency, cfg.seed^0x71e0)
		}
	case ChordBackend:
		net, err := chord.BuildStatic(chord.Config{}, transport(), r.Points())
		if err != nil {
			return nil, fmt.Errorf("randompeer: building chord ring: %w", err)
		}
		tb.ov = net
	case KademliaBackend:
		net, err := kademlia.BuildStatic(kademlia.Config{
			BucketSize: cfg.bucketSize,
			Alpha:      cfg.alpha,
		}, transport(), r.Points())
		if err != nil {
			return nil, fmt.Errorf("randompeer: building kademlia overlay: %w", err)
		}
		tb.ov = net
	default:
		return nil, fmt.Errorf("randompeer: unknown backend %d", cfg.backend)
	}
	if tb.ov != nil {
		if tb.view, err = tb.ov.AsDHT(r.At(0)); err != nil {
			return nil, err
		}
	}
	return tb, nil
}

// overlayNetwork is what the facade uses of either overlay network.
type overlayNetwork interface {
	Members() []ring.Point
	Transport() simnet.Transport
	AsDHT(caller ring.Point) (*overlay.DHT, error)
}

// Size returns the number of peers.
func (tb *Testbed) Size() int { return tb.n }

// Backend returns the substrate the testbed was built on.
func (tb *Testbed) Backend() Backend { return tb.backend }

// SimTime reports whether the testbed runs on simulated time.
func (tb *Testbed) SimTime() bool { return tb.vnow != nil }

// VirtualTime returns the virtual clock's reading: the cumulative
// simulated latency of every RPC issued so far (sequential time — with
// concurrent workers it is the total across workers). It is zero when
// simulated time is off. Snapshot it before and after an operation to
// measure the operation's virtual latency.
func (tb *Testbed) VirtualTime() time.Duration {
	if tb.vnow == nil {
		return 0
	}
	return tb.vnow()
}

// LatencyModel returns the active latency model (nil when simulated
// time is off).
func (tb *Testbed) LatencyModel() LatencyModel { return tb.model }

// Latency returns the per-RPC virtual latency histogram recorded so far
// (zero-valued when simulated time is off).
func (tb *Testbed) Latency() LatencySnapshot { return tb.DHT().Meter().Latency() }

// DHT returns the testbed's DHT view (from peer 0 for the Chord and
// Kademlia backends, which initiates all lookups).
func (tb *Testbed) DHT() DHT {
	if tb.view != nil {
		return tb.view
	}
	return tb.oracle
}

// Peer returns the peer with the given owner index.
func (tb *Testbed) Peer(i int) (Peer, error) {
	if i < 0 || i >= tb.n {
		return Peer{}, fmt.Errorf("randompeer: peer %d outside [0, %d)", i, tb.n)
	}
	return Peer{Point: tb.r.At(i), Owner: i}, nil
}

// UniformSampler builds the King-Saia uniform sampler, run from peer 0:
// it estimates the network size with Estimate n and then chooses peers
// with probability exactly 1/n each (Theorem 6).
func (tb *Testbed) UniformSampler(seed uint64) (Sampler, error) {
	return tb.UniformSamplerFrom(0, seed, SamplerConfig{})
}

// UniformSamplerFrom builds the uniform sampler run from the given peer
// with explicit configuration.
func (tb *Testbed) UniformSamplerFrom(caller int, seed uint64, cfg SamplerConfig) (Sampler, error) {
	p, err := tb.Peer(caller)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(seed, seed^0x2545f4914f6cdd1d))
	s, err := core.New(tb.DHT(), p, rng, cfg)
	if err != nil {
		return nil, fmt.Errorf("randompeer: building uniform sampler: %w", err)
	}
	return s, nil
}

// AutoUniformSampler builds the deployment variant of the uniform
// sampler: it re-runs Estimate n every refreshEvery samples (and after
// any sampling failure), keeping lambda fresh as the network churns.
func (tb *Testbed) AutoUniformSampler(seed uint64, refreshEvery int64) (Sampler, error) {
	p, err := tb.Peer(0)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(seed, seed^0xa07a))
	s, err := core.NewAuto(tb.DHT(), p, rng, core.Config{}, refreshEvery)
	if err != nil {
		return nil, fmt.Errorf("randompeer: building auto sampler: %w", err)
	}
	return s, nil
}

// NaiveSampler builds the biased baseline "return h(x) for random x"
// that the paper's Section 1 analyzes.
func (tb *Testbed) NaiveSampler(seed uint64) Sampler {
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	return baseline.NewNaive(tb.DHT(), rng)
}

// EstimateSize runs the paper's Estimate n algorithm from the given
// peer. The result is a constant-factor approximation of the true size
// (Lemma 3) obtained from O(log n) messages.
func (tb *Testbed) EstimateSize(caller int, c1 float64) (EstimateResult, error) {
	p, err := tb.Peer(caller)
	if err != nil {
		return EstimateResult{}, err
	}
	return core.EstimateN(tb.DHT(), p, c1)
}

// VerifyUniformity computes the exact measure the Figure 1 partition
// assigns to every peer for the given (or, when nHat <= 0, the true)
// size estimate, turning Theorem 6 into a checkable identity. The
// returned Assignment reports the per-peer measure, the maximum
// deviation from lambda, and the per-trial success probability.
func (tb *Testbed) VerifyUniformity(nHat float64) (*Assignment, error) {
	if nHat <= 0 {
		nHat = float64(tb.n)
	}
	params, err := core.DeriveParams(nHat, 1, 6)
	if err != nil {
		return nil, err
	}
	return core.Analyze(tb.r, params.Lambda, params.MaxSteps)
}

// traceableTransport returns the testbed's transport as an
// obs.Traceable, or an error for backends with no real transport.
func (tb *Testbed) traceableTransport() (obs.Traceable, error) {
	if tb.ov == nil {
		return nil, fmt.Errorf("randompeer: tracing requires a transport-backed backend (chord or kademlia), not %s", tb.backend)
	}
	t := tb.ov.Transport()
	tr, ok := t.(obs.Traceable)
	if !ok {
		return nil, fmt.Errorf("randompeer: transport %T does not support hop tracing", t)
	}
	return tr, nil
}

// TraceSample draws one peer with hop tracing armed on the testbed's
// transport: the returned Trace records every RPC the sample issued —
// hop order, endpoints, RPC name, latency and outcome. The trace's
// successful hop count equals the meter's charged calls for the same
// operation. Tracing is available on the Chord and Kademlia backends
// (the oracle models RPCs without executing them).
//
// Tracing is strictly per-operation: TraceSample arms the transport,
// samples once and disarms, so do not call it concurrently with other
// work on the same testbed.
func (tb *Testbed) TraceSample(s Sampler) (Peer, *Trace, error) {
	tr, err := tb.traceableTransport()
	if err != nil {
		return Peer{}, nil, err
	}
	trace := obs.NewTrace()
	tr.SetTrace(trace)
	defer tr.SetTrace(nil)
	peer, err := s.Sample()
	if err != nil {
		return Peer{}, trace, err
	}
	return peer, trace, nil
}

// ChordNetwork exposes the underlying Chord network for protocol-level
// experiments (nil for other backends).
func (tb *Testbed) ChordNetwork() *chord.Network {
	net, _ := tb.ov.(*chord.Network)
	return net
}

// KademliaNetwork exposes the underlying Kademlia network for
// protocol-level experiments (nil for other backends).
func (tb *Testbed) KademliaNetwork() *kademlia.Network {
	net, _ := tb.ov.(*kademlia.Network)
	return net
}

// BiasedSampler builds a sampler choosing peers with probability
// proportional to weight(p), by rejection over the uniform sampler —
// the paper's open problem 3. maxWeight must upper-bound the weight
// function; the expected number of uniform draws per sample is
// maxWeight divided by the mean weight.
func (tb *Testbed) BiasedSampler(seed uint64, weight WeightFunc, maxWeight float64) (Sampler, error) {
	uniform, err := tb.UniformSampler(seed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(seed^0xb1a5, seed))
	s, err := biased.New(uniform, weight, maxWeight, rng)
	if err != nil {
		return nil, fmt.Errorf("randompeer: building biased sampler: %w", err)
	}
	return s, nil
}

// InverseDistanceWeight returns the paper's example bias for
// BiasedSampler: selection probability inversely proportional to
// clockwise distance from the given peer, saturating below floorFrac of
// the circle. It returns the weight function and its upper bound.
func (tb *Testbed) InverseDistanceWeight(caller int, floorFrac float64) (WeightFunc, float64, error) {
	p, err := tb.Peer(caller)
	if err != nil {
		return nil, 0, err
	}
	return biased.InverseDistance(p, floorFrac)
}

// MetropolisSampler builds the degree-corrected random-walk sampler
// over the symmetrized overlay graph — the approximate answer to the
// paper's open problem 2 for networks with less structure than a DHT.
// It is only available on the oracle backend, where the symmetrized
// adjacency is precomputed.
func (tb *Testbed) MetropolisSampler(seed uint64, steps int) (Sampler, error) {
	if tb.backend != OracleBackend {
		return nil, fmt.Errorf("randompeer: metropolis sampler requires the oracle backend")
	}
	g := baseline.NewUndirectedOracleGraph(tb.oracle)
	rng := rand.New(rand.NewPCG(seed^0x3e7a, seed))
	s, err := baseline.NewMetropolisWalk(tb.oracle, g, tb.oracle.PeerByIndex(0), steps, rng)
	if err != nil {
		return nil, fmt.Errorf("randompeer: building metropolis sampler: %w", err)
	}
	return s, nil
}
