package main

import (
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/dht-sampling/randompeer/internal/chord"
	"github.com/dht-sampling/randompeer/internal/core"
	"github.com/dht-sampling/randompeer/internal/dht"
	"github.com/dht-sampling/randompeer/internal/obs"
	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/simnet"
	"github.com/dht-sampling/randompeer/internal/wire"
)

const (
	staticPeers = 1 << 16
	wirePeers   = 1 << 10
	// closedWorkers is the closed loop's client count: one goroutine
	// per CPU of the 2-CPU machines the benchmark was written on, fixed
	// so that the workload does not change with the machine.
	closedWorkers = 2
	// closedPeers is how many peers sample: each runs its own Estimate
	// n and samples through a Fork of its own sampler, and the workers
	// serve them in turn. One peer's estimate is typically off by 20%
	// and a sample's cost scales with it, so a run pools many peers
	// rather than let one estimate set its figures.
	closedPeers = 256
	// An untraced run builds its rig at least setupMinReps times and
	// until setupMinTime is spent (at most setupMaxReps times); the
	// median build is setup_s.
	setupMinReps = 3
	setupMaxReps = 40
	setupMinTime = time.Second
	// A traced run replays parityProbe samples of each of the first
	// parityPeers peers on both the decorated and the plain rig, and
	// compares their meters.
	parityProbe = 4
	parityPeers = 32
	// keepTrees is how many samples per lane keep their span trees.
	keepTrees = 16
	// modelRTT is the round trip of the constant latency model the
	// virtual_* metrics use, as in kademlia-churn's sim transport.
	modelRTT = time.Millisecond
)

// chordRig is one built closed-loop workload: a chord overlay, one
// view and one estimated sampler per peer, and the meters their RPCs
// are charged to.
type chordRig struct {
	ring    *ring.Ring
	peers   []ring.Point
	bases   []*core.Sampler
	meter   func() simnet.Cost
	wireReg *obs.Registry // chord-wire: the sampling peers' transport's counters
	close   func()
}

// closedSpec describes one closed-loop workload.
type closedSpec struct {
	name           string
	n              int // ring size
	transportLayer string
	// build constructs the overlay the peers sample, decorated when t
	// is non-nil, whose lanes are the workers' in worker order.
	build func(r *ring.Ring, peers []ring.Point, t *tracer, seed uint64) (*chordRig, error)
	// replica builds a plain in-process rig on the same ring when the
	// workload's own rig is too slow to replay samples one at a time.
	replica bool
	// costSamples is how many samples per peer are replayed one at a
	// time to read each sample's exact RPC count: the source of
	// msgs_per_sample and the virtual_* metrics.
	costSamples int
}

func runChordStatic(o options) (*result, error) {
	return runClosed(o, closedSpec{name: "chord-static", n: staticPeers, transportLayer: "simnet", build: buildDirect, costSamples: 30})
}

func runChordWire(o options) (*result, error) {
	return runClosed(o, closedSpec{name: "chord-wire", n: wirePeers, transportLayer: "wire", build: buildWire, replica: true, costSamples: 80})
}

// workloadRing derives the peer placement, the sampling peers and
// their fork seeds from the seed. Sampling peers sit at even ranks
// spread around the ring, so on chord-wire the first transport hosts
// them all.
func workloadRing(seed uint64, n int) (*ring.Ring, []ring.Point, []uint64, error) {
	if n < 2*closedPeers {
		return nil, nil, nil, fmt.Errorf("a ring of %d peers has too few even ranks for %d sampling peers", n, closedPeers)
	}
	r, err := ring.Generate(rand.New(rand.NewPCG(seed, seed^0x5ca1ab1e)), n)
	if err != nil {
		return nil, nil, nil, err
	}
	peers := make([]ring.Point, closedPeers)
	forkSeeds := make([]uint64, closedPeers)
	for i := range peers {
		peers[i] = r.At(2 * (i * n / (2 * closedPeers)))
		forkSeeds[i] = splitmix(seed, uint64(i))
	}
	return r, peers, forkSeeds, nil
}

// workerOf is the worker that serves peer i.
func workerOf(i int) int { return i % closedWorkers }

// newWorkerLanes gives each worker a lane owning its peers' RPCs.
func newWorkerLanes(t *tracer, peers []ring.Point) []*lane {
	lanes := make([]*lane, closedWorkers)
	for w := range lanes {
		var ids []simnet.NodeID
		for i, p := range peers {
			if workerOf(i) == w {
				ids = append(ids, simnet.NodeID(p))
			}
		}
		lanes[w] = t.newLane(ids...)
	}
	return lanes
}

// buildDirect is chord-static's rig: the whole ring on one simnet
// Direct transport.
func buildDirect(r *ring.Ring, peers []ring.Point, t *tracer, _ uint64) (*chordRig, error) {
	direct := simnet.NewDirect()
	var tr simnet.Transport = direct
	if t != nil {
		tr = wrapTransport(direct, t, false)
	}
	net, err := chord.BuildStatic(chord.Config{}, tr, r.Points())
	if err != nil {
		return nil, err
	}
	rig := &chordRig{ring: r, peers: peers, meter: direct.Meter().Snapshot, close: func() { _ = direct.Close() }}
	if err := rig.estimate(net, t); err != nil {
		rig.close()
		return nil, err
	}
	return rig, nil
}

// buildWire is chord-wire's rig: ranks owned alternately by two wire
// transports listening on 127.0.0.1, each building its share.
func buildWire(r *ring.Ring, peers []ring.Point, t *tracer, seed uint64) (*chordRig, error) {
	a := wire.NewTransport(wire.WithJitterSeed(seed))
	b := wire.NewTransport(wire.WithJitterSeed(seed + 1))
	closeAll := func() {
		_ = a.Close()
		_ = b.Close()
	}
	if err := a.Start("127.0.0.1:0"); err != nil {
		closeAll()
		return nil, err
	}
	if err := b.Start("127.0.0.1:0"); err != nil {
		closeAll()
		return nil, err
	}
	points := r.Points()
	onA := func(p ring.Point) bool { return r.IndexOf(p)%2 == 0 }
	for i, p := range points {
		if i%2 == 0 {
			b.SetRoute(simnet.NodeID(p), a.Addr())
		} else {
			a.SetRoute(simnet.NodeID(p), b.Addr())
		}
	}
	var ta, tb simnet.Transport = a, b
	if t != nil {
		ta, tb = wrapTransport(a, t, true), wrapTransport(b, t, true)
	}
	netA, err := chord.BuildStaticPartition(chord.Config{}, ta, points, onA)
	if err != nil {
		closeAll()
		return nil, err
	}
	if _, err := chord.BuildStaticPartition(chord.Config{}, tb, points, func(p ring.Point) bool { return !onA(p) }); err != nil {
		closeAll()
		return nil, err
	}
	reg := obs.NewRegistry()
	a.RegisterMetrics(reg)
	rig := &chordRig{
		ring: r, peers: peers, wireReg: reg, close: closeAll,
		meter: func() simnet.Cost {
			ca, cb := a.Meter().Snapshot(), b.Meter().Snapshot()
			return simnet.Cost{Calls: ca.Calls + cb.Calls, Messages: ca.Messages + cb.Messages, Failures: ca.Failures + cb.Failures}
		},
	}
	if err := rig.estimate(netA, t); err != nil {
		closeAll()
		return nil, err
	}
	return rig, nil
}

// estimate gives every sampling peer its own view and runs Estimate n
// from it (core.New), on its worker's lane when traced: each peer
// derives its own lambda, as in the paper.
func (rig *chordRig) estimate(net *chord.Network, t *tracer) error {
	rig.bases = make([]*core.Sampler, len(rig.peers))
	for i, c := range rig.peers {
		view, err := net.AsDHT(c)
		if err != nil {
			return err
		}
		var d dht.DHT = view
		var l *lane
		if t != nil {
			l = t.lanes[workerOf(i)]
			d = &tracedDHT{DHT: view, lane: l}
		}
		var s *span
		if l != nil {
			s = l.enter(kEstimate)
		}
		base, err := core.New(d, view.Self(), rand.New(rand.NewPCG(0, 0)), core.Config{})
		if l != nil {
			l.exit(s, err)
		}
		if err != nil {
			return fmt.Errorf("estimating n from peer %d: %w", i, err)
		}
		rig.bases[i] = base
	}
	return nil
}

// forks returns each peer's sampler: a Fork of its estimated sampler
// with the peer's seed.
func (rig *chordRig) forks(seeds []uint64) ([]dht.Sampler, error) {
	out := make([]dht.Sampler, len(rig.bases))
	for i, b := range rig.bases {
		f, err := b.Fork(seeds[i])
		if err != nil {
			return nil, err
		}
		out[i] = f
	}
	return out, nil
}

// loopResult is one closed-loop phase.
type loopResult struct {
	owners  [][]int32 // per peer, every sample in order; -1 marks a failure
	latsMS  []float64 // timed samples, every worker
	total   int64     // samples, warm-up included
	timed   int64
	failed  int64
	elapsed float64 // seconds from the timed start to the last completion
	cost    simnet.Cost
}

// closedLoop runs closedWorkers goroutines for warm+dur. Each issues
// one Sample after another, taking its peers in turn. Samples started
// during the warm-up are checked but not timed. lanes, when non-nil,
// wraps each Sample in a root span on the worker's lane.
func closedLoop(forks []dht.Sampler, lanes []*lane, meter func() simnet.Cost, warm, dur time.Duration) loopResult {
	res := loopResult{owners: make([][]int32, len(forks))}
	lats := make([][]float64, closedWorkers)
	fails := make([]int64, closedWorkers)
	ends := make([]time.Time, closedWorkers)
	before := meter()
	start := time.Now()
	timedStart := start.Add(warm)
	end := timedStart.Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < closedWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var l *lane
			if lanes != nil {
				l = lanes[w]
			}
			for i := w; ; i += closedWorkers {
				if i >= len(forks) {
					i = w
				}
				t0 := time.Now()
				if !t0.Before(end) {
					break
				}
				var s *span
				if l != nil {
					s = l.enter(kSample)
				}
				p, err := forks[i].Sample()
				if l != nil {
					l.exit(s, err)
				}
				t1 := time.Now()
				if err != nil {
					fails[w]++
					res.owners[i] = append(res.owners[i], -1)
				} else {
					res.owners[i] = append(res.owners[i], int32(p.Owner))
				}
				if !t0.Before(timedStart) {
					lats[w] = append(lats[w], float64(t1.Sub(t0))/1e6)
				}
				ends[w] = t1
			}
		}(w)
	}
	wg.Wait()
	last := timedStart
	for w := 0; w < closedWorkers; w++ {
		res.latsMS = append(res.latsMS, lats[w]...)
		res.failed += fails[w]
		if ends[w].After(last) {
			last = ends[w]
		}
	}
	res.timed = int64(len(res.latsMS))
	for _, o := range res.owners {
		res.total += int64(len(o))
	}
	res.elapsed = last.Sub(timedStart).Seconds()
	res.cost = meter().Sub(before)
	return res
}

// replay runs count samples per peer one at a time from fresh forks
// with the given seeds, reading the meter around each. It returns the
// owners and each sample's cost.
func replay(rig *chordRig, seeds []uint64, counts []int) (owners [][]int32, costs [][]simnet.Cost, err error) {
	forks, err := rig.forks(seeds)
	if err != nil {
		return nil, nil, err
	}
	owners = make([][]int32, len(forks))
	costs = make([][]simnet.Cost, len(forks))
	for i, f := range forks {
		for j := 0; j < counts[i]; j++ {
			c0 := rig.meter()
			p, err := f.Sample()
			costs[i] = append(costs[i], rig.meter().Sub(c0))
			if err != nil {
				owners[i] = append(owners[i], -1)
				continue
			}
			owners[i] = append(owners[i], int32(p.Owner))
		}
	}
	return owners, costs, nil
}

// sumCosts adds up the first counts[i] costs of every peer.
func sumCosts(costs [][]simnet.Cost, counts []int) simnet.Cost {
	var t simnet.Cost
	for i, cs := range costs {
		for _, c := range cs[:counts[i]] {
			t.Calls += c.Calls
			t.Messages += c.Messages
			t.Failures += c.Failures
		}
	}
	return t
}

func fill(n, v int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// checkOracle replays every peer's samples on the oracle DHT over
// the same ring with the same fork seeds. The cross-backend
// determinism contract makes the owner sequences equal.
func checkOracle(res *result, rig *chordRig, seeds []uint64, owners [][]int32, label string) {
	o := dht.NewOracle(rig.ring)
	for i, c := range rig.peers {
		base, err := core.New(o, o.PeerByIndex(rig.ring.IndexOf(c)), rand.New(rand.NewPCG(0, 0)), core.Config{})
		if err != nil {
			res.gate("%s: oracle estimate for peer %d: %v", label, i, err)
			continue
		}
		if base.Params() != rig.bases[i].Params() {
			res.gate("%s: peer %d estimated %+v, oracle %+v", label, i, rig.bases[i].Params(), base.Params())
			continue
		}
		f, err := base.Fork(seeds[i])
		if err != nil {
			res.gate("%s: oracle fork: %v", label, err)
			continue
		}
		for j, got := range owners[i] {
			p, err := f.Sample()
			if err != nil || int32(p.Owner) != got {
				res.gate("%s: peer %d sample %d: owner %d, oracle %d (%v)", label, i, j, got, p.Owner, err)
				break
			}
		}
	}
}

// equalPrefix checks that a and b agree on every sample both hold.
func equalPrefix(res *result, label string, a, b [][]int32) {
	for i := range a {
		n := min(len(a[i]), len(b[i]))
		for j := 0; j < n; j++ {
			if a[i][j] != b[i][j] {
				res.gate("%s: peer %d sample %d: owner %d vs %d", label, i, j, a[i][j], b[i][j])
				break
			}
		}
	}
}

func runClosed(o options, spec closedSpec) (*result, error) {
	r, peers, seeds, err := workloadRing(o.seed, spec.n)
	if err != nil {
		return nil, err
	}
	if o.trace {
		return runClosedTraced(o, spec, r, peers, seeds)
	}
	res := &result{}
	// Set-up: build the rig several times; the median build is setup_s.
	var builds []float64
	var rig *chordRig
	setupStart := time.Now()
	for rep := 0; rep < setupMaxReps && (rep < setupMinReps || time.Since(setupStart) < setupMinTime); rep++ {
		if rig != nil {
			rig.close()
			rig = nil
			runtime.GC()
		}
		t0 := time.Now()
		rig, err = spec.build(r, peers, nil, o.seed)
		if err != nil {
			return nil, err
		}
		builds = append(builds, time.Since(t0).Seconds())
	}
	defer func() { rig.close() }()
	heap := liveHeapMB()

	forks, err := rig.forks(seeds)
	if err != nil {
		return nil, err
	}
	warm, dur := splitWarm(o.seconds)
	loop := closedLoop(forks, nil, rig.meter, warm, dur)
	res.attempted = loop.total
	res.failed = loop.failed
	if loop.failed > 0 {
		res.gate("%d samples failed on a static ring", loop.failed)
	}
	checkOracle(res, rig, seeds, loop.owners, spec.name)

	// Exact per-sample costs come from a one-at-a-time replay on an
	// in-process rig of the same ring. On chord-wire that rig is a
	// replica: the partitioned build is bit-identical to the whole one,
	// so a sample sends the same RPCs, and the wire meters must have
	// charged exactly what the replica charges for the same samples.
	costRig := rig
	counts := fill(len(peers), spec.costSamples)
	looped := make([]int, len(peers))
	for i := range looped {
		looped[i] = len(loop.owners[i])
	}
	if spec.replica {
		costRig, err = buildDirect(r, peers, nil, o.seed)
		if err != nil {
			return nil, err
		}
		defer costRig.close()
		for i := range counts {
			counts[i] = max(spec.costSamples, looped[i])
		}
	}
	replayed, costs, err := replay(costRig, seeds, counts)
	if err != nil {
		return nil, err
	}
	equalPrefix(res, spec.name+": replay", loop.owners, replayed)
	if spec.replica {
		if want := sumCosts(costs, looped); want != loop.cost {
			res.gate("wire meters charged %+v, in-process replica %+v for the same samples", loop.cost, want)
		}
	}
	var msgs, virt []float64
	var failedRPCs int64
	for _, cs := range costs {
		for _, c := range cs[:spec.costSamples] {
			failedRPCs += c.Failures
			msgs = append(msgs, float64(c.Messages))
			virt = append(virt, float64(c.Calls+c.Failures)*float64(modelRTT)/1e6)
		}
	}
	if failedRPCs != 0 {
		res.gate("%d RPCs failed replaying samples on a static ring", failedRPCs)
	}

	res.add("setup_s", "s", median(builds))
	res.add("samples_per_s", "1/s", float64(loop.timed)/loop.elapsed)
	res.add("sample_p50_ms", "ms", quantile(loop.latsMS, 0.50))
	res.add("sample_p99_ms", "ms", quantile(loop.latsMS, 0.99))
	res.add("virtual_p50_ms", "ms", quantile(virt, 0.50))
	res.add("virtual_p99_ms", "ms", quantile(virt, 0.99))
	res.add("msgs_per_sample", "msgs", mean(msgs))
	res.add("availability", "ratio", 1-float64(loop.failed)/float64(loop.total))
	res.add("heap_mb", "MB", heap)
	return res, nil
}

// splitWarm divides a run's seconds into a warm-up and the timed part.
func splitWarm(seconds float64) (warm, dur time.Duration) {
	total := time.Duration(seconds * float64(time.Second))
	warm = total / 10
	return warm, total - warm
}

// liveHeapMB is the live heap once collection has settled.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// splitmix derives the i-th independent seed from seed.
func splitmix(seed, i uint64) uint64 {
	z := seed + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// runClosedTraced measures the per-layer metrics: an untraced half
// run gives the reference throughput and the allocation figures, then
// a decorated rig of the same seed runs the other half with every
// layer traced. Both rigs replay the same probe samples, and their
// meters must agree call for call.
func runClosedTraced(o options, spec closedSpec, r *ring.Ring, peers []ring.Point, seeds []uint64) (*result, error) {
	res := &result{}
	warm, dur := splitWarm(o.seconds / 2)
	probe := make([]int, len(peers))
	for i := range probe[:parityPeers] {
		probe[i] = parityProbe
	}

	plain, err := spec.build(r, peers, nil, o.seed)
	if err != nil {
		return nil, err
	}
	forks, err := plain.forks(seeds)
	if err != nil {
		plain.close()
		return nil, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	before := wireCounters(plain)
	ref := closedLoop(forks, nil, plain.meter, warm, dur)
	runtime.ReadMemStats(&m1)
	remoteCalls := wireCounters(plain).remote - before.remote
	checkOracle(res, plain, seeds, ref.owners, "untraced")
	_, plainCosts, err := replay(plain, seeds, probe)
	plain.close()
	if err != nil {
		return nil, err
	}

	t := newTracer(spec.transportLayer, "chord", keepTrees)
	lanes := newWorkerLanes(t, peers)
	rig, err := spec.build(r, peers, t, o.seed)
	if err != nil {
		return nil, err
	}
	defer rig.close()
	nhat := 0.0
	for _, b := range rig.bases {
		nhat += b.Estimate().NHat / float64(spec.n) / float64(len(rig.bases))
	}
	forks, err = rig.forks(seeds)
	if err != nil {
		return nil, err
	}
	wb := wireCounters(rig)
	traced := closedLoop(forks, lanes, rig.meter, warm, dur)
	wa := wireCounters(rig)
	tt := t.totals()
	checkOracle(res, rig, seeds, traced.owners, "traced")
	_, tracedCosts, err := replay(rig, seeds, probe)
	if err != nil {
		return nil, err
	}
	if a, b := sumCosts(plainCosts, probe), sumCosts(tracedCosts, probe); a != b {
		res.gate("meter parity: untraced rig charged %+v, traced rig %+v for the same samples", a, b)
	}
	if tt.unknown > 0 {
		res.gate("%d traced calls came from nodes with no lane", tt.unknown)
	}
	if n := ref.failed + traced.failed; n > 0 {
		res.gate("%d samples failed on a static ring", n)
	}
	if err := t.writeSpans(spansPath(o)); err != nil {
		return nil, err
	}
	res.attempted = traced.total
	res.failed = traced.failed
	in := layerInputs{
		overlay: "chord", transport: spec.transportLayer, nhatOverN: nhat,
		plainRate:  float64(ref.timed) / ref.elapsed,
		tracedRate: float64(traced.timed) / traced.elapsed,
	}
	if spec.transportLayer == "wire" {
		in.wireAllocs = ratio(float64(m1.Mallocs-m0.Mallocs), remoteCalls)
		in.wireBytes = ratio(float64(m1.TotalAlloc-m0.TotalAlloc), remoteCalls)
		in.wireRetries = wa.retries - wb.retries
	}
	addLayerMetrics(res, tt, in)
	return res, nil
}

// wireReading is a reading of the sampling peers' wire transport counters.
type wireReading struct{ remote, retries float64 }

func wireCounters(rig *chordRig) wireReading {
	if rig.wireReg == nil {
		return wireReading{}
	}
	s := rig.wireReg.Snapshot()
	remote, _ := s.Value(`wire_rpc_calls_total{dest="remote"}`)
	retries, _ := s.Value("wire_rpc_retries_total")
	return wireReading{remote: remote, retries: retries}
}

// spansPath names the span dump of a traced run, under the directory
// run.sh builds into.
func spansPath(o options) string {
	return filepath.Join(".bench_build", "perfbench", fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
}
