package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"time"

	"github.com/dht-sampling/randompeer/internal/churn"
	"github.com/dht-sampling/randompeer/internal/core"
	"github.com/dht-sampling/randompeer/internal/dht"
	"github.com/dht-sampling/randompeer/internal/kademlia"
	"github.com/dht-sampling/randompeer/internal/load"
	"github.com/dht-sampling/randompeer/internal/obs"
	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/sim"
	"github.com/dht-sampling/randompeer/internal/simnet"
)

// The scenario is E28's default one on kademlia (exp.DefaultSLOScenario),
// fixed here so that the benchmark changes only when this file does,
// except that churnServers peers serve the requests instead of one.
const (
	churnPeers    = 512
	churnRequests = 1500
	churnClients  = 1 << 20
	churnEvents   = 24
	churnMeanGap  = 2 * time.Millisecond
	churnGapSigma = 1.0
	churnZipfS    = 1.1
	churnWindow   = 250 * time.Millisecond
	churnRefresh  = 100 * time.Millisecond
	churnMaintain = 5 * time.Millisecond
	churnBackoff  = 10 * time.Millisecond
	// churnPanel is how many scenario seeds one run pools: no single
	// lucky seed decides a figure.
	churnPanel = 6
	// churnServers is how many peers serve the requests, in turn. E28
	// serves every request from one peer, whose size estimate is
	// typically off by 30% at n=512; a request's cost scales with it,
	// so one peer would let the seed, not the code, set the figures.
	churnServers = 32
)

// scenario is one composed E28 kademlia scenario, ready to run.
type scenario struct {
	k      *sim.Kernel
	tr     *sim.Transport
	churn  *churn.AsyncRun
	run    *load.Run
	lane   *lane // nil when untraced
	reqs   []request
	nhat   []float64 // n̂/n at every successful estimate
	setupS float64
}

// request is one arrival's outcome.
type request struct {
	owner  int
	class  string // simnet.ErrorClass of the final error; "ok" on success
	virtNS int64  // arrival to completion, virtual
}

// scenarioResult is one completed scenario.
type scenarioResult struct {
	digest       uint64
	completed    int64
	failed       int64
	wallS        float64
	virtMS       []float64 // every request
	okMS         []float64 // completed requests
	cost         simnet.Cost
	kernelEvents uint64
	stepErrors   int
	nhat         []float64
}

// panelSeeds derives the run's scenario seeds from its seed.
func panelSeeds(seed uint64) []uint64 {
	out := make([]uint64, churnPanel)
	for i := range out {
		out[i] = splitmix(seed, 0x28+uint64(i))
	}
	return out
}

// newScenario composes the scenario from the layers' public
// constructors, decorating the transport, the DHT view and the churn
// overlay when t is non-nil.
func newScenario(seed uint64, t *tracer) (*scenario, error) {
	start := time.Now()
	sc := &scenario{reqs: make([]request, churnRequests)}
	if t != nil {
		sc.lane = t.kernelLane()
	}
	r, err := ring.Generate(rand.New(rand.NewPCG(seed, seed+1)), churnPeers)
	if err != nil {
		return nil, err
	}
	sc.k = sim.NewKernel(seed)
	sc.tr = sim.NewTransport(sim.WithKernel(sc.k), sim.WithModel(sim.Constant{RTT: modelRTT}), sim.WithStreamSeed(seed+2))
	var tr simnet.Transport = sc.tr
	if t != nil {
		tr = wrapTransport(sc.tr, t, false)
	}
	net, err := kademlia.BuildStatic(kademlia.Config{}, tr, r.Points())
	if err != nil {
		return nil, err
	}
	var ov churn.Overlay = churn.Kademlia(net)
	if t != nil {
		ov = &tracedOverlay{Overlay: ov, lane: sc.lane}
	}
	servers := make([]ring.Point, churnServers)
	protected := make(map[ring.Point]bool, churnServers)
	for i := range servers {
		servers[i] = r.At(i * churnPeers / churnServers)
		protected[servers[i]] = true
	}
	driver, err := churn.NewDriver(ov, rand.New(rand.NewPCG(seed+3, seed+4)), churn.Config{
		Events:    churnEvents,
		Protected: protected,
	})
	if err != nil {
		return nil, err
	}
	sc.churn, err = driver.Schedule(sc.k, churn.AsyncConfig{
		MeanInterval:        churnMeanGap * churnRequests / (churnEvents + 1),
		MaintenanceInterval: churnMaintain,
	}, nil)
	if err != nil {
		return nil, err
	}
	// Each server keeps one long-lived estimated sampler, rebuilt in the
	// background every churnRefresh of virtual time and kept stale when
	// a rebuild fails; each request samples through a Fork of its
	// server's sampler.
	bases := make([]*core.Sampler, churnServers)
	loadDone := false
	for i, p := range servers {
		view, err := net.AsDHT(p)
		if err != nil {
			return nil, err
		}
		var d dht.DHT = view
		if t != nil {
			d = &tracedDHT{DHT: view, lane: sc.lane}
		}
		estimate := func(rng *rand.Rand) (*core.Sampler, error) {
			var s *span
			if sc.lane != nil {
				s = sc.lane.enter(kEstimate)
			}
			b, err := core.New(d, view.Self(), rng, core.Config{})
			if sc.lane != nil {
				sc.lane.exit(s, err)
			}
			if err == nil {
				sc.nhat = append(sc.nhat, b.Estimate().NHat/float64(net.NumAlive()))
			}
			return b, err
		}
		ss := splitmix(seed+7, uint64(i))
		if bases[i], err = estimate(rand.New(rand.NewPCG(ss, ss+1))); err != nil {
			return nil, err
		}
		sc.k.Go("estimator", func() {
			rng := rand.New(rand.NewPCG(ss+2, ss+3))
			for !loadDone {
				if sc.k.Sleep(churnRefresh) != nil || loadDone {
					return
				}
				if s, err := estimate(rng); err == nil {
					bases[i] = s
				}
			}
		})
	}
	var rec *load.Recorder
	reg := obs.NewRegistry()
	sc.run, err = load.Start(sc.k, load.Config{
		Clients:  churnClients,
		Requests: churnRequests,
		MeanGap:  churnMeanGap,
		GapSigma: churnGapSigma,
		ZipfS:    churnZipfS,
		Seed:     seed + 5,
		Registry: reg,
		Owners:   churnPeers,
		Do: func(req load.Request) (int, error) {
			return sc.do(req, &bases[req.Index%churnServers])
		},
		OnDone: func() {
			loadDone = true
			rec.Flush(sc.k.Now())
		},
	})
	if err != nil {
		return nil, err
	}
	rec = load.StartRecorder(sc.k, reg, churnWindow)
	sc.setupS = time.Since(start).Seconds()
	return sc, nil
}

// do serves one request: sample through a fresh Fork of the server's
// current estimated sampler, and after a failure back off once and
// retry.
func (sc *scenario) do(req load.Request, base **core.Sampler) (int, error) {
	vstart := sc.k.Now()
	l := sc.lane
	var root *span
	if l != nil {
		root = l.enter(kSample)
	}
	owner, err := -1, error(nil)
	for attempt := 0; attempt < 2; attempt++ {
		if attempt > 0 {
			if l != nil {
				l.retried++
				l.suspend()
			}
			serr := sc.k.Sleep(churnBackoff)
			if l != nil {
				l.resume(root)
			}
			if serr != nil {
				err = serr
				break
			}
		}
		var f dht.Sampler
		f, err = (*base).Fork(req.Rand.Uint64())
		if err != nil {
			break
		}
		if root != nil {
			root.failErr = nil
		}
		var p dht.Peer
		p, err = f.Sample()
		if err == nil {
			owner = p.Owner
			break
		}
	}
	if l != nil {
		l.exit(root, err)
	}
	sc.reqs[req.Index] = request{
		owner:  owner,
		class:  simnet.ErrorClass(err),
		virtNS: int64(sc.k.Now() - vstart),
	}
	return owner, err
}

// execute runs the kernel to completion and summarizes the outcome.
// The digest covers everything the scenario computes in virtual time,
// which is a pure function of the seed.
func (sc *scenario) execute() scenarioResult {
	t0 := time.Now()
	sc.k.Run()
	res := scenarioResult{
		wallS:        time.Since(t0).Seconds(),
		completed:    sc.run.Completed(),
		failed:       sc.run.Failed(),
		cost:         sc.tr.Meter().Snapshot(),
		kernelEvents: sc.k.Processed(),
		stepErrors:   sc.churn.StepErrors,
		nhat:         sc.nhat,
	}
	h := fnv.New64a()
	word := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for i, rq := range sc.reqs {
		word(uint64(i))
		word(uint64(int64(rq.owner)))
		word(uint64(rq.virtNS))
		h.Write([]byte(rq.class))
		res.virtMS = append(res.virtMS, float64(rq.virtNS)/1e6)
		if rq.class == "ok" {
			res.okMS = append(res.okMS, float64(rq.virtNS)/1e6)
		}
	}
	for _, ev := range sc.churn.Events {
		word(uint64(ev.Node))
		if ev.Join {
			word(1)
		}
	}
	for _, v := range []uint64{uint64(res.cost.Calls), uint64(res.cost.Messages), uint64(res.cost.Failures),
		res.kernelEvents, uint64(res.stepErrors), uint64(sc.k.Now()), uint64(res.completed), uint64(res.failed)} {
		word(v)
	}
	res.digest = h.Sum64()
	return res
}

// runPanel runs every scenario of the panel, decorated when t is
// non-nil, and reads the live heap after the first one's set-up.
func runPanel(seeds []uint64, t *tracer) (outs []scenarioResult, setups []float64, heapMB float64, err error) {
	for i, seed := range seeds {
		sc, err := newScenario(seed, t)
		if err != nil {
			return nil, nil, 0, err
		}
		setups = append(setups, sc.setupS)
		if i == 0 {
			heapMB = liveHeapMB()
		}
		outs = append(outs, sc.execute())
	}
	return outs, setups, heapMB, nil
}

// runKademliaChurn runs the panel once; its work is fixed by the seed,
// whatever --seconds says.
func runKademliaChurn(o options) (*result, error) {
	seeds := panelSeeds(o.seed)
	if o.trace {
		return runChurnTraced(o, seeds)
	}
	outs, setups, heap, err := runPanel(seeds, nil)
	if err != nil {
		return nil, err
	}
	res := &result{attempted: int64(len(outs))}
	checkChurn(res, outs)
	var rates, virt, ok []float64
	var completed, failed, msgs int64
	for _, out := range outs {
		rates = append(rates, float64(out.completed)/out.wallS)
		completed += out.completed
		failed += out.failed
		msgs += out.cost.Messages
		virt = append(virt, out.virtMS...)
		ok = append(ok, out.okMS...)
	}
	attempted := float64(churnRequests * len(outs))
	res.add("setup_s", "s", median(setups))
	res.add("samples_per_s", "1/s", median(rates))
	// A simulated request's user waits in virtual time: sample_* is the
	// latency of the requests that returned a peer, virtual_* that of
	// every request, failed ones up to their error.
	res.add("sample_p50_ms", "ms", quantile(ok, 0.50))
	res.add("sample_p99_ms", "ms", quantile(ok, 0.99))
	res.add("virtual_p50_ms", "ms", quantile(virt, 0.50))
	res.add("virtual_p99_ms", "ms", quantile(virt, 0.99))
	res.add("msgs_per_sample", "msgs", float64(msgs)/attempted)
	res.add("availability", "ratio", float64(completed)/attempted)
	res.add("heap_mb", "MB", heap)
	fmt.Printf("kademlia-churn: %.0f requests over %d seeds, %d failed after the retry\n", attempted, len(seeds), failed)
	return res, nil
}

// checkChurn verifies every scenario finished every request, with a
// peer or a classified error.
func checkChurn(res *result, outs []scenarioResult) {
	for _, out := range outs {
		if out.completed+out.failed != churnRequests {
			res.gate("scenario finished %d of %d requests", out.completed+out.failed, churnRequests)
		}
	}
}

// runChurnTraced runs the panel plain, then decorated: the digests
// must agree seed by seed, since the decorators only read the clock.
func runChurnTraced(o options, seeds []uint64) (*result, error) {
	plain, _, _, err := runPanel(seeds, nil)
	if err != nil {
		return nil, err
	}
	t := newTracer("sim", "kademlia", keepTrees)
	traced, _, _, err := runPanel(seeds, t)
	if err != nil {
		return nil, err
	}
	res := &result{attempted: int64(len(plain) + len(traced))}
	checkChurn(res, plain)
	var plainWall, plainDone, tracedWall, tracedDone, events, stepErrs float64
	var nhat []float64
	for i, out := range traced {
		if out.digest != plain[i].digest {
			res.gate("scenario seed %d: traced digest %x, untraced %x (cost %+v vs %+v)",
				seeds[i], out.digest, plain[i].digest, out.cost, plain[i].cost)
		}
		plainWall += plain[i].wallS
		plainDone += float64(plain[i].completed)
		tracedWall += out.wallS
		tracedDone += float64(out.completed)
		events += float64(out.kernelEvents)
		stepErrs += float64(out.stepErrors)
		nhat = append(nhat, out.nhat...)
	}
	if err := t.writeSpans(spansPath(o)); err != nil {
		return nil, err
	}
	addLayerMetrics(res, t.totals(), layerInputs{
		overlay: "kademlia", transport: "sim", nhatOverN: mean(nhat),
		kernelEvents: events, churnStepErrors: stepErrs,
		plainRate: plainDone / plainWall, tracedRate: tracedDone / tracedWall,
	})
	return res, nil
}
