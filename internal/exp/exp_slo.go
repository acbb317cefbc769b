package exp

import (
	"fmt"
	"io"
	"math/rand/v2"
	"time"

	"github.com/dht-sampling/randompeer/internal/churn"
	"github.com/dht-sampling/randompeer/internal/core"
	"github.com/dht-sampling/randompeer/internal/load"
	"github.com/dht-sampling/randompeer/internal/loadbalance"
	"github.com/dht-sampling/randompeer/internal/obs"
	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/sim"
	"github.com/dht-sampling/randompeer/internal/slo"
)

// SLOScenario parameterizes one E28 run: an open-loop sample workload
// against one backend, concurrent with asynchronous churn, recorded in
// virtual-time windows and evaluated against SLO objectives.
type SLOScenario struct {
	Backend       string        // "chord" or "kademlia"
	Peers         int           // overlay size (must divide by VnodesPerHost)
	Requests      int           // open-loop arrivals
	Clients       int           // virtual client population
	ChurnEvents   int           // concurrent join/crash events
	ChurnGap      time.Duration // mean churn gap (0 = spread events over the load horizon)
	MeanGap       time.Duration // mean interarrival gap (offered rate = 1/MeanGap)
	GapSigma      float64       // lognormal interarrival sigma
	ZipfS         float64       // client popularity exponent
	Window        time.Duration // recorder window Δt (virtual)
	Refresh       time.Duration // size-estimate refresh period (0 = 100ms)
	VnodesPerHost int           // vnode-on grouping for the load-variance comparison
	Objectives    slo.Objectives
	Model         sim.Model
	Seed          uint64
}

// SLOResult is one completed scenario: the evaluated report, the
// recorded windows behind it, the vnode load-variance comparison, and
// run metadata. Everything except the wall-clock fields is a
// deterministic function of the scenario (TestSLOScenarioDeterminism).
type SLOResult struct {
	Scenario     SLOScenario
	Report       slo.Report
	Windows      []slo.WindowInput
	VnodeOff     loadbalance.Spread
	VnodeOn      loadbalance.Spread
	Completed    int64
	Failed       int64
	ChurnEvents  int
	StepErrors   int
	Refreshes    int // background size-estimate rebuilds that succeeded
	RefreshErrs  int // background rebuilds that failed (estimate kept stale)
	Virtual      time.Duration
	KernelEvents uint64
	RunWall      time.Duration // measured, not simulated — excluded from determinism
}

// sloMetricKeys are the workload series the scenario extracts from each
// recorder window (the op label is load.Config.Op's default).
const (
	sloKeyOK      = `load_requests_total{op="sample"}`
	sloKeyFailed  = `load_request_failures_total{op="sample"}`
	sloKeyLatency = `load_request_latency_nanoseconds{op="sample"}`
)

// RunSLOScenario executes one E28 scenario: build the backend over a
// kernel-bound transport, schedule churn, run the open-loop workload
// with a windowed recorder, then evaluate the windows against the
// objectives and compare vnode-off/on load spread on the per-owner
// request tally. Both the E28 experiment table and cmd/benchsnap's
// `slo` section call this one function.
func RunSLOScenario(sc SLOScenario) (*SLOResult, error) {
	if sc.VnodesPerHost < 1 {
		sc.VnodesPerHost = 8
	}
	if sc.Peers%sc.VnodesPerHost != 0 {
		return nil, fmt.Errorf("exp: peers %d not divisible by vnodes per host %d", sc.Peers, sc.VnodesPerHost)
	}
	rng := rand.New(rand.NewPCG(sc.Seed, sc.Seed+1))
	r, err := ring.Generate(rng, sc.Peers)
	if err != nil {
		return nil, err
	}
	k := sim.NewKernel(sc.Seed)
	tr := sim.NewTransport(
		sim.WithKernel(k),
		sim.WithModel(sc.Model),
		sim.WithStreamSeed(sc.Seed+2),
	)
	ov, d, err := buildChurnOverlay(sc.Backend, tr, r.Points())
	if err != nil {
		return nil, err
	}
	caller := r.At(0)
	var churnRun *churn.AsyncRun
	if sc.ChurnEvents > 0 {
		driver, err := churn.NewDriver(ov, rand.New(rand.NewPCG(sc.Seed+3, sc.Seed+4)), churn.Config{
			Events:    sc.ChurnEvents,
			Protected: map[ring.Point]bool{caller: true},
		})
		if err != nil {
			return nil, err
		}
		churnGap := sc.ChurnGap
		if churnGap <= 0 {
			// Spread the events across the load horizon so maintenance
			// (which runs only while churn is live) covers the whole
			// request stream, and churn-degraded windows appear
			// throughout rather than as one early cliff.
			churnGap = time.Duration(int64(sc.MeanGap) * int64(sc.Requests) / int64(sc.ChurnEvents+1))
		}
		churnRun, err = driver.Schedule(k, churn.AsyncConfig{
			MeanInterval:        churnGap,
			MaintenanceInterval: 5 * time.Millisecond,
		}, nil)
		if err != nil {
			return nil, err
		}
	}
	// The serving path is production-shaped: the expensive Estimate-n
	// run stays off the request path. One long-lived base sampler is
	// rebuilt by a background refresher process every Refresh of virtual
	// time (and kept stale on a failed rebuild), and each request Forks
	// it — no DHT calls — so a request pays only its own sampling walk.
	base, err := core.New(d, d.Self(), rand.New(rand.NewPCG(sc.Seed+7, sc.Seed+8)), core.Config{})
	if err != nil {
		return nil, err
	}
	refresh := sc.Refresh
	if refresh <= 0 {
		refresh = 100 * time.Millisecond
	}
	res := &SLOResult{Scenario: sc}
	loadDone := false
	k.Go("estimator", func() {
		rng := rand.New(rand.NewPCG(sc.Seed+9, sc.Seed+10))
		for !loadDone {
			if k.Sleep(refresh) != nil {
				return
			}
			if loadDone {
				return
			}
			s, err := core.New(d, d.Self(), rng, core.Config{})
			if err != nil {
				res.RefreshErrs++ // keep serving from the stale estimate
				continue
			}
			base = s
			res.Refreshes++
		}
	})
	reg := obs.NewRegistry()
	var rec *load.Recorder
	run, err := load.Start(k, load.Config{
		Clients:  sc.Clients,
		Requests: sc.Requests,
		MeanGap:  sc.MeanGap,
		GapSigma: sc.GapSigma,
		ZipfS:    sc.ZipfS,
		Seed:     sc.Seed + 5,
		Registry: reg,
		Owners:   sc.Peers,
		// One bounded retry after a short backoff: a sample that dies on
		// a just-crashed node usually succeeds once a maintenance sweep
		// has spliced around it, so the retry converts a failure burst
		// into a latency bump — the tradeoff the windowed report is
		// built to show.
		Do: func(req load.Request) (int, error) {
			var lastErr error
			for attempt := 0; attempt < 2; attempt++ {
				if attempt > 0 {
					if err := k.Sleep(10 * time.Millisecond); err != nil {
						return -1, err
					}
				}
				s, err := base.Fork(req.Rand.Uint64())
				if err != nil {
					return -1, err
				}
				p, err := s.Sample()
				if err == nil {
					return p.Owner, nil
				}
				lastErr = err
			}
			return -1, lastErr
		},
		OnDone: func() {
			loadDone = true
			rec.Flush(k.Now())
		},
	})
	if err != nil {
		return nil, err
	}
	rec = load.StartRecorder(k, reg, sc.Window)
	wallStart := time.Now()
	k.Run()
	res.RunWall = time.Since(wallStart)
	res.Virtual = k.Now()
	res.KernelEvents = k.Processed()
	res.Completed = run.Completed()
	res.Failed = run.Failed()
	if churnRun != nil {
		res.ChurnEvents = len(churnRun.Events)
		res.StepErrors = churnRun.StepErrors
	}
	for _, w := range rec.Windows() {
		in := slo.WindowInput{Start: w.Start, End: w.End}
		if v, ok := w.Delta.Value(sloKeyOK); ok {
			in.OK = int64(v)
		}
		if v, ok := w.Delta.Value(sloKeyFailed); ok {
			in.Failed = int64(v)
		}
		if h, ok := w.Delta.Hist(sloKeyLatency); ok {
			in.Latency = h
		}
		res.Windows = append(res.Windows, in)
	}
	res.Report = slo.Evaluate(sc.Objectives, res.Windows)
	res.VnodeOff, res.VnodeOn, err = loadbalance.VnodeCompare(run.OwnerLoads(), sc.VnodesPerHost, sc.Seed+6)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// DefaultSLOScenario is the E28 configuration for one backend: the
// objectives are set where a healthy run passes with budget to spare
// and a churn-degraded run visibly burns it. The window is ~100x the
// mean request latency under the default constant-1ms model, so each
// window holds a useful latency sample (see DESIGN.md §12).
// Both the E28 table and cmd/benchsnap's `slo` section start from it.
func DefaultSLOScenario(backend string, quick bool, model sim.Model, seed uint64) SLOScenario {
	sc := SLOScenario{
		Backend:       backend,
		Peers:         512,
		Requests:      1500,
		Clients:       1 << 20, // a million virtual clients; Zipf keeps the hot set small
		ChurnEvents:   24,
		MeanGap:       2 * time.Millisecond,
		GapSigma:      1.0,
		ZipfS:         1.1,
		Window:        250 * time.Millisecond,
		VnodesPerHost: 8,
		Objectives: slo.Objectives{
			LatencyQuantile: 0.99,
			LatencyTarget:   2 * time.Second,
			Availability:    0.95,
		},
		Model: model,
		Seed:  seed,
	}
	if quick {
		sc.Peers, sc.Requests, sc.ChurnEvents = 128, 400, 10
		sc.Clients = 1 << 14
	}
	return sc
}

// WriteMarkdownReport writes the scenario's full SLO report (summary,
// objectives, per-window series, vnode comparison) — the artifact the
// CI smoke job uploads and the README sample reproduces.
func (res *SLOResult) WriteMarkdownReport(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# E28 SLO report — backend %s, n=%d, %d requests, %d churn events\n\n",
		res.Scenario.Backend, res.Scenario.Peers, res.Scenario.Requests, res.ChurnEvents); err != nil {
		return err
	}
	if err := res.Report.WriteMarkdown(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "\n### Vnode load variance (%d vnodes/host)\n\n| view | hosts | imbalance | cv |\n|---|---|---|---|\n| vnodes off | %d | %.3f | %.3f |\n| vnodes on | %d | %.3f | %.3f |\n",
		res.Scenario.VnodesPerHost,
		res.VnodeOff.Hosts, res.VnodeOff.Imbalance, res.VnodeOff.CV,
		res.VnodeOn.Hosts, res.VnodeOn.Imbalance, res.VnodeOn.CV)
	return err
}

// expE28 is the SLO experiment: per-backend open-loop load under churn
// with windowed recording, reported as error budgets and burn rates —
// the production-shaped reading of the paper's "serve lookup traffic
// while nodes come and go" claim.
func expE28() Experiment {
	return Experiment{
		ID:    "E28",
		Title: "SLO report: open-loop load under churn, windowed in virtual time",
		Claim: "per-backend p50/p95/p99, availability and error-budget burn under a fixed offered rate concurrent with churn",
		Run: func(cfg RunConfig) (*Table, error) {
			model, err := cfg.LatencyModel()
			if err != nil {
				return nil, err
			}
			t := &Table{
				ID:      "E28",
				Title:   "Open-loop workload SLOs under churn (model " + model.Name() + ")",
				Claim:   "the sampler serves a fixed offered rate within latency and availability objectives while the overlay churns",
				Columns: []string{"backend", "n", "requests", "failed", "p50_ms", "p95_ms", "p99_ms", "avail", "budget%", "maxBurn", "fastWin", "vnodeOffImb", "vnodeOnImb", "met"},
			}
			for _, backend := range []string{"chord", "kademlia"} {
				sc := DefaultSLOScenario(backend, cfg.Quick, model, cfg.Seed^0x28^uint64(len(backend)))
				res, err := RunSLOScenario(sc)
				if err != nil {
					return nil, err
				}
				rep := res.Report
				met := "yes"
				if !rep.Met {
					met = "no"
				}
				if err := t.AddRow(
					backend, fmtI(sc.Peers),
					fmtI64(rep.TotalRequests), fmtI64(rep.TotalFailed),
					fmtF(ms(res.OverallQuantile(0.50))),
					fmtF(ms(res.OverallQuantile(0.95))),
					fmtF(ms(res.OverallQuantile(0.99))),
					fmt.Sprintf("%.4f", rep.Availability),
					fmtF(rep.BudgetConsumed*100),
					fmtF(rep.MaxBurnRate),
					fmtI(rep.FastBurnWindows),
					fmtF(res.VnodeOff.Imbalance),
					fmtF(res.VnodeOn.Imbalance),
					met,
				); err != nil {
					return nil, err
				}
				t.AddNote("%s: %s", backend, rep.String())
				t.AddNote("%s: %d windows of %v virtual; vnode grouping (V=%d) cut load CV %.3f -> %.3f; churn %d events (%d step errors); kernel ran %d events (%.0fms virtual) in %.2fs wall",
					backend, len(rep.Windows), sc.Window, sc.VnodesPerHost,
					res.VnodeOff.CV, res.VnodeOn.CV,
					res.ChurnEvents, res.StepErrors,
					res.KernelEvents, ms(res.Virtual), res.RunWall.Seconds())
			}
			t.AddNote("open-loop: arrivals keep their lognormal/Zipf schedule regardless of completions, so queueing under churn shows up as latency, not as a reduced offered rate")
			t.AddNote("a request is bad if it failed or breached the latency target; budget%% is bad events over (1-availability objective) x requests")
			return t, nil
		},
	}
}

// OverallQuantile merges the run's window histograms and reads one
// quantile — the whole-horizon distribution, not an average of windows.
func (res *SLOResult) OverallQuantile(q float64) time.Duration {
	var total obs.HistSnapshot
	for _, w := range res.Windows {
		total.Count += w.Latency.Count
		total.SumNanos += w.Latency.SumNanos
		for i := range total.Buckets {
			total.Buckets[i] += w.Latency.Buckets[i]
		}
	}
	return total.Quantile(q)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
