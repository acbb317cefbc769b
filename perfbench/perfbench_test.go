package main

import (
	"encoding/json"
	"math/rand/v2"
	"os"
	"testing"
	"time"

	"github.com/dht-sampling/randompeer/internal/chord"
	"github.com/dht-sampling/randompeer/internal/core"
	"github.com/dht-sampling/randompeer/internal/exp"
	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/sim"
	"github.com/dht-sampling/randompeer/internal/simnet"
	"github.com/dht-sampling/randompeer/internal/wire"
)

// The decorator must expose bulk registration exactly where the
// transport does, or the overlay would take another registration path
// under tracing than without it.
func TestWrapTransportKeepsOptionalInterfaces(t *testing.T) {
	tr := newTracer("x", "y", 0)
	wt := wire.NewTransport()
	defer wt.Close()
	for _, c := range []struct {
		name  string
		inner simnet.Transport
	}{
		{"direct", simnet.NewDirect()},
		{"sim", sim.NewTransport()},
		{"wire", wt},
	} {
		_, innerMulti := c.inner.(simnet.MultiRegistrar)
		_, wrappedMulti := wrapTransport(c.inner, tr, false).(simnet.MultiRegistrar)
		if innerMulti != wrappedMulti {
			t.Errorf("%s: MultiRegistrar %v, decorated %v", c.name, innerMulti, wrappedMulti)
		}
	}
	if _, ok := simnet.Transport(wt).(simnet.MultiRegistrar); ok {
		t.Error("wire transport offers bulk registration; the chord-wire rig assumes it does not")
	}
}

// smallRig builds a chord rig on a small ring, decorated when traced.
func smallRig(t *testing.T, n int, traced bool, build func(*ring.Ring, []ring.Point, *tracer, uint64) (*chordRig, error)) (*chordRig, []uint64, *tracer) {
	t.Helper()
	r, peers, seeds, err := workloadRing(7, n)
	if err != nil {
		t.Fatal(err)
	}
	var tr *tracer
	if traced {
		tr = newTracer("simnet", "chord", 2)
		newWorkerLanes(tr, peers)
	}
	rig, err := build(r, peers, tr, 7)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rig.close)
	return rig, seeds, tr
}

// A traced rig sends the same RPCs and samples the same peers as an
// untraced one; the oracle agrees with both.
func TestTracedRigMatchesPlain(t *testing.T) {
	for _, c := range []struct {
		name  string
		n     int
		build func(*ring.Ring, []ring.Point, *tracer, uint64) (*chordRig, error)
	}{
		{"direct", 512, buildDirect},
		{"wire", 512, buildWire},
	} {
		t.Run(c.name, func(t *testing.T) {
			plain, seeds, _ := smallRig(t, c.n, false, c.build)
			traced, _, tr := smallRig(t, c.n, true, c.build)
			counts := fill(closedPeers, 1)
			po, pc, err := replay(plain, seeds, counts)
			if err != nil {
				t.Fatal(err)
			}
			tr0 := tr.totals()
			to, tc, err := replay(traced, seeds, counts)
			if err != nil {
				t.Fatal(err)
			}
			if a, b := sumCosts(pc, counts), sumCosts(tc, counts); a != b {
				t.Fatalf("meters differ: plain %+v, traced %+v", a, b)
			}
			res := &result{}
			equalPrefix(res, "traced vs plain", po, to)
			checkOracle(res, plain, seeds, po, "plain")
			if len(res.gateErrs) > 0 {
				t.Fatal(res.gateErrs)
			}
			tt := tr.totals()
			calls := tt.kindStat(kCall).n + tt.kindStat(kRemote).n - tr0.kindStat(kCall).n - tr0.kindStat(kRemote).n
			if want := sumCosts(tc, counts).Calls; calls != want {
				t.Errorf("decorator saw %d transport calls, meter charged %d", calls, want)
			}
			if tt.unknown != 0 {
				t.Errorf("%d calls had no lane", tt.unknown)
			}
		})
	}
}

// On a closed loop a sample's virtual latency is its RPC count times
// the model's round trip: exactly what a kernel-free sim transport with
// the constant model charges for the same sample.
func TestVirtualLatencyIsRPCsTimesRTT(t *testing.T) {
	r, peers, seeds, err := workloadRing(3, 512)
	if err != nil {
		t.Fatal(err)
	}
	tr := sim.NewTransport(sim.WithModel(sim.Constant{RTT: modelRTT}))
	net, err := chord.BuildStatic(chord.Config{}, tr, r.Points())
	if err != nil {
		t.Fatal(err)
	}
	view, err := net.AsDHT(peers[0])
	if err != nil {
		t.Fatal(err)
	}
	base, err := core.New(view, view.Self(), rand.New(rand.NewPCG(0, 0)), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	f, err := base.Fork(seeds[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		c0, v0 := tr.Meter().Snapshot(), tr.Now()
		if _, err := f.Sample(); err != nil {
			t.Fatal(err)
		}
		c := tr.Meter().Snapshot().Sub(c0)
		if got, want := tr.Now()-v0, time.Duration(c.Calls+c.Failures)*modelRTT; got != want {
			t.Fatalf("sample %d: virtual %v, RPCs x RTT %v", i, got, want)
		}
	}
}

// Every charged nanosecond of a closed-loop lane belongs to a span of
// the sample tree, so the layers' self times add up to the samples'
// wall time.
func TestSelfTimesAccountForSamples(t *testing.T) {
	rig, seeds, tr := smallRig(t, 512, true, buildDirect)
	forks, err := rig.forks(seeds)
	if err != nil {
		t.Fatal(err)
	}
	l := tr.lanes[0]
	for i := 0; i < 20; i++ {
		s := l.enter(kSample)
		_, err := forks[0].Sample()
		l.exit(s, err)
		if err != nil {
			t.Fatal(err)
		}
	}
	tt := tr.totals()
	var self int64
	for k := range tt.stats[kSample] {
		self += tt.stats[kSample][k].self
	}
	if wall := tt.stats[kSample][kSample].wall; self != wall {
		t.Fatalf("self times sum to %dns, samples took %dns", self, wall)
	}
	if tt.stats[kSample][kH].n == 0 || tt.stats[kSample][kHandler].n == 0 {
		t.Fatalf("missing layers: %+v", tt.stats[kSample])
	}
	if got := len(l.kept); got == 0 {
		t.Fatal("no span trees kept")
	}
}

// The churn scenario is a pure function of its seed, traced or not.
func TestChurnScenarioDigestIgnoresTracing(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full scenario twice")
	}
	seed := panelSeeds(1)[0]
	plain, err := newScenario(seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := plain.execute()
	traced, err := newScenario(seed, newTracer("sim", "kademlia", 1))
	if err != nil {
		t.Fatal(err)
	}
	b := traced.execute()
	if a.digest != b.digest || a.cost != b.cost || a.kernelEvents != b.kernelEvents {
		t.Fatalf("plain %x %+v %d events, traced %x %+v %d events", a.digest, a.cost, a.kernelEvents, b.digest, b.cost, b.kernelEvents)
	}
	if a.completed+a.failed != churnRequests {
		t.Fatalf("%d of %d requests finished", a.completed+a.failed, churnRequests)
	}
}

// The benchmark's scenario is E28's default kademlia scenario.
func TestChurnScenarioIsE28Default(t *testing.T) {
	sc := exp.DefaultSLOScenario("kademlia", false, sim.Constant{RTT: modelRTT}, 1)
	got := []any{churnPeers, churnRequests, churnClients, churnEvents, churnMeanGap, churnGapSigma, churnZipfS, churnWindow}
	want := []any{sc.Peers, sc.Requests, sc.Clients, sc.ChurnEvents, sc.MeanGap, sc.GapSigma, sc.ZipfS, sc.Window}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("parameter %d: benchmark %v, E28 %v", i, got[i], want[i])
		}
	}
}

// BENCHMARK.json declares exactly the metrics the program reports.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		file []struct{ Name, Unit, Better string }
		code []decl
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.file) != len(c.code) {
			t.Fatalf("%s: %d declared, %d reported", c.name, len(c.file), len(c.code))
		}
		for i, d := range c.code {
			if f := c.file[i]; f.Name != d.name || f.Unit != d.unit || f.Better != d.better {
				t.Errorf("%s[%d]: file %+v, code %+v", c.name, i, f, d)
			}
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("declared workload %q is not implemented", w.Name)
		}
	}
}

// Both workers trace concurrently, and a remote handler runs on the
// server's goroutine; each lane's trees stay whole (run with -race).
func TestTracedClosedLoopConcurrently(t *testing.T) {
	rig, seeds, tr := smallRig(t, 512, true, buildWire)
	forks, err := rig.forks(seeds)
	if err != nil {
		t.Fatal(err)
	}
	loop := closedLoop(forks, tr.lanes, rig.meter, 0, 300*time.Millisecond)
	res := &result{}
	checkOracle(res, rig, seeds, loop.owners, "traced loop")
	if len(res.gateErrs) > 0 || loop.failed > 0 {
		t.Fatal(loop.failed, res.gateErrs)
	}
	tt := tr.totals()
	var self int64
	for k := range tt.stats[kSample] {
		self += tt.stats[kSample][k].self
	}
	if wall := tt.stats[kSample][kSample].wall; self != wall || wall == 0 {
		t.Fatalf("self times sum to %dns, samples took %dns", self, wall)
	}
	if tt.stats[kSample][kRemote].n == 0 || tt.unknown != 0 {
		t.Fatalf("%d remote calls traced, %d without a lane", tt.stats[kSample][kRemote].n, tt.unknown)
	}
}
