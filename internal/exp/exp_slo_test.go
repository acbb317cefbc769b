package exp

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/dht-sampling/randompeer/internal/sim"
)

// TestSLOScenarioDeterminism pins the E28 scenario runner as a pure
// function of its scenario: two identical invocations must agree on the
// full evaluated report, every recorded window, the vnode comparison
// and all simulation-derived counters — only the wall-clock field may
// differ. This is the end-to-end composition of the per-layer
// determinism tests (kernel trace, load windows, vnode grouping).
func TestSLOScenarioDeterminism(t *testing.T) {
	run := func() *SLOResult {
		sc := DefaultSLOScenario("chord", true, sim.Constant{RTT: time.Millisecond}, 11)
		res, err := RunSLOScenario(sc)
		if err != nil {
			t.Fatal(err)
		}
		res.RunWall = 0 // measured, not simulated
		return res
	}
	a, b := run(), run()
	if a.Virtual != b.Virtual || a.KernelEvents != b.KernelEvents ||
		a.Completed != b.Completed || a.Failed != b.Failed ||
		a.ChurnEvents != b.ChurnEvents || a.StepErrors != b.StepErrors ||
		a.Refreshes != b.Refreshes || a.RefreshErrs != b.RefreshErrs {
		t.Fatalf("scenario counters not deterministic:\n a=%+v\n b=%+v", a, b)
	}
	if !reflect.DeepEqual(a.Report, b.Report) {
		t.Fatalf("reports differ:\n a=%+v\n b=%+v", a.Report, b.Report)
	}
	if !reflect.DeepEqual(a.Windows, b.Windows) {
		t.Fatalf("window series differ:\n a=%+v\n b=%+v", a.Windows, b.Windows)
	}
	if a.VnodeOff != b.VnodeOff || a.VnodeOn != b.VnodeOn {
		t.Fatalf("vnode comparison differs: %+v/%+v vs %+v/%+v", a.VnodeOff, a.VnodeOn, b.VnodeOff, b.VnodeOn)
	}
}

// TestSLOScenarioReportShape sanity-checks one quick run end to end:
// the workload completes, the recorder cut multiple windows, the
// overall quantiles are ordered, and the markdown artifact carries the
// sections CI uploads.
func TestSLOScenarioReportShape(t *testing.T) {
	sc := DefaultSLOScenario("chord", true, sim.Constant{RTT: time.Millisecond}, 3)
	res, err := RunSLOScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Completed + res.Failed; got != int64(sc.Requests) {
		t.Fatalf("completed %d + failed %d != requests %d", res.Completed, res.Failed, sc.Requests)
	}
	if len(res.Windows) < 2 {
		t.Fatalf("only %d windows; want the horizon split into several", len(res.Windows))
	}
	p50, p99 := res.OverallQuantile(0.50), res.OverallQuantile(0.99)
	if p50 <= 0 || p99 < p50 {
		t.Fatalf("quantiles out of order: p50=%v p99=%v", p50, p99)
	}
	var md bytes.Buffer
	if err := res.WriteMarkdownReport(&md); err != nil {
		t.Fatal(err)
	}
	out := md.String()
	for _, want := range []string{"E28 SLO report", "availability", "| window |", "Vnode load variance", "vnodes off", "vnodes on"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown report missing %q", want)
		}
	}
}

// TestE28TableUsesScenarioSeed pins one seed derivation per scenario:
// the E28 table's chord row is exactly RunSLOScenario over
// DefaultSLOScenario at the run's seed, the run cmd/benchsnap's slo
// section measures, so the table and BENCH agree on whether chord met
// its objective.
func TestE28TableUsesScenarioSeed(t *testing.T) {
	cfg := RunConfig{Seed: 1, Quick: true}
	tab, err := expE28().Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	model, err := cfg.LatencyModel()
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSLOScenario(DefaultSLOScenario("chord", cfg.Quick, model, cfg.Seed))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tab.Rows[0], res.row(); !reflect.DeepEqual(got, want) {
		t.Fatalf("E28 chord row\n got %v\nwant %v (RunSLOScenario at the scenario seed)", got, want)
	}
}
