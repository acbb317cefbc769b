package obs_test

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dht-sampling/randompeer/internal/obs"
	"github.com/dht-sampling/randompeer/internal/obs/obstest"
)

// expose renders r and parses it back through the strict checker.
func expose(t *testing.T, r *obs.Registry) *obstest.Exposition {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	e, err := obstest.Parse(buf.Bytes())
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, buf.String())
	}
	return e
}

func TestCounterGaugeExposition(t *testing.T) {
	r := obs.NewRegistry()
	c := r.Counter("test_ops_total", "ops", obs.Label{Name: "kind", Value: "read"})
	c.Add(41)
	c.Inc()
	g := r.Gauge("test_depth", "depth")
	g.Set(10)
	g.Add(-3)
	r.CounterFunc("test_fn_total", "fn", func() float64 { return 7 })

	e := expose(t, r)
	if v, ok := e.Value("test_ops_total", map[string]string{"kind": "read"}); !ok || v != 42 {
		t.Fatalf("test_ops_total = %v, %v; want 42", v, ok)
	}
	if v, ok := e.Value("test_depth", nil); !ok || v != 7 {
		t.Fatalf("test_depth = %v, %v; want 7", v, ok)
	}
	if v, ok := e.Value("test_fn_total", nil); !ok || v != 7 {
		t.Fatalf("test_fn_total = %v, %v; want 7", v, ok)
	}
	if e.Types["test_ops_total"] != "counter" || e.Types["test_depth"] != "gauge" {
		t.Fatalf("wrong types: %v", e.Types)
	}
}

func TestRegistryIdempotentAndPanics(t *testing.T) {
	r := obs.NewRegistry()
	a := r.Counter("x_total", "x")
	b := r.Counter("x_total", "x")
	if a != b {
		t.Fatal("same (name, labels) returned distinct counters")
	}
	l1 := r.Gauge("y", "y", obs.Label{Name: "a", Value: "1"}, obs.Label{Name: "b", Value: "2"})
	l2 := r.Gauge("y", "y", obs.Label{Name: "b", Value: "2"}, obs.Label{Name: "a", Value: "1"})
	if l1 != l2 {
		t.Fatal("label order created distinct series")
	}

	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("kind mismatch", func() { r.Gauge("x_total", "x") })
	mustPanic("invalid name", func() { r.Counter("bad name", "x") })
	mustPanic("negative counter add", func() { a.Add(-1) })
	r.CounterFunc("fn_total", "f", func() float64 { return 0 })
	mustPanic("double func registration", func() {
		r.CounterFunc("fn_total", "f", func() float64 { return 0 })
	})
}

func TestHistogramBuckets(t *testing.T) {
	r := obs.NewRegistry()
	h := r.Histogram("test_latency_seconds", "lat")
	h.Observe(0)                      // bucket 0
	h.Observe(1)                      // [1,2) -> bucket 1
	h.Observe(1500 * time.Nanosecond) // [1024,2048) -> bucket 11
	h.Observe(-5 * time.Second)       // clamps to zero -> bucket 0

	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("Count = %d, want 4", s.Count)
	}
	if s.SumNanos != 1501 {
		t.Fatalf("SumNanos = %d, want 1501", s.SumNanos)
	}
	if s.Buckets[0] != 2 || s.Buckets[1] != 1 || s.Buckets[11] != 1 {
		t.Fatalf("bucket placement wrong: %v", s.Buckets[:12])
	}

	e := expose(t, r)
	if v, ok := e.Value("test_latency_seconds_count", nil); !ok || v != 4 {
		t.Fatalf("_count = %v, %v; want 4", v, ok)
	}
	// Cumulative bucket at le=2.048e-06 (2^11 ns) covers everything.
	if v, ok := e.Value("test_latency_seconds_bucket", map[string]string{"le": "2.048e-06"}); !ok || v != 4 {
		t.Fatalf("le=2.048e-06 bucket = %v, %v; want 4", v, ok)
	}
}

func TestHistogramFuncAdapter(t *testing.T) {
	r := obs.NewRegistry()
	var snap obs.HistSnapshot
	snap.Count = 3
	snap.SumNanos = 3000
	snap.Buckets[10] = 3
	r.HistogramFunc("test_adapted_seconds", "adapted", func() obs.HistSnapshot { return snap })

	e := expose(t, r)
	if v, ok := e.Value("test_adapted_seconds_count", nil); !ok || v != 3 {
		t.Fatalf("_count = %v, %v; want 3", v, ok)
	}
}

func TestHandlerContentType(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("h_total", "h").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	ct := resp.Header.Get("Content-Type")
	if !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("Content-Type = %q, want exposition v0.0.4", ct)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("esc_total", "esc", obs.Label{Name: "v", Value: "a\"b\\c\nd"}).Inc()
	e := expose(t, r)
	if v, ok := e.Value("esc_total", map[string]string{"v": "a\"b\\c\nd"}); !ok || v != 1 {
		t.Fatalf("escaped label round-trip failed: %v, %v", v, ok)
	}
}

func TestConcurrentInstrumentUse(t *testing.T) {
	r := obs.NewRegistry()
	c := r.Counter("conc_total", "c")
	h := r.Histogram("conc_seconds", "h")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(time.Duration(j))
			}
		}()
	}
	// Scrape concurrently with updates.
	for i := 0; i < 10; i++ {
		expose(t, r)
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if s := h.Snapshot(); s.Count != 8000 {
		t.Fatalf("histogram count = %d, want 8000", s.Count)
	}
}

func TestTraceNilSafety(t *testing.T) {
	var tr *obs.Trace
	tr.Record(obs.Hop{}) // must not panic
	if tr.ID() != 0 || tr.Len() != 0 || tr.OKHops() != 0 || tr.Hops() != nil {
		t.Fatal("nil trace accessors not zero")
	}
}

func TestTraceRecordAndOKHops(t *testing.T) {
	tr := obs.NewTrace()
	if tr.ID() == 0 {
		t.Fatal("trace id must be nonzero")
	}
	tr.Record(obs.Hop{From: 1, To: 2, RPC: "a", Outcome: "ok"})
	tr.Record(obs.Hop{From: 2, To: 3, RPC: "b", Outcome: "dropped"})
	tr.Record(obs.Hop{From: 2, To: 4, RPC: "c", Outcome: "ok"})
	hops := tr.Hops()
	if len(hops) != 3 || tr.Len() != 3 {
		t.Fatalf("len = %d/%d, want 3", len(hops), tr.Len())
	}
	for i, h := range hops {
		if h.Index != i {
			t.Fatalf("hop %d has index %d", i, h.Index)
		}
	}
	if tr.OKHops() != 2 {
		t.Fatalf("OKHops = %d, want 2", tr.OKHops())
	}
}

func TestTraceLogRingEviction(t *testing.T) {
	l := obs.NewTraceLog(4)
	for i := 0; i < 10; i++ {
		l.Record(uint64(1+i%2), obs.Hop{Index: i})
	}
	// Spans 6..9 retained; ids alternate 1,2 -> trace 1 holds 6, 8.
	got := l.ByID(1)
	if len(got) != 2 || got[0].Index != 6 || got[1].Index != 8 {
		t.Fatalf("ByID(1) = %+v, want indices [6 8]", got)
	}
	if spans := l.ByID(99); spans != nil {
		t.Fatalf("ByID(99) = %+v, want nil", spans)
	}
}

func TestObstestRejectsMalformed(t *testing.T) {
	cases := []struct{ name, in string }{
		{"sample before TYPE", "a_total 1\n"},
		{"bad type", "# TYPE a_total widget\n"},
		{"duplicate series", "# TYPE a_total counter\na_total 1\na_total 2\n"},
		{"bad value", "# TYPE a_total counter\na_total x\n"},
		{"non-cumulative histogram", "# TYPE h histogram\n" +
			`h_bucket{le="1"} 5` + "\n" + `h_bucket{le="2"} 3` + "\n" +
			`h_bucket{le="+Inf"} 5` + "\nh_sum 1\nh_count 5\n"},
		{"missing +Inf", "# TYPE h histogram\n" +
			`h_bucket{le="1"} 5` + "\nh_sum 1\nh_count 5\n"},
		{"count mismatch", "# TYPE h histogram\n" +
			`h_bucket{le="+Inf"} 5` + "\nh_sum 1\nh_count 4\n"},
	}
	for _, c := range cases {
		if _, err := obstest.Parse([]byte(c.in)); err == nil {
			t.Errorf("%s: expected parse error", c.name)
		}
	}
}

func TestObstestSum(t *testing.T) {
	in := "# TYPE a_total counter\n" +
		`a_total{node="1"} 3` + "\n" +
		`a_total{node="2"} 4` + "\n"
	e, err := obstest.Parse([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Sum("a_total", nil); got != 7 {
		t.Fatalf("Sum = %g, want 7", got)
	}
	if got := e.Sum("a_total", map[string]string{"node": "2"}); got != 4 {
		t.Fatalf("Sum{node=2} = %g, want 4", got)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	r := obs.NewRegistry()
	c := r.Counter("bench_total", "b")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
	_ = fmt.Sprint(c.Value())
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := obs.NewRegistry()
	h := r.Histogram("bench_seconds", "b")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i))
	}
}
