package obs_test

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"sort"
	"testing"
	"time"

	"github.com/dht-sampling/randompeer/internal/obs"
)

func TestRegistrySnapshotDelta(t *testing.T) {
	r := obs.NewRegistry()
	c := r.Counter("snap_requests_total", "requests")
	g := r.Gauge("snap_inflight", "in flight")
	h := r.Histogram("snap_latency_nanoseconds", "latency")

	c.Add(10)
	g.Set(3)
	h.Observe(100 * time.Nanosecond)
	h.Observe(200 * time.Nanosecond)
	prev := r.Snapshot()

	c.Add(5)
	g.Set(7)
	h.Observe(400 * time.Nanosecond)
	cur := r.Snapshot()

	d := cur.Delta(prev)
	if v, ok := d.Value("snap_requests_total"); !ok || v != 5 {
		t.Fatalf("counter delta = %v, %v; want 5", v, ok)
	}
	if v, ok := d.Value("snap_inflight"); !ok || v != 7 {
		t.Fatalf("gauge in delta = %v, %v; want instantaneous 7", v, ok)
	}
	hd, ok := d.Hist("snap_latency_nanoseconds")
	if !ok {
		t.Fatal("histogram series missing from delta")
	}
	if hd.Count != 1 || hd.SumNanos != 400 {
		t.Fatalf("histogram delta count=%d sum=%d; want 1 observation of 400ns", hd.Count, hd.SumNanos)
	}
}

// A counter that goes backwards between snapshots (daemon restart,
// meter reset) must clamp to zero progress, not negative.
func TestRegistrySnapshotDeltaClampsResets(t *testing.T) {
	r := obs.NewRegistry()
	reading := 100.0
	r.CounterFunc("snap_served_total", "served", func() float64 { return reading })
	hist := obs.HistSnapshot{}
	hist.Buckets[5] = 50
	hist.Count = 50
	hist.SumNanos = 50 * 24
	r.HistogramFunc("snap_hist_nanoseconds", "hist", func() obs.HistSnapshot { return hist })

	prev := r.Snapshot()
	reading = 12 // restarted process: counter starts over
	fresh := obs.HistSnapshot{}
	fresh.Buckets[3] = 4
	fresh.Count = 4
	fresh.SumNanos = 4 * 6
	hist = fresh
	d := r.Snapshot().Delta(prev)

	if v, _ := d.Value("snap_served_total"); v != 0 {
		t.Fatalf("reset counter delta = %v; want clamp to 0", v)
	}
	hd, _ := d.Hist("snap_hist_nanoseconds")
	if hd.Count != 4 || hd.SumNanos != fresh.SumNanos {
		t.Fatalf("reset histogram delta = count %d sum %d; want the fresh reading (4, %d)", hd.Count, hd.SumNanos, fresh.SumNanos)
	}
	for i, c := range hd.Buckets {
		if c < 0 {
			t.Fatalf("bucket %d went negative: %d", i, c)
		}
	}
}

func TestRegistrySnapshotDeterministicKeyOrder(t *testing.T) {
	build := func() obs.RegistrySnapshot {
		r := obs.NewRegistry()
		r.Counter("snap_b_total", "b")
		r.Counter("snap_a_total", "a", obs.Label{Name: "op", Value: "x"})
		r.Counter("snap_a_total", "a", obs.Label{Name: "op", Value: "y"})
		r.Histogram("snap_h_nanoseconds", "h")
		return r.Snapshot()
	}
	a, b := build(), build()
	if len(a.Keys) != len(b.Keys) || len(a.Keys) != 4 {
		t.Fatalf("key counts differ: %d vs %d", len(a.Keys), len(b.Keys))
	}
	for i := range a.Keys {
		if a.Keys[i] != b.Keys[i] {
			t.Fatalf("key order differs at %d: %q vs %q", i, a.Keys[i], b.Keys[i])
		}
	}
	if a.Keys[0] != "snap_b_total" {
		t.Fatalf("keys not in registration order: %v", a.Keys)
	}
}

// exactQuantile returns the q-quantile of a sorted sample, for
// comparison with a histogram estimate.
func exactQuantile(sorted []float64, q float64) float64 {
	return sorted[int(q*float64(len(sorted)-1))]
}

// TestHistQuantileAccuracy bounds the error the SLO engine inherits
// from the log-bucket histogram: on known distributions the
// interpolated estimate must stay within the bucket's factor-of-two
// width of the exact sample quantile, and must beat the bucket-upper-
// bound estimate that preceded it.
func TestHistQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 43))
	distributions := map[string]func() float64{
		// Uniform over [1ms, 5ms).
		"uniform": func() float64 { return 1e6 + rng.Float64()*4e6 },
		// Lognormal, median 2ms, sigma 0.7 — the heavy-tailed shape the
		// load driver's latency windows actually contain.
		"lognormal": func() float64 { return 2e6 * math.Exp(0.7*rng.NormFloat64()) },
		// Exponential with mean 3ms.
		"exponential": func() float64 { return 3e6 * rng.ExpFloat64() },
	}
	const n = 20000
	for name, draw := range distributions {
		var h obs.Histogram
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = draw()
			h.Observe(time.Duration(samples[i]))
		}
		sort.Float64s(samples)
		snap := h.Snapshot()
		for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
			exact := exactQuantile(samples, q)
			est := float64(snap.Quantile(q))
			// Exact and estimate must agree within one power-of-two
			// bucket: est in [exact/2, exact*2).
			if est < exact/2 || est > exact*2 {
				t.Errorf("%s p%.0f: estimate %.0fns outside factor-2 of exact %.0fns", name, q*100, est, exact)
			}
			// The upper-bound estimate is the bucket's top edge; the
			// interpolated estimate must not exceed it, and across the
			// quantile sweep it must be strictly better at least once
			// (i.e. interpolation is actually engaged).
			upper := math.Ldexp(1, bits.Len64(uint64(exact)))
			if est > upper {
				t.Errorf("%s p%.0f: estimate %.0fns above bucket upper bound %.0f", name, q*100, est, upper)
			}
		}
		// Interpolation sanity: the median estimate of the uniform
		// distribution must land strictly inside its bucket, not at the
		// top edge.
		med := snap.Quantile(0.5)
		bucketTop := time.Duration(1) << uint(bits.Len64(uint64(med)))
		if med == bucketTop {
			t.Errorf("%s: median %v sits exactly at a bucket boundary — interpolation not applied", name, med)
		}
	}
}

func TestHistCountAbove(t *testing.T) {
	var h obs.Histogram
	// 100 observations at ~1.5ms (bucket [1ms-ish boundaries]) plus 10 at 10ms.
	for i := 0; i < 100; i++ {
		h.Observe(1500 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(10 * time.Millisecond)
	}
	s := h.Snapshot()
	if got := s.CountAbove(100 * time.Millisecond); got != 0 {
		t.Fatalf("CountAbove(100ms) = %d; want 0", got)
	}
	if got := s.CountAbove(5 * time.Millisecond); got < 10 || got > 20 {
		t.Fatalf("CountAbove(5ms) = %d; want ~10 (the 10ms tail)", got)
	}
	all := s.CountAbove(0)
	if all != s.Count {
		t.Fatalf("CountAbove(0) = %d; want every observation (%d)", all, s.Count)
	}
}

// TestHistEdgeCases pins the histogram at its edges: an empty reading
// estimates zero everywhere, identical records saturate one bucket
// and every quantile interpolates inside it, and zero and negative
// records land in bucket 0 and estimate zero.
func TestHistEdgeCases(t *testing.T) {
	quantiles := []float64{-1, 0, 0.25, 0.5, 0.99, 1, 2}
	t.Run("empty", func(t *testing.T) {
		var h obs.Histogram
		s := h.Snapshot()
		for _, q := range quantiles {
			if got := s.Quantile(q); got != 0 {
				t.Errorf("empty Quantile(%v) = %v, want 0", q, got)
			}
		}
		if s.Count != 0 || s.SumNanos != 0 || s.Mean() != 0 {
			t.Errorf("empty reading %+v, mean %v; want zeros", s, s.Mean())
		}
	})
	t.Run("saturated", func(t *testing.T) {
		var h obs.Histogram
		const d, n = 1500 * time.Nanosecond, 10_000 // bucket [1024, 2048)
		for i := 0; i < n; i++ {
			h.Observe(d)
		}
		s := h.Snapshot()
		if s.Count != n || s.Buckets[obs.BucketOf(d)] != n || s.Mean() != d {
			t.Fatalf("count %d, bucket %d, mean %v; want all %d records of %v in one bucket", s.Count, s.Buckets[obs.BucketOf(d)], s.Mean(), n, d)
		}
		for _, q := range quantiles {
			if got := s.Quantile(q); got < 1024 || got >= 2048 {
				t.Errorf("Quantile(%v) = %v outside the saturated bucket [1024ns, 2048ns)", q, got)
			}
		}
	})
	t.Run("zero-and-negative", func(t *testing.T) {
		var h obs.Histogram
		h.Observe(0)
		h.Observe(-5 * time.Second)
		if s := h.Snapshot(); s.Buckets[0] != 2 || s.SumNanos != 0 || s.Quantile(0.5) != 0 {
			t.Fatalf("reading %+v, p50 %v; want 2 records in bucket 0 estimating 0", s, s.Quantile(0.5))
		}
	})
}

func TestHistSubExact(t *testing.T) {
	var h obs.Histogram
	h.Observe(time.Millisecond)
	h.Observe(2 * time.Millisecond)
	prev := h.Snapshot()
	h.Observe(4 * time.Millisecond)
	d := h.Snapshot().Sub(prev)
	if d.Count != 1 || d.SumNanos != int64(4*time.Millisecond) {
		t.Fatalf("Sub: count %d sum %d; want exactly the one new observation", d.Count, d.SumNanos)
	}
	if d.Mean() != 4*time.Millisecond {
		t.Fatalf("Mean of delta = %v; want 4ms", d.Mean())
	}
}
