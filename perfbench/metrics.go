package main

import (
	"math"
	"sort"
)

// decl declares one metric as BENCHMARK.json lists it.
type decl struct{ name, unit, better string }

// endToEnd are the metrics of an untraced run, reported on every
// workload (see README.md for each definition per workload).
var endToEnd = []decl{
	{"setup_s", "s", "lower"},
	{"samples_per_s", "1/s", "higher"},
	{"sample_p50_ms", "ms", "lower"},
	{"sample_p99_ms", "ms", "lower"},
	{"virtual_p50_ms", "ms", "lower"},
	{"virtual_p99_ms", "ms", "lower"},
	{"msgs_per_sample", "msgs", "lower"},
	{"availability", "ratio", "higher"},
	{"heap_mb", "MB", "lower"},
}

// failClasses are the simnet.ErrorClass values a failed sample can
// carry ("ok" aside).
var failClasses = []string{"unknown", "dead", "dropped", "partitioned", "closed", "app"}

// perLayer are the metrics of a traced run. A layer a workload does
// not run reports 0.
var perLayer = func() []decl {
	d := []decl{
		{"core.self_us_per_sample", "us", "lower"},
		{"core.trials_per_sample", "trials", "lower"},
		{"core.steps_per_sample", "steps", "lower"},
		{"core.dead_steps_frac", "ratio", "lower"},
		{"core.nhat_over_n", "ratio", "lower"},
		{"core.estimate_ms", "ms", "lower"},
		{"dht.h_us", "us", "lower"},
		{"dht.next_us", "us", "lower"},
		{"dht.h_calls_per_sample", "calls", "lower"},
		{"dht.next_calls_per_sample", "calls", "lower"},
		{"dht.rpcs_per_h", "rpcs", "lower"},
		{"dht.rpcs_per_next", "rpcs", "lower"},
		{"dht.self_us_per_sample", "us", "lower"},
		{"dht.h_errors", "count", "lower"},
		{"dht.next_errors", "count", "lower"},
		{"chord.handler_ns_per_call", "ns", "lower"},
		{"chord.handler_calls_per_sample", "calls", "lower"},
		{"kademlia.handler_ns_per_call", "ns", "lower"},
		{"kademlia.handler_calls_per_sample", "calls", "lower"},
		{"simnet.self_ns_per_call", "ns", "lower"},
		{"simnet.calls_per_sample", "calls", "lower"},
		{"simnet.failures_per_sample", "failures", "lower"},
		{"sim.self_ns_per_call", "ns", "lower"},
		{"sim.kernel_events_per_sample", "events", "lower"},
		{"wire.self_us_per_call", "us", "lower"},
		{"wire.remote_frac", "ratio", "lower"},
		{"wire.allocs_per_call", "allocs", "lower"},
		{"wire.bytes_per_call", "B", "lower"},
		{"wire.retries_per_sample", "retries", "lower"},
		{"churn.join_ms", "ms", "lower"},
		{"churn.crash_ms", "ms", "lower"},
		{"churn.maintain_us", "us", "lower"},
		{"churn.step_errors", "count", "lower"},
		{"load.attempted", "count", "higher"},
		{"load.failed", "count", "lower"},
		{"load.error_rate", "ratio", "lower"},
		{"load.retry_frac", "ratio", "lower"},
		{"load.fail.h", "count", "lower"},
		{"load.fail.next", "count", "lower"},
		{"load.fail.core", "count", "lower"},
	}
	for _, c := range failClasses {
		d = append(d, decl{"load.fail." + c, "count", "lower"})
	}
	return append(d,
		decl{"trace.samples_per_s", "1/s", "higher"},
		decl{"trace.overhead_frac", "ratio", "lower"},
		decl{"trace.accounted_frac", "ratio", "higher"},
	)
}()

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics. It sorts xs in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, or 0 when b is 0 (a layer the workload does not run).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
