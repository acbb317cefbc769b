// Command perfbench is the repository's benchmark: it drives
// core.Sampler over the chord and kademlia dht.DHT adapters on the path
// a real caller takes, checks that every sampled peer is correct, and
// prints the end-to-end metrics (--trace 0) or, from a separate run
// with every layer decorated, the per-layer metrics (--trace 1).
//
//	bash perfbench/run.sh --workload chord-static --seed 1 --seconds 10 --trace 0
//
// Workloads (see README.md for why each exists and what it bypasses):
//
//	chord-static    chord n=2^16 on simnet Direct, closed loop of 2 workers
//	kademlia-churn  the E28 scenario on kademlia: open loop under churn in virtual time
//	chord-wire      chord n=2^10 split over two wire transports on 127.0.0.1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is nonzero
// when a correctness gate fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// metric is one reported figure.
type metric struct {
	name, unit string
	value      float64
}

// result is one run's outcome.
type result struct {
	attempted, failed int64
	metrics           []metric
	gateErrs          []string
}

func (r *result) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v})
}

// gate records a failed correctness check.
func (r *result) gate(format string, args ...any) {
	r.gateErrs = append(r.gateErrs, fmt.Sprintf(format, args...))
}

// options are the command-line inputs of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

var workloads = map[string]func(options) (*result, error){
	"chord-static":   runChordStatic,
	"kademlia-churn": runKademliaChurn,
	"chord-wire":     runChordWire,
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload to run: chord-static, kademlia-churn or chord-wire")
	flag.Uint64Var(&o.seed, "seed", 1, "seed every input is derived from")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a decorated run")
	flag.Parse()
	o.trace = traceFlag == 1
	run, ok := workloads[o.workload]
	if !ok || (traceFlag != 0 && traceFlag != 1) || o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload chord-static|kademlia-churn|chord-wire --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	fmt.Printf("env: go=%s nproc=%d gomaxprocs=%d os=%s/%s\n",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.GOOS, runtime.GOARCH)
	start := time.Now()
	res, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	if err := checkNames(res, o.trace); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	for _, m := range res.metrics {
		fmt.Printf("%-32s %16.6g %s\n", m.name, m.value, m.unit)
	}
	for _, g := range res.gateErrs {
		fmt.Printf("GATE FAILED: %s\n", g)
	}
	fmt.Printf("workload %s seed %d trace %v: %d attempted, %d failed, %.1fs wall\n",
		o.workload, o.seed, o.trace, res.attempted, res.failed, time.Since(start).Seconds())
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: len(res.gateErrs) == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range res.metrics {
		out.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// checkNames verifies a run reported exactly the metrics of its mode,
// each once and with its declared unit.
func checkNames(res *result, trace bool) error {
	want := endToEnd
	if trace {
		want = perLayer
	}
	units := make(map[string]string, len(want))
	for _, d := range want {
		units[d.name] = d.unit
	}
	seen := make(map[string]bool, len(res.metrics))
	var bad []string
	for _, m := range res.metrics {
		u, ok := units[m.name]
		switch {
		case !ok:
			bad = append(bad, "unexpected "+m.name)
		case u != m.unit:
			bad = append(bad, fmt.Sprintf("%s in %s, declared %s", m.name, m.unit, u))
		case seen[m.name]:
			bad = append(bad, "duplicate "+m.name)
		}
		seen[m.name] = true
	}
	for _, d := range want {
		if !seen[d.name] {
			bad = append(bad, "missing "+d.name)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("metric set does not match its declaration: %s", strings.Join(bad, "; "))
	}
	return nil
}
