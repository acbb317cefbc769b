// Command randpeerd is a daemon that hosts a shard of a DHT overlay
// (chord or kademlia) behind a wire transport, so a multi-process
// cluster of daemons forms one overlay over real TCP sockets.
//
// Usage:
//
//	randpeerd [-listen ADDR] [-call-timeout D] [-retries N]
//	          [-backoff-base D] [-backoff-cap D] [-jitter-seed S]
//	          [-slo-window D]
//
// The daemon serves:
//
//	POST /wire          node-to-node RPCs (wire transport protocol)
//	GET  /healthz       readiness probe with build identity
//	GET  /metrics       Prometheus text exposition (obs registry)
//	GET  /debug/pprof/  runtime profiling (pprof index, profiles)
//	POST /v1/provision  install an overlay partition (backend, points,
//	                    owned subset, point->address routes)
//	POST /v1/join       join a fresh node through a routed bootstrap
//	POST /v1/lookup     resolve the owner of a key, reporting RPC cost
//	POST /v1/next       one successor step from a peer
//	POST /v1/sample     draw K random peers with the King–Saia sampler
//	POST /v1/trace      run one traced lookup, returning its hop record
//	GET  /v1/trace?id=N spans this process retained for a trace id
//	GET  /v1/metrics    meter snapshot, served-call count, uptime
//	GET  /v1/slo        live windowed SLO report (?flush=1 cuts the
//	                    current partial window first; -slo-window sets
//	                    the cadence, 0 disables)
//
// On startup it prints "randpeerd: listening on ADDR" to stdout, which
// the cluster harness parses to discover the bound port.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime/debug"
	"strconv"
	"sync"
	"syscall"
	"time"

	"github.com/dht-sampling/randompeer/internal/chord"
	"github.com/dht-sampling/randompeer/internal/cluster"
	"github.com/dht-sampling/randompeer/internal/core"
	"github.com/dht-sampling/randompeer/internal/dht"
	"github.com/dht-sampling/randompeer/internal/kademlia"
	"github.com/dht-sampling/randompeer/internal/obs"
	"github.com/dht-sampling/randompeer/internal/overlay"
	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/simnet"
	"github.com/dht-sampling/randompeer/internal/wire"
)

// version and commit are stamped at build time via
//
//	-ldflags "-X main.version=... -X main.commit=..."
//
// (the Makefile's build target does this). Unstamped builds fall back
// to the VCS revision Go embeds in the build info, then to "unknown".
var (
	version = "dev"
	commit  = ""
)

// buildIdentity resolves the daemon's version and commit.
func buildIdentity() (string, string) {
	v, c := version, commit
	if c == "" {
		if bi, ok := debug.ReadBuildInfo(); ok {
			for _, s := range bi.Settings {
				if s.Key == "vcs.revision" {
					c = s.Value
				}
			}
		}
	}
	if c == "" {
		c = "unknown"
	}
	return v, c
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("randpeerd", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:0", "host:port to listen on (port 0 picks a free port)")
	callTimeout := fs.Duration("call-timeout", wire.DefaultCallTimeout, "per-attempt RPC deadline")
	retries := fs.Int("retries", wire.DefaultMaxRetries, "RPC re-attempts after a failed network attempt")
	backoffBase := fs.Duration("backoff-base", wire.DefaultBackoffBase, "pre-jitter delay before the first retry")
	backoffCap := fs.Duration("backoff-cap", wire.DefaultBackoffCap, "pre-jitter retry delay cap")
	jitterSeed := fs.Uint64("jitter-seed", 0, "backoff jitter seed (0 seeds from entropy)")
	sloWindow := fs.Duration("slo-window", 5*time.Second, "live SLO recorder window (0 disables /v1/slo)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	opts := []wire.Option{
		wire.WithCallTimeout(*callTimeout),
		wire.WithRetries(*retries, *backoffBase, *backoffCap),
	}
	if *jitterSeed != 0 {
		opts = append(opts, wire.WithJitterSeed(*jitterSeed))
	}
	d := newDaemon(wire.NewTransport(opts...))
	if *sloWindow > 0 {
		d.slor = startSLORecorder(d.reg, *sloWindow)
		defer d.slor.Stop()
	}

	lis, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "randpeerd:", err)
		return 1
	}
	srv := &http.Server{Handler: d.mux()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(lis) }()

	fmt.Printf("randpeerd: listening on %s\n", lis.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "randpeerd:", err)
		return 1
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	_ = srv.Shutdown(shutdownCtx)
	_ = d.tr.Close()
	return 0
}

// traceLogCapacity bounds the server-side span ring: enough to hold
// every hop of many concurrent traced lookups without growing.
const traceLogCapacity = 4096

// daemon holds one provisioned overlay partition and serves the
// control API over the same HTTP server as the wire RPC endpoint.
type daemon struct {
	tr    *wire.Transport
	start time.Time
	reg   *obs.Registry
	tlog  *obs.TraceLog
	slor  *sloRecorder // nil when -slo-window is 0

	mu      sync.Mutex
	backend string
	owned   []ring.Point
	view    *overlay.DHT // overlay viewed from owned[0]; nil before provision
	joinVia func(id, bootstrap ring.Point) error
}

func newDaemon(tr *wire.Transport) *daemon {
	d := &daemon{
		tr:    tr,
		start: time.Now(),
		reg:   obs.NewRegistry(),
		tlog:  obs.NewTraceLog(traceLogCapacity),
	}
	tr.SetTraceLog(d.tlog)
	tr.RegisterMetrics(d.reg)
	v, c := buildIdentity()
	d.reg.Gauge("randpeerd_build_info",
		"Build identity; the value is always 1.",
		obs.Label{Name: "version", Value: v},
		obs.Label{Name: "commit", Value: c},
	).Set(1)
	d.reg.GaugeFunc("randpeerd_uptime_seconds",
		"Seconds since the daemon started.",
		func() float64 { return time.Since(d.start).Seconds() })
	d.reg.GaugeFunc("randpeerd_owned_nodes",
		"Overlay nodes hosted by this daemon's current partition.",
		func() float64 {
			d.mu.Lock()
			defer d.mu.Unlock()
			return float64(len(d.owned))
		})
	return d
}

func (d *daemon) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle(wire.RPCPath, d.tr.RPCHandler())
	mux.HandleFunc("/healthz", d.handleHealthz)
	mux.Handle("/metrics", d.reg.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/v1/provision", d.handleProvision)
	mux.HandleFunc("/v1/join", d.handleJoin)
	mux.HandleFunc("/v1/lookup", d.handleLookup)
	mux.HandleFunc("/v1/next", d.handleNext)
	mux.HandleFunc("/v1/sample", d.handleSample)
	mux.HandleFunc("/v1/trace", d.handleTrace)
	mux.HandleFunc("/v1/metrics", d.handleMetrics)
	mux.HandleFunc("/v1/slo", d.handleSLO)
	return mux
}

func (d *daemon) handleHealthz(w http.ResponseWriter, r *http.Request) {
	v, c := buildIdentity()
	writeJSON(w, cluster.HealthResponse{Status: "ok", Version: v, Commit: c})
}

// handleTrace serves both trace operations: POST runs one traced
// lookup and returns its client-side hop record; GET ?id=N returns the
// spans this process retained for a trace id (populated when this
// daemon served RPCs belonging to a trace someone else ran).
func (d *daemon) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet {
		id, err := strconv.ParseUint(r.URL.Query().Get("id"), 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, "trace: bad or missing id: %v", err)
			return
		}
		writeJSON(w, cluster.TraceSpansResponse{TraceID: id, Spans: d.tlog.ByID(id)})
		return
	}
	var req cluster.TraceRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.view == nil {
		httpError(w, http.StatusConflict, "trace: daemon not provisioned")
		return
	}
	tr := obs.NewTrace()
	d.tr.SetTrace(tr)
	before := d.view.Meter().Snapshot()
	peer, err := d.view.H(ring.Point(req.Key))
	cost := d.view.Meter().Snapshot().Sub(before)
	d.tr.SetTrace(nil)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "trace: %v", err)
		return
	}
	writeJSON(w, cluster.TraceResponse{
		TraceID: tr.ID(),
		Owner:   uint64(peer.Point),
		Calls:   cost.Calls,
		Hops:    tr.Hops(),
	})
}

func (d *daemon) handleProvision(w http.ResponseWriter, r *http.Request) {
	var req cluster.ProvisionRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if len(req.Points) == 0 {
		httpError(w, http.StatusBadRequest, "provision: empty membership")
		return
	}
	points := toPoints(req.Points)
	ownedSet := make(map[ring.Point]bool, len(req.Owned))
	for _, p := range req.Owned {
		ownedSet[ring.Point(p)] = true
	}
	routes := make(map[simnet.NodeID]string, len(req.Routes))
	for _, e := range req.Routes {
		routes[simnet.NodeID(e.Point)] = e.Addr
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	// Tear down any previous partition: fresh handlers, routes, meter.
	d.tr.DeregisterAll()
	d.tr.Meter().Reset()
	d.tr.SetRoutes(routes)
	d.view, d.joinVia, d.owned, d.backend = nil, nil, nil, ""

	owned := func(p ring.Point) bool { return ownedSet[p] }
	var net interface {
		AsDHT(ring.Point) (*overlay.DHT, error)
	}
	switch req.Backend {
	case "chord":
		c, err := chord.BuildStaticPartition(chord.Config{}, d.tr, points, owned)
		if err != nil {
			httpError(w, http.StatusInternalServerError, "provision: %v", err)
			return
		}
		d.joinVia = func(id, bootstrap ring.Point) error {
			_, err := c.JoinVia(id, bootstrap)
			return err
		}
		net = c
	case "kademlia":
		cfg := kademlia.Config{BucketSize: req.Bucket, Alpha: req.Alpha}
		k, err := kademlia.BuildStaticPartition(cfg, d.tr, points, owned)
		if err != nil {
			httpError(w, http.StatusInternalServerError, "provision: %v", err)
			return
		}
		d.joinVia = func(id, bootstrap ring.Point) error {
			_, err := k.JoinVia(id, bootstrap)
			return err
		}
		net = k
	default:
		httpError(w, http.StatusBadRequest, "provision: unknown backend %q", req.Backend)
		return
	}
	if len(req.Owned) > 0 {
		view, err := net.AsDHT(ring.Point(req.Owned[0]))
		if err != nil {
			httpError(w, http.StatusInternalServerError, "provision: %v", err)
			return
		}
		d.view = view
	}
	d.backend = req.Backend
	d.owned = toPoints(req.Owned)
	writeJSON(w, map[string]any{"ok": true, "backend": req.Backend, "owned": len(req.Owned)})
}

func (d *daemon) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req cluster.JoinRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.joinVia == nil {
		httpError(w, http.StatusConflict, "join: daemon not provisioned")
		return
	}
	if err := d.joinVia(ring.Point(req.ID), ring.Point(req.Bootstrap)); err != nil {
		httpError(w, http.StatusInternalServerError, "join: %v", err)
		return
	}
	d.owned = append(d.owned, ring.Point(req.ID))
	writeJSON(w, map[string]any{"ok": true})
}

func (d *daemon) handleLookup(w http.ResponseWriter, r *http.Request) {
	var req cluster.LookupRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.view == nil {
		httpError(w, http.StatusConflict, "lookup: daemon not provisioned")
		return
	}
	before := d.view.Meter().Snapshot()
	peer, err := d.view.H(ring.Point(req.Key))
	if err != nil {
		httpError(w, http.StatusInternalServerError, "lookup: %v", err)
		return
	}
	cost := d.view.Meter().Snapshot().Sub(before)
	writeJSON(w, cluster.LookupResponse{Owner: uint64(peer.Point), Calls: cost.Calls, Messages: cost.Messages})
}

func (d *daemon) handleNext(w http.ResponseWriter, r *http.Request) {
	var req cluster.NextRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.view == nil {
		httpError(w, http.StatusConflict, "next: daemon not provisioned")
		return
	}
	peer, err := d.view.Next(dht.Peer{Point: ring.Point(req.Point)})
	if err != nil {
		httpError(w, http.StatusInternalServerError, "next: %v", err)
		return
	}
	writeJSON(w, cluster.NextResponse{Point: uint64(peer.Point)})
}

func (d *daemon) handleSample(w http.ResponseWriter, r *http.Request) {
	var req cluster.SampleRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.Count <= 0 {
		req.Count = 1
	}
	if req.Count > 10000 {
		httpError(w, http.StatusBadRequest, "sample: count %d too large", req.Count)
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.view == nil {
		httpError(w, http.StatusConflict, "sample: daemon not provisioned")
		return
	}
	rng := rand.New(rand.NewPCG(req.Seed, req.Seed^0x2545f4914f6cdd1d))
	before := d.view.Meter().Snapshot()
	sampler, err := core.New(d.view, d.view.Self(), rng, core.Config{})
	if err != nil {
		httpError(w, http.StatusInternalServerError, "sample: %v", err)
		return
	}
	out := make([]uint64, 0, req.Count)
	for i := 0; i < req.Count; i++ {
		peer, err := sampler.Sample()
		if err != nil {
			httpError(w, http.StatusInternalServerError, "sample %d: %v", i, err)
			return
		}
		out = append(out, uint64(peer.Point))
	}
	cost := d.view.Meter().Snapshot().Sub(before)
	writeJSON(w, cluster.SampleResponse{Points: out, Calls: cost.Calls})
}

func (d *daemon) handleMetrics(w http.ResponseWriter, r *http.Request) {
	d.mu.Lock()
	backend := d.backend
	owned := make([]uint64, len(d.owned))
	for i, p := range d.owned {
		owned[i] = uint64(p)
	}
	d.mu.Unlock()
	cost := d.tr.Meter().Snapshot()
	writeJSON(w, cluster.MetricsResponse{
		Backend:       backend,
		Owned:         owned,
		UptimeSeconds: time.Since(d.start).Seconds(),
		ServedCalls:   d.tr.ServedCalls(),
		Calls:         cost.Calls,
		Messages:      cost.Messages,
		Failures:      cost.Failures,
	})
}

func (d *daemon) handleSLO(w http.ResponseWriter, r *http.Request) {
	if d.slor == nil {
		httpError(w, http.StatusConflict, "slo: recorder disabled (-slo-window 0)")
		return
	}
	d.slor.handle(w, r)
}

func toPoints(raw []uint64) []ring.Point {
	out := make([]ring.Point, len(raw))
	for i, p := range raw {
		out[i] = ring.Point(p)
	}
	return out
}

func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return false
	}
	if err := json.NewDecoder(r.Body).Decode(dst); err != nil {
		httpError(w, http.StatusBadRequest, "malformed request: %v", err)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	http.Error(w, "randpeerd: "+fmt.Sprintf(format, args...), code)
}
