package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/dht-sampling/randompeer/internal/obs"
	"github.com/dht-sampling/randompeer/internal/simnet"
)

// RPCPath is the URL path every wire transport serves node RPCs on.
// Routes name only host:port; the path is a fixed protocol constant so
// a route entry works against any process running this package.
const RPCPath = "/wire"

// Defaults for per-call behaviour; override with the options below.
const (
	// DefaultCallTimeout bounds one RPC attempt end to end (dial, write,
	// handler, read).
	DefaultCallTimeout = 2 * time.Second
	// DefaultMaxRetries is the number of re-attempts after a failed
	// network attempt (so a call costs at most DefaultMaxRetries+1
	// attempts before it reports the mapped failure).
	DefaultMaxRetries = 2
	// DefaultBackoffBase is the pre-jitter delay before the first retry;
	// each further retry doubles it.
	DefaultBackoffBase = 25 * time.Millisecond
	// DefaultBackoffCap bounds the pre-jitter delay growth.
	DefaultBackoffCap = 400 * time.Millisecond
)

// Transport is a simnet.Transport whose RPCs travel over HTTP on real
// TCP sockets. Each process runs one Transport: locally registered
// handlers are served at RPCPath, and Call routes by destination node
// id — in-process destinations dispatch directly (same semantics as
// simnet.Direct), remote destinations POST the encoded payload to the
// owning process with a per-attempt deadline, bounded retries with
// jittered exponential backoff, and HTTP keep-alive connection reuse.
//
// Failure mapping into the simnet taxonomy: a destination with no
// route or not registered at its owner fails with ErrUnknownNode; an
// attempt that times out fails with ErrDropped (the message is lost in
// flight); a destination whose process is unreachable (connection
// refused/reset, mid-call crash) fails with ErrNodeDead after the
// retry budget. Handler-level errors pass through without retries.
//
// All methods are safe for concurrent use.
type Transport struct {
	mu       sync.RWMutex
	handlers map[simnet.NodeID]simnet.Handler
	routes   map[simnet.NodeID]string
	closed   bool

	meter  simnet.Meter
	faults *simnet.Faults
	served atomic.Int64
	stats  wireStats

	// trace, when armed, records one obs.Hop per Call (client side);
	// tlog, when set, records spans for inbound RPCs carrying a trace
	// id (server side). Both are one atomic pointer load when unused.
	trace atomic.Pointer[obs.Trace]
	tlog  atomic.Pointer[obs.TraceLog]

	callTimeout time.Duration
	maxRetries  int
	backoffBase time.Duration
	backoffCap  time.Duration

	jmu    sync.Mutex
	jitter *rand.Rand
	sleep  func(time.Duration) // test hook; time.Sleep by default

	client *http.Client
	srv    *http.Server
	lis    net.Listener
}

var (
	_ simnet.Transport = (*Transport)(nil)
	_ obs.Traceable    = (*Transport)(nil)
)

// wireStats carries the transport's always-on counters: cheap atomic
// adds beside the meter charges, exposed through RegisterMetrics.
type wireStats struct {
	localCalls   atomic.Int64 // calls dispatched to an in-process handler
	remoteCalls  atomic.Int64 // calls routed to a remote process
	attempts     atomic.Int64 // network attempts (first tries + retries)
	retries      atomic.Int64 // attempts beyond a call's first
	backoffNanos atomic.Int64 // total time spent in retry backoff
	fails        [6]atomic.Int64
}

// failKinds indexes wireStats.fails; the order matches failIndex.
var failKinds = [6]string{kindUnknownNode, kindNodeDead, kindDropped, kindPartitioned, kindClosed, kindApp}

// failIndex maps a taxonomy class to its wireStats.fails slot.
func failIndex(class string) int {
	for i, k := range failKinds {
		if k == class {
			return i
		}
	}
	return len(failKinds) - 1 // "app"
}

// chargeFailure records a failed call on both the meter and the
// per-kind counter.
func (t *Transport) chargeFailure(err error) {
	t.meter.ChargeFailure()
	t.stats.fails[failIndex(simnet.ErrorClass(err))].Add(1)
}

// Option configures a Transport.
type Option func(*Transport)

// WithCallTimeout sets the per-attempt deadline.
func WithCallTimeout(d time.Duration) Option {
	return func(t *Transport) { t.callTimeout = d }
}

// WithRetries sets the retry budget (re-attempts after the first) and
// the pre-jitter backoff base and cap. maxRetries 0 disables retries.
func WithRetries(maxRetries int, base, maxBackoff time.Duration) Option {
	return func(t *Transport) {
		t.maxRetries = maxRetries
		t.backoffBase = base
		t.backoffCap = maxBackoff
	}
}

// WithJitterSeed seeds the backoff jitter source. Equal seeds produce
// identical backoff schedules, which the determinism tests pin down;
// production daemons seed from entropy.
func WithJitterSeed(seed uint64) Option {
	return func(t *Transport) { t.jitter = rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)) }
}

// WithFaults attaches a local fault-injection plan, checked on every
// outgoing call exactly as simnet.Direct checks it.
func WithFaults(f *simnet.Faults) Option {
	return func(t *Transport) { t.faults = f }
}

// withSleep replaces the backoff sleeper (tests record the schedule
// instead of waiting it out).
func withSleep(fn func(time.Duration)) Option {
	return func(t *Transport) { t.sleep = fn }
}

// NewTransport returns a wire transport that is ready for local
// registration and outgoing calls. Call Start (or mount RPCHandler on
// an existing server) before expecting inbound RPCs.
func NewTransport(opts ...Option) *Transport {
	t := &Transport{
		handlers:    make(map[simnet.NodeID]simnet.Handler),
		routes:      make(map[simnet.NodeID]string),
		callTimeout: DefaultCallTimeout,
		maxRetries:  DefaultMaxRetries,
		backoffBase: DefaultBackoffBase,
		backoffCap:  DefaultBackoffCap,
		jitter:      rand.New(rand.NewPCG(rand.Uint64(), rand.Uint64())),
		sleep:       time.Sleep,
	}
	for _, opt := range opts {
		opt(t)
	}
	t.client = &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		},
	}
	return t
}

// Start listens on addr (e.g. "127.0.0.1:0") and serves the RPC
// endpoint. Use RPCHandler instead when the process multiplexes the
// transport with other HTTP endpoints on one server.
func (t *Transport) Start(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("wire: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.Handle(RPCPath, t.RPCHandler())
	srv := &http.Server{Handler: mux}
	t.mu.Lock()
	t.lis, t.srv = lis, srv
	t.mu.Unlock()
	go func() { _ = srv.Serve(lis) }()
	return nil
}

// Addr returns the listening address ("" before Start).
func (t *Transport) Addr() string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.lis == nil {
		return ""
	}
	return t.lis.Addr().String()
}

// SetRoute maps a node id to the host:port of the process hosting it.
// Registering a local handler shadows any route for that id.
func (t *Transport) SetRoute(id simnet.NodeID, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.routes[id] = addr
}

// SetRoutes replaces the whole routing table.
func (t *Transport) SetRoutes(routes map[simnet.NodeID]string) {
	next := make(map[simnet.NodeID]string, len(routes))
	for id, addr := range routes {
		next[id] = addr
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.routes = next
}

// Register implements simnet.Transport.
func (t *Transport) Register(id simnet.NodeID, h simnet.Handler) error {
	if h == nil {
		return fmt.Errorf("wire: nil handler for node %d", id)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return simnet.ErrClosed
	}
	if _, ok := t.handlers[id]; ok {
		return fmt.Errorf("%w: %d", simnet.ErrDuplicateID, id)
	}
	t.handlers[id] = h
	return nil
}

// Deregister implements simnet.Transport.
func (t *Transport) Deregister(id simnet.NodeID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.handlers, id)
}

// DeregisterAll detaches every local handler (used when a daemon is
// re-provisioned with a fresh overlay partition).
func (t *Transport) DeregisterAll() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.handlers = make(map[simnet.NodeID]simnet.Handler)
}

// Meter implements simnet.Transport.
func (t *Transport) Meter() *simnet.Meter { return &t.meter }

// ServedCalls returns the number of inbound RPCs this transport's
// handler side has served (successfully or not). Outbound accounting
// lives on the meter, mirroring the in-process transports.
func (t *Transport) ServedCalls() int64 { return t.served.Load() }

// Close implements simnet.Transport: it stops the HTTP server, drops
// every handler and route, and fails subsequent calls with ErrClosed.
func (t *Transport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.handlers = make(map[simnet.NodeID]simnet.Handler)
	t.routes = make(map[simnet.NodeID]string)
	srv := t.srv
	t.mu.Unlock()
	if srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}
	t.client.CloseIdleConnections()
	return nil
}

// SetTrace arms (nil disarms) client-side hop tracing: while armed,
// every Call records one obs.Hop, and remote calls carry the trace id
// in their wire envelope so serving processes log the matching span.
// Disarmed, the hook is one atomic pointer load.
func (t *Transport) SetTrace(tr *obs.Trace) { t.trace.Store(tr) }

// SetTraceLog installs the server-side span log: every inbound RPC
// whose envelope carries a trace id records the hop this process
// observed (handler wall time, outcome class). The daemon queries the
// log through /v1/trace?id=N.
func (t *Transport) SetTraceLog(l *obs.TraceLog) { t.tlog.Store(l) }

// Call implements simnet.Transport.
func (t *Transport) Call(from, to simnet.NodeID, msg simnet.Message) (simnet.Message, error) {
	tr := t.trace.Load()
	if tr == nil {
		resp, _, _, err := t.call(from, to, msg, 0)
		return resp, err
	}
	start := time.Now()
	resp, remote, attempts, err := t.call(from, to, msg, tr.ID())
	tr.Record(obs.Hop{
		From:      uint64(from),
		To:        uint64(to),
		RPC:       simnet.MessageName(msg),
		WallNanos: time.Since(start).Nanoseconds(),
		Outcome:   simnet.ErrorClass(err),
		Remote:    remote,
		Attempts:  attempts,
	})
	return resp, err
}

// call is the body of Call: one logical RPC, dispatched in-process or
// over the network. It reports whether the destination was remote and
// how many network attempts the call consumed (0 for local dispatch),
// and records the wall round trip of every success into the meter's
// latency histogram — which is what the wire_rpc_duration_seconds
// metric exposes, so histogram count reconciles with meter calls by
// construction.
func (t *Transport) call(from, to simnet.NodeID, msg simnet.Message, traceID uint64) (simnet.Message, bool, int, error) {
	t.mu.RLock()
	closed := t.closed
	h := t.handlers[to]
	addr := t.routes[to]
	t.mu.RUnlock()
	if closed {
		return nil, false, 0, simnet.ErrClosed
	}
	if err := t.faults.Check(from, to); err != nil {
		t.chargeFailure(err)
		return nil, false, 0, fmt.Errorf("call %d->%d: %w", from, to, err)
	}
	if h != nil {
		// In-process destination: dispatch directly, exactly like
		// simnet.Direct (no transport locks held during the handler).
		t.stats.localCalls.Add(1)
		start := time.Now()
		resp, err := h(from, msg)
		if err != nil {
			t.chargeFailure(err)
			return nil, false, 0, fmt.Errorf("call %d->%d: %w", from, to, err)
		}
		t.meter.ChargeSuccess()
		t.meter.RecordLatency(time.Since(start))
		return resp, false, 0, nil
	}
	if addr == "" {
		t.chargeFailure(simnet.ErrUnknownNode)
		return nil, true, 0, fmt.Errorf("call %d->%d: %w", from, to, simnet.ErrUnknownNode)
	}
	t.stats.remoteCalls.Add(1)
	start := time.Now()
	resp, attempts, err := t.callRemote(from, to, addr, msg, traceID)
	if err != nil {
		t.chargeFailure(err)
		return nil, true, attempts, err
	}
	t.meter.ChargeSuccess()
	t.meter.RecordLatency(time.Since(start))
	return resp, true, attempts, nil
}

// callRemote performs one logical RPC against a remote process:
// bounded attempts with jittered exponential backoff between them,
// each attempt under its own deadline. It returns the number of
// attempts consumed.
func (t *Transport) callRemote(from, to simnet.NodeID, addr string, msg simnet.Message, traceID uint64) (simnet.Message, int, error) {
	name, body, err := encodeMessage(msg)
	if err != nil {
		return nil, 0, err
	}
	reqBody, err := json.Marshal(rpcRequest{From: uint64(from), To: uint64(to), Type: name, Body: body, Trace: traceID})
	if err != nil {
		return nil, 0, fmt.Errorf("wire: encoding request envelope: %w", err)
	}
	url := "http://" + addr + RPCPath
	var lastErr error
	attempts := t.maxRetries + 1
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			d := t.backoff(attempt)
			t.stats.retries.Add(1)
			t.stats.backoffNanos.Add(int64(d))
			t.sleep(d)
		}
		t.stats.attempts.Add(1)
		reply, err := t.attempt(url, reqBody)
		if err != nil {
			lastErr = err
			continue
		}
		if reply.Err != nil {
			// The remote process answered: handler-level and taxonomy
			// errors are authoritative, not transient — no retry.
			if sentinel := reply.Err.sentinel(); sentinel != nil {
				return nil, attempt + 1, fmt.Errorf("call %d->%d: %w (remote: %s)", from, to, sentinel, reply.Err.Msg)
			}
			return nil, attempt + 1, fmt.Errorf("call %d->%d: remote: %s", from, to, reply.Err.Msg)
		}
		resp, err := decodeMessage(reply.Type, reply.Body)
		if err != nil {
			return nil, attempt + 1, fmt.Errorf("call %d->%d: %w", from, to, err)
		}
		return resp, attempt + 1, nil
	}
	return nil, attempts, fmt.Errorf("call %d->%d: %w (%d attempts to %s: %v)",
		from, to, mapNetError(lastErr), attempts, addr, lastErr)
}

// attempt performs one HTTP POST under the per-attempt deadline.
// Network-level failures return an error; a parsed response envelope
// (success or remote error) returns nil.
func (t *Transport) attempt(url string, body []byte) (*rpcResponse, error) {
	ctx, cancel := context.WithTimeout(context.Background(), t.callTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	httpResp, err := t.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer httpResp.Body.Close()
	data, err := io.ReadAll(httpResp.Body)
	if err != nil {
		return nil, err
	}
	if httpResp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("http status %d: %s", httpResp.StatusCode, data)
	}
	var reply rpcResponse
	if err := json.Unmarshal(data, &reply); err != nil {
		return nil, fmt.Errorf("malformed response envelope: %w", err)
	}
	return &reply, nil
}

// backoff returns the jittered delay before the given retry attempt
// (attempt >= 1): base*2^(attempt-1) capped at backoffCap, then
// half-jittered into [d/2, d] so synchronized retry storms decorrelate
// while the schedule stays bounded.
func (t *Transport) backoff(attempt int) time.Duration {
	d := t.backoffBase << uint(attempt-1)
	if d > t.backoffCap || d <= 0 {
		d = t.backoffCap
	}
	half := d / 2
	t.jmu.Lock()
	j := time.Duration(t.jitter.Int64N(int64(half) + 1))
	t.jmu.Unlock()
	return half + j
}

// mapNetError maps an exhausted network-level failure into the simnet
// taxonomy: deadline expiries mean the message (or its reply) was lost
// in flight — ErrDropped; unreachable-network/host errors are
// partition-shaped — the destination process may be fine but no route
// reaches it — ErrPartitioned; everything else (connection
// refused/reset, mid-call EOF) means the destination process is gone —
// ErrNodeDead. The distinction matters operationally: a burst of
// "partitioned" failures in randpeerd's wire_rpc_failures_total metric
// points at the network (or an adversary segmenting it), not at
// crashed peers.
func mapNetError(err error) error {
	if err == nil {
		return simnet.ErrNodeDead
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return simnet.ErrDropped
	}
	var netErr net.Error
	if errors.As(err, &netErr) && netErr.Timeout() {
		return simnet.ErrDropped
	}
	if errors.Is(err, syscall.ENETUNREACH) || errors.Is(err, syscall.EHOSTUNREACH) ||
		errors.Is(err, syscall.ENETDOWN) {
		return simnet.ErrPartitioned
	}
	return simnet.ErrNodeDead
}

// RPCHandler returns the HTTP handler serving inbound node RPCs. Mount
// it at RPCPath.
func (t *Transport) RPCHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.served.Add(1)
		if r.Method != http.MethodPost {
			http.Error(w, "wire: POST only", http.StatusMethodNotAllowed)
			return
		}
		var req rpcRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, fmt.Sprintf("wire: malformed request: %v", err), http.StatusBadRequest)
			return
		}
		writeReply(w, t.serveRPC(&req))
	})
}

// serveRPC dispatches one decoded inbound RPC to its local handler.
// When the request carries a trace id and a trace log is installed,
// the hop this process observed is recorded under that id.
func (t *Transport) serveRPC(req *rpcRequest) *rpcResponse {
	start := time.Now()
	resp := t.dispatchRPC(req)
	if req.Trace != 0 {
		if l := t.tlog.Load(); l != nil {
			outcome := "ok"
			if resp.Err != nil {
				outcome = resp.Err.Kind
			}
			l.Record(req.Trace, obs.Hop{
				From:      req.From,
				To:        req.To,
				RPC:       req.Type,
				WallNanos: time.Since(start).Nanoseconds(),
				Outcome:   outcome,
				Remote:    true,
			})
		}
	}
	return resp
}

// dispatchRPC is the untraced body of serveRPC.
func (t *Transport) dispatchRPC(req *rpcRequest) *rpcResponse {
	to := simnet.NodeID(req.To)
	t.mu.RLock()
	closed := t.closed
	h := t.handlers[to]
	t.mu.RUnlock()
	if closed {
		return &rpcResponse{Err: &rpcError{Kind: kindClosed, Msg: simnet.ErrClosed.Error()}}
	}
	if h == nil {
		return &rpcResponse{Err: &rpcError{Kind: kindUnknownNode, Msg: fmt.Sprintf("no node %d here", req.To)}}
	}
	msg, err := decodeMessage(req.Type, req.Body)
	if err != nil {
		return &rpcResponse{Err: &rpcError{Kind: kindApp, Msg: err.Error()}}
	}
	resp, err := h(simnet.NodeID(req.From), msg)
	if err != nil {
		return &rpcResponse{Err: &rpcError{Kind: errorKind(err), Msg: err.Error()}}
	}
	name, body, err := encodeMessage(resp)
	if err != nil {
		return &rpcResponse{Err: &rpcError{Kind: kindApp, Msg: err.Error()}}
	}
	return &rpcResponse{Type: name, Body: body}
}

// RegisterMetrics exposes the transport's counters and its per-call
// latency histogram on an obs registry under the wire_ prefix. The
// histogram is the meter's: every successful Call records its wall
// round trip there, so the exposed count equals the meter's charged
// calls — the reconciliation the cluster smoke test asserts.
func (t *Transport) RegisterMetrics(r *obs.Registry) {
	r.CounterFunc("wire_rpc_calls_total",
		"Outbound RPCs by destination locality.",
		func() float64 { return float64(t.stats.localCalls.Load()) },
		obs.Label{Name: "dest", Value: "local"})
	r.CounterFunc("wire_rpc_calls_total",
		"Outbound RPCs by destination locality.",
		func() float64 { return float64(t.stats.remoteCalls.Load()) },
		obs.Label{Name: "dest", Value: "remote"})
	for i, kind := range failKinds {
		c := &t.stats.fails[i]
		r.CounterFunc("wire_rpc_failures_total",
			"Failed outbound RPCs by simnet taxonomy class.",
			func() float64 { return float64(c.Load()) },
			obs.Label{Name: "kind", Value: kind})
	}
	r.CounterFunc("wire_rpc_attempts_total",
		"Network attempts (first tries plus retries) for remote RPCs.",
		func() float64 { return float64(t.stats.attempts.Load()) })
	r.CounterFunc("wire_rpc_retries_total",
		"Retry attempts beyond each remote RPC's first.",
		func() float64 { return float64(t.stats.retries.Load()) })
	r.CounterFunc("wire_rpc_backoff_seconds_total",
		"Total time spent sleeping in retry backoff.",
		func() float64 { return float64(t.stats.backoffNanos.Load()) / 1e9 })
	r.CounterFunc("wire_rpc_served_total",
		"Inbound RPCs served by this process (successfully or not).",
		func() float64 { return float64(t.served.Load()) })
	r.HistogramFunc("wire_rpc_duration_seconds",
		"Wall round-trip time of successful outbound RPCs.",
		func() obs.HistSnapshot {
			l := t.meter.Latency()
			return obs.HistSnapshot{Count: l.Count, SumNanos: l.SumNanos, Buckets: l.Buckets}
		})
}

// writeReply serializes one response envelope.
func writeReply(w http.ResponseWriter, resp *rpcResponse) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		// The connection broke mid-reply; the caller's retry/backoff
		// path owns recovery.
		return
	}
}
