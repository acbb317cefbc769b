package sim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dht-sampling/randompeer/internal/obs"
	"github.com/dht-sampling/randompeer/internal/simnet"
)

// Transport is a virtual-clock RPC fabric implementing
// simnet.Transport: every Call pays a latency drawn from its Model
// before the destination handler runs, and the round trip is recorded in
// the meter's latency histogram next to the usual call/message counters.
//
// Bound to a Kernel, a Call made inside a kernel process sleeps on the
// event queue, so other processes (churn events, maintenance sweeps,
// other samplers) interleave with it in virtual time — and a node
// crashed while the message is in flight makes the call fail, exactly
// as it would on a real network. Without a kernel (or outside any
// process) the transport free-runs: each Call advances the clock in the
// caller's goroutine, which keeps sequential workloads deterministic
// and costs a few nanoseconds over the Direct transport.
//
// Handlers execute in the calling goroutine with no transport locks
// held, exactly like simnet.Direct.
type Transport struct {
	mu       sync.RWMutex
	handlers map[simnet.NodeID]simnet.Handler
	multis   []multiReg
	closed   bool
	meter    simnet.Meter
	faults   *simnet.Faults
	model    Model
	stream   *Stream
	kernel   *Kernel

	// constRTT short-circuits constant models on the hot path: no
	// uniform draw, no interface call. Zero means "not constant".
	constRTT time.Duration

	// trace, when armed, records one obs.Hop per Call. Disarmed it is
	// one atomic pointer load on the hot path.
	trace atomic.Pointer[obs.Trace]
	// byz, when armed, rewrites handler outcomes (Byzantine nodes).
	// Disarmed it is one atomic pointer load on the hot path.
	byz atomic.Pointer[simnet.Interceptor]
}

// multiReg is one bulk registration: an ownership predicate plus the
// handler serving every owned node (see simnet.MultiRegistrar).
type multiReg struct {
	owns func(simnet.NodeID) bool
	h    simnet.MultiHandler
}

var (
	_ simnet.Transport      = (*Transport)(nil)
	_ obs.Traceable         = (*Transport)(nil)
	_ simnet.Interceptable  = (*Transport)(nil)
	_ simnet.MultiRegistrar = (*Transport)(nil)
)

// TransportOption configures a Transport.
type TransportOption func(*Transport)

// WithModel sets the latency model (default Constant{1ms}).
func WithModel(m Model) TransportOption {
	return func(t *Transport) {
		if m != nil {
			t.model = m
		}
	}
}

// WithStreamSeed roots the latency draw stream (default 1).
func WithStreamSeed(seed uint64) TransportOption {
	return func(t *Transport) { t.stream = NewStream(seed) }
}

// WithKernel binds the transport to a kernel: calls from kernel
// processes sleep on the event queue and the kernel's clock is the
// transport's clock.
func WithKernel(k *Kernel) TransportOption {
	return func(t *Transport) { t.kernel = k }
}

// WithFaults attaches a fault-injection plan (shared with the simnet
// transports). Combine with Kernel.At to script time-based faults:
// schedule a process that flips SetDead, SetDropRate or Partition/Heal
// at chosen virtual times.
func WithFaults(f *simnet.Faults) TransportOption {
	return func(t *Transport) { t.faults = f }
}

// NewTransport returns a ready-to-use virtual-clock transport.
func NewTransport(opts ...TransportOption) *Transport {
	t := &Transport{
		handlers: make(map[simnet.NodeID]simnet.Handler),
		model:    Constant{RTT: time.Millisecond},
		stream:   NewStream(1),
	}
	for _, opt := range opts {
		opt(t)
	}
	if c, ok := t.model.(Constant); ok {
		t.constRTT = c.RTT
		// Arm the meter's constant-latency fast lane: successful calls
		// under a constant model charge call count and latency record in
		// one atomic add (see Meter.ChargeConstSuccess).
		t.meter.ArmConstLatency(c.RTT)
	}
	return t
}

// Now returns the current virtual time: the kernel clock when bound,
// otherwise the sum of every recorded RPC latency — free-running calls
// execute back to back, so total latency IS elapsed sequential time,
// and the hot path saves a separate clock update per call.
func (t *Transport) Now() time.Duration {
	if t.kernel != nil {
		return t.kernel.Now()
	}
	return time.Duration(t.meter.LatencySumNanos())
}

// Model returns the transport's latency model.
func (t *Transport) Model() Model { return t.model }

// latency draws one RPC's round trip from the model. Call bypasses it
// for constant models — the per-RPC hot path of every simulated-time
// benchmark.
func (t *Transport) latency(from, to simnet.NodeID) time.Duration {
	d := t.model.Latency(from, to, t.stream.U01())
	if d < 0 {
		d = 0
	}
	return d
}

// Register implements simnet.Transport.
func (t *Transport) Register(id simnet.NodeID, h simnet.Handler) error {
	if h == nil {
		return fmt.Errorf("sim: nil handler for node %d", id)
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

// RegisterMulti implements simnet.MultiRegistrar: h serves every node
// owns reports as hosted here, with no per-node table entry. Because
// ownership is consulted only when the message is delivered — after
// the latency has elapsed — a node crashed while the message is in
// flight fails the call exactly like a deregistered one.
func (t *Transport) RegisterMulti(owns func(simnet.NodeID) bool, h simnet.MultiHandler) error {
	if owns == nil || h == nil {
		return fmt.Errorf("sim: nil multi registration")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return simnet.ErrClosed
	}
	t.multis = append(t.multis, multiReg{owns: owns, h: h})
	return nil
}

// Deregister implements simnet.Transport.
func (t *Transport) Deregister(id simnet.NodeID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.handlers, id)
}

// SetTrace arms (nil disarms) hop tracing. Traced hops carry both the
// virtual round trip (from the transport clock) and the wall-clock
// time the call took to execute. Virtual deltas are per-call accurate
// for sequential lookups; under a kernel with concurrent processes the
// clock advances for everyone, so arm traces on quiesced lookups.
func (t *Transport) SetTrace(tr *obs.Trace) { t.trace.Store(tr) }

// SetInterceptor arms (nil disarms) the Byzantine hook: while armed,
// every RPC's handler outcome passes through ic before metering and
// delivery — after the latency has elapsed and the fault plan has let
// the call through. Disarmed, the hook costs one atomic pointer load.
func (t *Transport) SetInterceptor(ic simnet.Interceptor) {
	if ic == nil {
		t.byz.Store(nil)
		return
	}
	t.byz.Store(&ic)
}

// Call implements simnet.Transport. The destination is resolved only
// after the latency has elapsed, so a node deregistered (crashed) while
// the message is in flight fails the call — asynchronous churn is
// visible to in-flight RPCs.
func (t *Transport) Call(from, to simnet.NodeID, msg simnet.Message) (simnet.Message, error) {
	if tr := t.trace.Load(); tr != nil {
		return t.callTraced(tr, from, to, msg)
	}
	return t.call(from, to, msg)
}

// callTraced wraps call with virtual and wall timing plus a hop record.
func (t *Transport) callTraced(tr *obs.Trace, from, to simnet.NodeID, msg simnet.Message) (simnet.Message, error) {
	startWall := time.Now()
	startVirt := t.Now()
	resp, err := t.call(from, to, msg)
	tr.Record(obs.Hop{
		From:         uint64(from),
		To:           uint64(to),
		RPC:          simnet.MessageName(msg),
		VirtualNanos: int64(t.Now() - startVirt),
		WallNanos:    time.Since(startWall).Nanoseconds(),
		Outcome:      simnet.ErrorClass(err),
	})
	return resp, err
}

func (t *Transport) call(from, to simnet.NodeID, msg simnet.Message) (simnet.Message, error) {
	lat := t.constRTT
	konst := lat != 0
	if !konst {
		lat = t.latency(from, to)
	}
	if k := t.kernel; k != nil {
		if err := k.Sleep(lat); err != nil {
			// Kernel draining: surface the transport-closed condition
			// the protocols already unwind on.
			return t.fail(from, to, lat, simnet.ErrClosed)
		}
	}
	if err := t.faults.Check(from, to); err != nil {
		return t.fail(from, to, lat, err)
	}
	t.mu.RLock()
	closed := t.closed
	h, ok := t.handlers[to]
	var mh simnet.MultiHandler
	if !ok && !closed {
		for i := range t.multis {
			if t.multis[i].owns(to) {
				mh, ok = t.multis[i].h, true
				break
			}
		}
	}
	t.mu.RUnlock()
	if closed {
		return t.fail(from, to, lat, simnet.ErrClosed)
	}
	if !ok {
		t.meter.ChargeFailure()
		t.meter.RecordLatency(lat)
		return nil, fmt.Errorf("%w: %d", simnet.ErrUnknownNode, to)
	}
	var resp simnet.Message
	var err error
	if mh != nil {
		resp, err = mh(to, from, msg)
	} else {
		resp, err = h(from, msg)
	}
	if bz := t.byz.Load(); bz != nil {
		resp, err = (*bz)(from, to, msg, resp, err)
	}
	if err != nil {
		return t.fail(from, to, lat, err)
	}
	if konst {
		// Constant model: one atomic add covers the call count and the
		// latency record — the same meter traffic Direct pays.
		t.meter.ChargeConstSuccess()
	} else {
		t.meter.ChargeSuccess()
		t.meter.RecordLatency(lat)
	}
	return resp, nil
}

// fail charges and wraps one failed RPC (a method, not a closure, to
// keep the hot path allocation-free).
func (t *Transport) fail(from, to simnet.NodeID, lat time.Duration, err error) (simnet.Message, error) {
	t.meter.ChargeFailure()
	t.meter.RecordLatency(lat)
	return nil, fmt.Errorf("call %d->%d: %w", from, to, err)
}

// Meter implements simnet.Transport.
func (t *Transport) Meter() *simnet.Meter { return &t.meter }

// Close implements simnet.Transport.
func (t *Transport) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closed = true
	t.handlers = make(map[simnet.NodeID]simnet.Handler)
	return nil
}
