package simnet

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dht-sampling/randompeer/internal/obs"
)

// Direct is a synchronous in-process transport: Call invokes the
// destination handler in the caller's goroutine. It is deterministic,
// allocation-light and safe for concurrent use, which makes it the
// default backend for experiments.
type Direct struct {
	mu       sync.RWMutex
	handlers map[NodeID]Handler
	multis   []multiReg
	closed   bool
	meter    Meter
	faults   *Faults
	trace    atomic.Pointer[obs.Trace]
	byz      atomic.Pointer[Interceptor]
}

// multiReg is one bulk registration: an ownership predicate plus the
// handler serving every owned node.
type multiReg struct {
	owns func(NodeID) bool
	h    MultiHandler
}

var (
	_ Transport      = (*Direct)(nil)
	_ obs.Traceable  = (*Direct)(nil)
	_ Interceptable  = (*Direct)(nil)
	_ MultiRegistrar = (*Direct)(nil)
)

// DirectOption configures a Direct transport.
type DirectOption func(*Direct)

// WithFaults attaches a fault-injection plan.
func WithFaults(f *Faults) DirectOption {
	return func(d *Direct) { d.faults = f }
}

// NewDirect returns a ready-to-use synchronous transport.
func NewDirect(opts ...DirectOption) *Direct {
	d := &Direct{handlers: make(map[NodeID]Handler)}
	for _, opt := range opts {
		opt(d)
	}
	return d
}

// Register implements Transport.
func (d *Direct) Register(id NodeID, h Handler) error {
	if h == nil {
		return fmt.Errorf("simnet: nil handler for node %d", id)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if _, ok := d.handlers[id]; ok {
		return fmt.Errorf("%w: %d", ErrDuplicateID, id)
	}
	d.handlers[id] = h
	return nil
}

// RegisterMulti implements MultiRegistrar: h serves every node owns
// reports as hosted here, with no per-node table entry. Per-node
// registrations take precedence for ids present in both.
func (d *Direct) RegisterMulti(owns func(NodeID) bool, h MultiHandler) error {
	if owns == nil || h == nil {
		return fmt.Errorf("simnet: nil multi registration")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	d.multis = append(d.multis, multiReg{owns: owns, h: h})
	return nil
}

// Deregister implements Transport.
func (d *Direct) Deregister(id NodeID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.handlers, id)
}

// SetTrace arms (nil disarms) hop tracing: while armed, every Call
// records one obs.Hop. Disarmed, the hook costs one atomic pointer
// load, keeping the sampling hot path allocation-free.
func (d *Direct) SetTrace(t *obs.Trace) { d.trace.Store(t) }

// SetInterceptor arms (nil disarms) the Byzantine hook: while armed,
// every RPC's handler outcome passes through ic before metering and
// delivery. Disarmed, the hook costs one atomic pointer load.
func (d *Direct) SetInterceptor(ic Interceptor) {
	if ic == nil {
		d.byz.Store(nil)
		return
	}
	d.byz.Store(&ic)
}

// Call implements Transport. The handler runs synchronously with no
// transport locks held, so handlers may call back into the transport.
func (d *Direct) Call(from, to NodeID, msg Message) (Message, error) {
	if tr := d.trace.Load(); tr != nil {
		return d.callTraced(tr, from, to, msg)
	}
	return d.call(from, to, msg)
}

// callTraced wraps call with wall timing and a hop record.
func (d *Direct) callTraced(tr *obs.Trace, from, to NodeID, msg Message) (Message, error) {
	start := time.Now()
	resp, err := d.call(from, to, msg)
	tr.Record(obs.Hop{
		From:      uint64(from),
		To:        uint64(to),
		RPC:       MessageName(msg),
		WallNanos: time.Since(start).Nanoseconds(),
		Outcome:   ErrorClass(err),
	})
	return resp, err
}

func (d *Direct) call(from, to NodeID, msg Message) (Message, error) {
	d.mu.RLock()
	if d.closed {
		d.mu.RUnlock()
		return nil, ErrClosed
	}
	h, ok := d.handlers[to]
	var mh MultiHandler
	if !ok {
		for i := range d.multis {
			if d.multis[i].owns(to) {
				mh, ok = d.multis[i].h, true
				break
			}
		}
	}
	d.mu.RUnlock()
	if !ok {
		d.meter.ChargeFailure()
		return nil, fmt.Errorf("%w: %d", ErrUnknownNode, to)
	}
	if err := d.faults.Check(from, to); err != nil {
		d.meter.ChargeFailure()
		return nil, fmt.Errorf("call %d->%d: %w", from, to, err)
	}
	var resp Message
	var err error
	if mh != nil {
		resp, err = mh(to, from, msg)
	} else {
		resp, err = h(from, msg)
	}
	if bz := d.byz.Load(); bz != nil {
		resp, err = (*bz)(from, to, msg, resp, err)
	}
	if err != nil {
		d.meter.ChargeFailure()
		return nil, fmt.Errorf("call %d->%d: %w", from, to, err)
	}
	d.meter.ChargeSuccess()
	return resp, nil
}

// Meter implements Transport.
func (d *Direct) Meter() *Meter { return &d.meter }

// Close implements Transport.
func (d *Direct) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	d.handlers = make(map[NodeID]Handler)
	return nil
}
