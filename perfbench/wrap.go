package main

import (
	"github.com/dht-sampling/randompeer/internal/churn"
	"github.com/dht-sampling/randompeer/internal/dht"
	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/simnet"
)

// The decorators below time each layer through its public interface
// only. They forward every call unchanged, so the program under test
// takes the same path and charges the same meter with or without them.

// tracedDHT decorates one lane's dht.DHT.
type tracedDHT struct {
	dht.DHT
	lane *lane
}

var _ dht.DHT = (*tracedDHT)(nil)

func (d *tracedDHT) H(x ring.Point) (dht.Peer, error) {
	s := d.lane.enter(kH)
	d.lane.beginTrial(s)
	p, err := d.DHT.H(x)
	d.lane.exit(s, err)
	return p, err
}

func (d *tracedDHT) Next(p dht.Peer) (dht.Peer, error) {
	s := d.lane.enter(kNext)
	q, err := d.DHT.Next(p)
	if err == nil {
		d.lane.countStep(s)
	}
	d.lane.exit(s, err)
	return q, err
}

// tracedTransport decorates a simnet.Transport and every handler
// registered through it. It implements no optional interface; see
// wrapTransport.
type tracedTransport struct {
	simnet.Transport
	t *tracer
	// local marks ids registered through this decorator. Set only while
	// the overlay is built, before any call; read-only afterwards. A
	// call to any other id crosses to another transport (wire only).
	local  map[simnet.NodeID]bool
	remote bool // classify calls to non-local ids as kRemote
}

// tracedMultiTransport adds bulk registration for transports that
// offer it, so the overlay takes the same registration path.
type tracedMultiTransport struct {
	*tracedTransport
	mr simnet.MultiRegistrar
}

// wrapTransport decorates tr, exposing simnet.MultiRegistrar exactly
// when tr does. remote marks a transport whose non-local destinations
// live behind another transport.
func wrapTransport(tr simnet.Transport, t *tracer, remote bool) simnet.Transport {
	tt := &tracedTransport{Transport: tr, t: t, local: make(map[simnet.NodeID]bool), remote: remote}
	if mr, ok := tr.(simnet.MultiRegistrar); ok {
		return &tracedMultiTransport{tracedTransport: tt, mr: mr}
	}
	return tt
}

func (tt *tracedTransport) Call(from, to simnet.NodeID, msg simnet.Message) (simnet.Message, error) {
	l := tt.t.laneOf(from)
	if l == nil {
		tt.t.countUnknown()
		return tt.Transport.Call(from, to, msg)
	}
	k := kCall
	if tt.remote && !tt.local[to] {
		k = kRemote
	}
	s := l.enter(k)
	resp, err := tt.Transport.Call(from, to, msg)
	l.exit(s, err)
	return resp, err
}

func (tt *tracedTransport) Register(id simnet.NodeID, h simnet.Handler) error {
	tt.local[id] = true
	return tt.Transport.Register(id, func(from simnet.NodeID, msg simnet.Message) (simnet.Message, error) {
		l := tt.t.laneOf(from)
		if l == nil {
			tt.t.countUnknown()
			return h(from, msg)
		}
		s := l.enter(kHandler)
		resp, err := h(from, msg)
		l.exit(s, err)
		return resp, err
	})
}

func (tm *tracedMultiTransport) RegisterMulti(owns func(simnet.NodeID) bool, h simnet.MultiHandler) error {
	return tm.mr.RegisterMulti(owns, func(to, from simnet.NodeID, msg simnet.Message) (simnet.Message, error) {
		l := tm.t.laneOf(from)
		if l == nil {
			tm.t.countUnknown()
			return h(to, from, msg)
		}
		s := l.enter(kHandler)
		resp, err := h(to, from, msg)
		l.exit(s, err)
		return resp, err
	})
}

// tracedOverlay decorates the churn driver's view of the overlay. Its
// writes are roots of their own: they run in churn and maintenance
// processes, not inside any sample.
type tracedOverlay struct {
	churn.Overlay
	lane *lane
}

func (o *tracedOverlay) Join(id, via ring.Point) error {
	s := o.lane.enter(kJoin)
	err := o.Overlay.Join(id, via)
	o.lane.exit(s, err)
	return err
}

func (o *tracedOverlay) Crash(id ring.Point) error {
	s := o.lane.enter(kCrash)
	err := o.Overlay.Crash(id)
	o.lane.exit(s, err)
	return err
}

func (o *tracedOverlay) MaintainNode(id ring.Point, round, fingersPerRound int) {
	s := o.lane.enter(kMaintain)
	o.Overlay.MaintainNode(id, round, fingersPerRound)
	o.lane.exit(s, nil)
}
