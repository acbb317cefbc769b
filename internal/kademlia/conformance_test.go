package kademlia_test

import (
	"errors"
	"math/rand/v2"
	"testing"
	"time"

	"github.com/dht-sampling/randompeer/internal/dht"
	"github.com/dht-sampling/randompeer/internal/dht/dhttest"
	"github.com/dht-sampling/randompeer/internal/kademlia"
	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/sim"
	"github.com/dht-sampling/randompeer/internal/simnet"
	"github.com/dht-sampling/randompeer/internal/wire"
)

// TestKademliaConformance runs the shared DHT conformance suite
// against the Kademlia network: the sampler-facing (h, next) contract
// holds on a prefix-routing overlay whose metric is not the clockwise
// circle, which is the substrate-independence claim made executable.
func TestKademliaConformance(t *testing.T) {
	t.Parallel()
	dhttest.Run(t, "kademlia", func(points []ring.Point) (dht.DHT, error) {
		net, err := kademlia.BuildStatic(kademlia.Config{}, simnet.NewDirect(), points)
		if err != nil {
			return nil, err
		}
		return net.AsDHT(points[0])
	})
}

// TestKademliaConformanceSimTransport re-runs the suite over the
// virtual-clock transport: simulated time must not change any
// sampler-facing behaviour, only add latency accounting.
func TestKademliaConformanceSimTransport(t *testing.T) {
	t.Parallel()
	dhttest.Run(t, "kademlia-sim", func(points []ring.Point) (dht.DHT, error) {
		tr := sim.NewTransport(sim.WithModel(sim.Constant{RTT: time.Millisecond}))
		net, err := kademlia.BuildStatic(kademlia.Config{}, tr, points)
		if err != nil {
			return nil, err
		}
		return net.AsDHT(points[0])
	})
}

// TestKademliaConformanceWireTransport re-runs the suite over real
// TCP sockets: the overlay is partitioned across two wire transports
// (the caller's node on one, every other node on the other), so every
// FindClosest iteration is an HTTP RPC over loopback. The
// sampler-facing contract — and the metered costs the suite checks —
// must be identical to the in-process transports.
func TestKademliaConformanceWireTransport(t *testing.T) {
	t.Parallel()
	dhttest.Run(t, "kademlia-wire", func(points []ring.Point) (dht.DHT, error) {
		server := wire.NewTransport(wire.WithJitterSeed(1))
		if err := server.Start("127.0.0.1:0"); err != nil {
			return nil, err
		}
		t.Cleanup(func() { server.Close() })
		client := wire.NewTransport(wire.WithJitterSeed(2))
		if err := client.Start("127.0.0.1:0"); err != nil {
			return nil, err
		}
		t.Cleanup(func() { client.Close() })
		local := points[0]
		for _, p := range points {
			if p == local {
				server.SetRoute(simnet.NodeID(p), client.Addr())
			} else {
				client.SetRoute(simnet.NodeID(p), server.Addr())
			}
		}
		if _, err := kademlia.BuildStaticPartition(kademlia.Config{}, server, points,
			func(p ring.Point) bool { return p != local }); err != nil {
			return nil, err
		}
		net, err := kademlia.BuildStaticPartition(kademlia.Config{}, client, points,
			func(p ring.Point) bool { return p == local })
		if err != nil {
			return nil, err
		}
		return net.AsDHT(local)
	})
}

// TestKademliaConformanceSmallK re-runs the suite with tiny buckets
// and minimal parallelism: correctness must not depend on generous
// routing state, only cost does.
func TestKademliaConformanceSmallK(t *testing.T) {
	t.Parallel()
	dhttest.Run(t, "kademlia-k2", func(points []ring.Point) (dht.DHT, error) {
		net, err := kademlia.BuildStatic(kademlia.Config{BucketSize: 2, Alpha: 1}, simnet.NewDirect(), points)
		if err != nil {
			return nil, err
		}
		return net.AsDHT(points[0])
	})
}

// TestKademliaNextUnknownPeerClass checks that next on a point no peer
// occupies fails with both the DHT contract's dht.ErrUnknownPeer and
// the transport's "unknown" error class, so failure accounting files it
// as an unknown destination rather than an application error.
func TestKademliaNextUnknownPeerClass(t *testing.T) {
	t.Parallel()
	r, err := ring.Generate(rand.New(rand.NewPCG(61, 62)), 16)
	if err != nil {
		t.Fatal(err)
	}
	net, err := kademlia.BuildStatic(kademlia.Config{}, simnet.NewDirect(), r.Points())
	if err != nil {
		t.Fatal(err)
	}
	d, err := net.AsDHT(r.At(0))
	if err != nil {
		t.Fatal(err)
	}
	_, err = d.Next(dht.Peer{Point: dhttest.NonMember(r), Owner: -1})
	if !errors.Is(err, dht.ErrUnknownPeer) {
		t.Errorf("err = %v, want dht.ErrUnknownPeer", err)
	}
	if got := simnet.ErrorClass(err); got != "unknown" {
		t.Errorf("ErrorClass = %q, want \"unknown\" (err = %v)", got, err)
	}
}
