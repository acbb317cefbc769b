package sim

import (
	"errors"
	"math/rand/v2"
	"testing"
	"time"

	"github.com/dht-sampling/randompeer/internal/simnet"
)

func echoHandler(_ simnet.NodeID, msg simnet.Message) (simnet.Message, error) {
	return msg, nil
}

// TestTransportContract mirrors the simnet transport tests: the
// virtual-clock transport must honor the same register/call/close
// contract as Direct.
func TestTransportContract(t *testing.T) {
	t.Run("roundTrip", func(t *testing.T) {
		tr := NewTransport()
		defer tr.Close()
		if err := tr.Register(1, echoHandler); err != nil {
			t.Fatal(err)
		}
		resp, err := tr.Call(2, 1, "hello")
		if err != nil {
			t.Fatal(err)
		}
		if resp != "hello" {
			t.Errorf("resp = %v, want hello", resp)
		}
		cost := tr.Meter().Snapshot()
		if cost.Calls != 1 || cost.Messages != 2 {
			t.Errorf("cost = %+v, want 1 call / 2 messages", cost)
		}
	})
	t.Run("unknownNode", func(t *testing.T) {
		tr := NewTransport()
		defer tr.Close()
		if _, err := tr.Call(1, 99, "x"); !errors.Is(err, simnet.ErrUnknownNode) {
			t.Errorf("err = %v, want ErrUnknownNode", err)
		}
		if got := tr.Meter().Snapshot().Failures; got != 1 {
			t.Errorf("failures = %d, want 1", got)
		}
	})
	t.Run("duplicateRegister", func(t *testing.T) {
		tr := NewTransport()
		defer tr.Close()
		if err := tr.Register(1, echoHandler); err != nil {
			t.Fatal(err)
		}
		if err := tr.Register(1, echoHandler); !errors.Is(err, simnet.ErrDuplicateID) {
			t.Errorf("err = %v, want ErrDuplicateID", err)
		}
		if err := tr.Register(2, nil); err == nil {
			t.Error("nil handler should fail")
		}
	})
	t.Run("deregister", func(t *testing.T) {
		tr := NewTransport()
		defer tr.Close()
		if err := tr.Register(1, echoHandler); err != nil {
			t.Fatal(err)
		}
		tr.Deregister(1)
		if _, err := tr.Call(2, 1, "x"); !errors.Is(err, simnet.ErrUnknownNode) {
			t.Errorf("err = %v, want ErrUnknownNode", err)
		}
		if err := tr.Register(1, echoHandler); err != nil {
			t.Errorf("re-register: %v", err)
		}
	})
	t.Run("close", func(t *testing.T) {
		tr := NewTransport()
		if err := tr.Register(1, echoHandler); err != nil {
			t.Fatal(err)
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Call(2, 1, "x"); !errors.Is(err, simnet.ErrClosed) {
			t.Errorf("Call after close: err = %v, want ErrClosed", err)
		}
		if err := tr.Register(3, echoHandler); !errors.Is(err, simnet.ErrClosed) {
			t.Errorf("Register after close: err = %v, want ErrClosed", err)
		}
	})
	t.Run("handlerError", func(t *testing.T) {
		sentinel := errors.New("handler exploded")
		tr := NewTransport()
		defer tr.Close()
		err := tr.Register(1, func(simnet.NodeID, simnet.Message) (simnet.Message, error) {
			return nil, sentinel
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Call(2, 1, "x"); !errors.Is(err, sentinel) {
			t.Errorf("err = %v, want wrapped sentinel", err)
		}
	})
}

func TestTransportFreeRunningClock(t *testing.T) {
	tr := NewTransport(WithModel(Constant{RTT: 2 * time.Millisecond}))
	defer tr.Close()
	if err := tr.Register(1, echoHandler); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := tr.Call(2, 1, i); err != nil {
			t.Fatal(err)
		}
	}
	if got := tr.Now(); got != 10*time.Millisecond {
		t.Errorf("clock = %v, want 10ms (5 calls x 2ms)", got)
	}
	lat := tr.Meter().Latency()
	if lat.Count != 5 {
		t.Errorf("latency count = %d, want 5", lat.Count)
	}
	if lat.Mean() != 2*time.Millisecond {
		t.Errorf("latency mean = %v, want 2ms", lat.Mean())
	}
}

func TestTransportKernelModeInterleavesCalls(t *testing.T) {
	k := NewKernel(1)
	tr := NewTransport(WithKernel(k), WithModel(Constant{RTT: 10 * time.Millisecond}))
	defer tr.Close()
	if err := tr.Register(1, echoHandler); err != nil {
		t.Fatal(err)
	}
	var order []string
	k.Go("caller", func() {
		if _, err := tr.Call(2, 1, "x"); err != nil {
			t.Error(err)
			return
		}
		order = append(order, "call-done")
	})
	k.At(5*time.Millisecond, "mid-flight", func() { order = append(order, "mid-flight") })
	k.Run()
	if len(order) != 2 || order[0] != "mid-flight" || order[1] != "call-done" {
		t.Errorf("order = %v, want [mid-flight call-done]", order)
	}
	if k.Now() != 10*time.Millisecond {
		t.Errorf("clock = %v, want 10ms", k.Now())
	}
}

func TestTransportCrashInFlightFailsCall(t *testing.T) {
	k := NewKernel(1)
	tr := NewTransport(WithKernel(k), WithModel(Constant{RTT: 10 * time.Millisecond}))
	defer tr.Close()
	if err := tr.Register(1, echoHandler); err != nil {
		t.Fatal(err)
	}
	var callErr error
	k.Go("caller", func() {
		_, callErr = tr.Call(2, 1, "x")
	})
	// The destination crashes while the message is in flight.
	k.At(5*time.Millisecond, "crash", func() { tr.Deregister(1) })
	k.Run()
	if !errors.Is(callErr, simnet.ErrUnknownNode) {
		t.Errorf("in-flight crash: err = %v, want ErrUnknownNode", callErr)
	}
}

func TestTransportFaultInjection(t *testing.T) {
	faults := simnet.NewFaults(rand.New(rand.NewPCG(1, 1)))
	tr := NewTransport(WithFaults(faults))
	defer tr.Close()
	if err := tr.Register(1, echoHandler); err != nil {
		t.Fatal(err)
	}
	faults.SetDead(1, true)
	if _, err := tr.Call(2, 1, "x"); !errors.Is(err, simnet.ErrNodeDead) {
		t.Errorf("err = %v, want ErrNodeDead", err)
	}
	faults.SetDead(1, false)
	faults.SetDropRate(1)
	if _, err := tr.Call(2, 1, "x"); !errors.Is(err, simnet.ErrDropped) {
		t.Errorf("err = %v, want ErrDropped", err)
	}
	faults.SetDropRate(0)
	if _, err := tr.Call(2, 1, "x"); err != nil {
		t.Errorf("fault-free call failed: %v", err)
	}
	// Failed calls still consumed virtual time (the message traveled).
	if lat := tr.Meter().Latency(); lat.Count != 3 {
		t.Errorf("latency records = %d, want 3 (failures count)", lat.Count)
	}
}

func TestTransportTimedFaultSchedule(t *testing.T) {
	k := NewKernel(1)
	faults := simnet.NewFaults(nil)
	tr := NewTransport(WithKernel(k), WithFaults(faults), WithModel(Constant{RTT: time.Millisecond}))
	defer tr.Close()
	if err := tr.Register(1, echoHandler); err != nil {
		t.Fatal(err)
	}
	var errs, oks int
	k.Go("caller", func() {
		for i := 0; i < 10; i++ {
			if _, err := tr.Call(2, 1, i); err != nil {
				errs++
			} else {
				oks++
			}
		}
	})
	// Node 1 is dead between t=2.5ms and t=6.5ms: calls 3..6 (landing at
	// 3,4,5,6ms) fail, the rest succeed.
	k.At(2500*time.Microsecond, "kill", func() { faults.SetDead(1, true) })
	k.At(6500*time.Microsecond, "revive", func() { faults.SetDead(1, false) })
	k.Run()
	if errs != 4 || oks != 6 {
		t.Errorf("errs = %d, oks = %d, want 4 and 6", errs, oks)
	}
}

func TestLatencyHistogramQuantiles(t *testing.T) {
	var m simnet.Meter
	for i := 1; i <= 1000; i++ {
		m.RecordLatency(time.Duration(i) * time.Millisecond)
	}
	lat := m.Latency()
	if lat.Count != 1000 {
		t.Fatalf("count = %d", lat.Count)
	}
	if mean := lat.Mean(); mean != 500500*time.Microsecond {
		t.Errorf("mean = %v, want 500.5ms", mean)
	}
	p50 := lat.Quantile(0.5)
	if p50 < 250*time.Millisecond || p50 > 1000*time.Millisecond {
		t.Errorf("p50 = %v, want within a bucket of 500ms", p50)
	}
	p99 := lat.Quantile(0.99)
	if p99 < 512*time.Millisecond || p99 > 1100*time.Millisecond {
		t.Errorf("p99 = %v, want near 990ms (bucket resolution)", p99)
	}
	if q0 := lat.Quantile(0); q0 > lat.Quantile(1) {
		t.Errorf("quantiles not monotone: q0 %v > q1 %v", q0, lat.Quantile(1))
	}
	// Sub removes a prefix.
	var m2 simnet.Meter
	m2.RecordLatency(time.Millisecond)
	snap := m2.Latency()
	m2.RecordLatency(3 * time.Millisecond)
	delta := m2.Latency().Sub(snap)
	if delta.Count != 1 || delta.Mean() != 3*time.Millisecond {
		t.Errorf("delta = count %d mean %v, want 1 and 3ms", delta.Count, delta.Mean())
	}
}
