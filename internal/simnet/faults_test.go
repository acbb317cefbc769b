package simnet

import (
	"errors"
	"math/rand/v2"
	"testing"
)

// This file covers every fault-injection error path — ErrNodeDead,
// ErrDropped, ErrClosed — on the transports directly, rather than
// incidentally through the churn experiments.

// faultTransports builds each transport kind wired to the given plan.
func faultTransports(f *Faults) map[string]Transport {
	return map[string]Transport{
		"direct": NewDirect(WithFaults(f)),
	}
}

func TestFaultsDeadNodeBothTransports(t *testing.T) {
	t.Parallel()
	for _, name := range []string{"direct"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			faults := NewFaults(nil)
			tr := faultTransports(faults)[name]
			defer tr.Close()
			if err := tr.Register(1, echoHandler); err != nil {
				t.Fatal(err)
			}
			faults.SetDead(1, true)
			_, err := tr.Call(2, 1, "x")
			if !errors.Is(err, ErrNodeDead) {
				t.Fatalf("err = %v, want ErrNodeDead", err)
			}
			// The failed attempt is charged: one failure, one message
			// (the request), no completed call.
			cost := tr.Meter().Snapshot()
			if cost.Failures != 1 || cost.Messages != 1 || cost.Calls != 0 {
				t.Errorf("cost after dead call = %+v, want 1 failure / 1 message / 0 calls", cost)
			}
			// The handler must never have run: revive and verify the
			// node answers normally.
			faults.SetDead(1, false)
			if _, err := tr.Call(2, 1, "x"); err != nil {
				t.Errorf("revived node: %v", err)
			}
		})
	}
}

func TestFaultsDropRateBothTransports(t *testing.T) {
	t.Parallel()
	for _, name := range []string{"direct"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			faults := NewFaults(rand.New(rand.NewPCG(7, 7)))
			faults.SetDropRate(1) // certain drop
			tr := faultTransports(faults)[name]
			defer tr.Close()
			if err := tr.Register(1, echoHandler); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				if _, err := tr.Call(2, 1, i); !errors.Is(err, ErrDropped) {
					t.Fatalf("call %d: err = %v, want ErrDropped", i, err)
				}
			}
			if got := tr.Meter().Snapshot().Failures; got != 5 {
				t.Errorf("failures = %d, want 5", got)
			}
			// Clamp above 1 still means certain drop; rate 0 lets
			// everything through again.
			faults.SetDropRate(2)
			if _, err := tr.Call(2, 1, "x"); !errors.Is(err, ErrDropped) {
				t.Errorf("rate clamped to 1: err = %v, want ErrDropped", err)
			}
			faults.SetDropRate(0)
			if _, err := tr.Call(2, 1, "x"); err != nil {
				t.Errorf("rate 0: %v", err)
			}
		})
	}
}

// TestFaultsDropRateNilRNG: a plan built with a nil generator lazily
// seeds a deterministic PCG, so a configured drop rate always drops —
// NewFaults(nil) + SetDropRate silently dropping nothing was a bug.
func TestFaultsDropRateNilRNG(t *testing.T) {
	t.Parallel()
	faults := NewFaults(nil)
	faults.SetDropRate(1)
	tr := NewDirect(WithFaults(faults))
	defer tr.Close()
	if err := tr.Register(1, echoHandler); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Call(2, 1, "x"); !errors.Is(err, ErrDropped) {
		t.Errorf("nil-rng plan with rate 1: err = %v, want ErrDropped", err)
	}
	// Fractional rates must drop too, and reproducibly: two fresh
	// nil-rng plans see identical decision streams.
	decisions := func() []bool {
		f := NewFaults(nil)
		f.SetDropRate(0.5)
		out := make([]bool, 64)
		for i := range out {
			out[i] = f.Check(1, 2) != nil
		}
		return out
	}
	a, b := decisions(), decisions()
	var drops int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs between identical plans", i)
		}
		if a[i] {
			drops++
		}
	}
	if drops == 0 || drops == len(a) {
		t.Errorf("rate 0.5 dropped %d/%d, want a mix", drops, len(a))
	}
}

// TestFaultsCheckDirectly exercises the Check method itself, including
// the nil-plan fast path transports rely on.
func TestFaultsCheckDirectly(t *testing.T) {
	t.Parallel()
	var nilPlan *Faults
	if err := nilPlan.Check(0, 1); err != nil {
		t.Errorf("nil plan injected %v", err)
	}
	faults := NewFaults(nil)
	if err := faults.Check(0, 1); err != nil {
		t.Errorf("empty plan injected %v", err)
	}
	faults.SetDead(1, true)
	if err := faults.Check(0, 1); !errors.Is(err, ErrNodeDead) {
		t.Errorf("Check(dead) = %v, want ErrNodeDead", err)
	}
	if err := faults.Check(0, 2); err != nil {
		t.Errorf("Check(other) = %v, want nil", err)
	}
}

func TestErrClosedBothTransports(t *testing.T) {
	t.Parallel()
	for name, mk := range newTransports() {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			tr := mk()
			if err := tr.Register(1, echoHandler); err != nil {
				t.Fatal(err)
			}
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := tr.Call(2, 1, "x"); !errors.Is(err, ErrClosed) {
				t.Errorf("Call: err = %v, want ErrClosed", err)
			}
			if err := tr.Register(9, echoHandler); !errors.Is(err, ErrClosed) {
				t.Errorf("Register: err = %v, want ErrClosed", err)
			}
			// Deregister after close must not panic.
			tr.Deregister(1)
		})
	}
}
