package simnet

import (
	"errors"
	"fmt"
	"testing"
)

// This file covers the adversarial fault family — named partitions —
// and the Byzantine interceptor hook on the in-process transport. The sim.Transport
// equivalents (virtual time, heal events on the kernel) live in
// internal/sim.

func TestFaultsPartition(t *testing.T) {
	t.Parallel()
	for _, name := range []string{"direct"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			faults := NewFaults(nil)
			tr := faultTransports(faults)[name]
			defer tr.Close()
			for id := NodeID(1); id <= 4; id++ {
				if err := tr.Register(id, echoHandler); err != nil {
					t.Fatal(err)
				}
			}
			// Cut {1,2} from {3}; node 4 is in no group and unaffected.
			faults.Partition("split", []NodeID{1, 2}, []NodeID{3})
			for _, c := range []struct {
				from, to NodeID
				blocked  bool
			}{
				{1, 3, true}, {3, 1, true}, {2, 3, true},
				{1, 2, false}, {4, 1, false}, {4, 3, false}, {3, 4, false},
			} {
				_, err := tr.Call(c.from, c.to, "x")
				if c.blocked && !errors.Is(err, ErrPartitioned) {
					t.Errorf("%d->%d: err = %v, want ErrPartitioned", c.from, c.to, err)
				}
				if !c.blocked && err != nil {
					t.Errorf("%d->%d: err = %v, want nil", c.from, c.to, err)
				}
				if got := faults.Partitioned(c.from, c.to); got != c.blocked {
					t.Errorf("Partitioned(%d,%d) = %v, want %v", c.from, c.to, got, c.blocked)
				}
			}
			// Healing restores full connectivity.
			faults.Heal("split")
			if _, err := tr.Call(1, 3, "x"); err != nil {
				t.Errorf("after heal: %v", err)
			}
			// Healing an unknown partition is a no-op.
			faults.Heal("no-such-partition")
		})
	}
}

// TestFaultsPartitionsCompose: two named partitions block independently;
// an RPC passes only when no installed partition separates it.
func TestFaultsPartitionsCompose(t *testing.T) {
	t.Parallel()
	faults := NewFaults(nil)
	faults.Partition("a", []NodeID{1}, []NodeID{2})
	faults.Partition("b", []NodeID{1}, []NodeID{3})
	if err := faults.Check(1, 2); !errors.Is(err, ErrPartitioned) {
		t.Errorf("partition a: %v", err)
	}
	if err := faults.Check(1, 3); !errors.Is(err, ErrPartitioned) {
		t.Errorf("partition b: %v", err)
	}
	faults.Heal("a")
	if err := faults.Check(1, 2); err != nil {
		t.Errorf("after healing a: %v", err)
	}
	if err := faults.Check(1, 3); !errors.Is(err, ErrPartitioned) {
		t.Errorf("b must survive healing a: %v", err)
	}
	// Replacing a partition by name drops its old groups.
	faults.Partition("b", []NodeID{2}, []NodeID{3})
	if err := faults.Check(1, 3); err != nil {
		t.Errorf("after replacing b: %v", err)
	}
	if err := faults.Check(2, 3); !errors.Is(err, ErrPartitioned) {
		t.Errorf("replaced b: %v", err)
	}
}

// TestInterceptorBothTransports: an armed interceptor can rewrite a
// reply or inject a failure; disarming restores honest delivery.
func TestInterceptorBothTransports(t *testing.T) {
	t.Parallel()
	type iTransport interface {
		Transport
		Interceptable
	}
	for name, mk := range map[string]func() iTransport{
		"direct": func() iTransport { return NewDirect() },
	} {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			tr := mk()
			defer tr.Close()
			if err := tr.Register(1, echoHandler); err != nil {
				t.Fatal(err)
			}
			// Rewrite: node 1's replies to node 2 are forged.
			tr.SetInterceptor(func(from, to NodeID, msg, resp Message, err error) (Message, error) {
				if from == 2 && to == 1 {
					return "forged", nil
				}
				return resp, err
			})
			resp, err := tr.Call(2, 1, "honest")
			if err != nil || resp != "forged" {
				t.Errorf("intercepted call = (%v, %v), want (forged, nil)", resp, err)
			}
			resp, err = tr.Call(3, 1, "honest")
			if err != nil || resp != "honest" {
				t.Errorf("unintercepted call = (%v, %v), want (honest, nil)", resp, err)
			}
			// Inject a failure: the meter must charge it as a failure.
			before := tr.Meter().Snapshot().Failures
			tr.SetInterceptor(func(from, to NodeID, msg, resp Message, err error) (Message, error) {
				return nil, fmt.Errorf("censored")
			})
			if _, err := tr.Call(2, 1, "x"); err == nil {
				t.Error("injected failure did not surface")
			}
			if got := tr.Meter().Snapshot().Failures; got != before+1 {
				t.Errorf("failures = %d, want %d", got, before+1)
			}
			// Disarm: honest again.
			tr.SetInterceptor(nil)
			if resp, err := tr.Call(2, 1, "x"); err != nil || resp != "x" {
				t.Errorf("disarmed call = (%v, %v), want (x, nil)", resp, err)
			}
		})
	}
}

// TestFaultsCheckFastPath: an attached-but-empty plan must not disturb
// calls, and emptying a plan re-disarms it.
func TestFaultsCheckFastPath(t *testing.T) {
	t.Parallel()
	faults := NewFaults(nil)
	if faults.active.Load() {
		t.Error("fresh plan is active")
	}
	faults.SetDropRate(0.5)
	if !faults.active.Load() {
		t.Error("plan with a drop rate is inactive")
	}
	faults.SetDropRate(0)
	if faults.active.Load() {
		t.Error("cleared plan still active")
	}
	faults.Partition("p", []NodeID{1}, []NodeID{2})
	if !faults.active.Load() {
		t.Error("partitioned plan is inactive")
	}
	faults.Heal("p")
	if faults.active.Load() {
		t.Error("healed plan still active")
	}
}
