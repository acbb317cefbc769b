package simnet

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
)

// echoHandler replies with its request payload.
func echoHandler(_ NodeID, msg Message) (Message, error) {
	return msg, nil
}

// transports under test, constructed fresh per case.
func newTransports() map[string]func() Transport {
	return map[string]func() Transport{
		"direct": func() Transport { return NewDirect() },
	}
}

func TestTransportRoundTrip(t *testing.T) {
	t.Parallel()
	for name, mk := range newTransports() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			tr := mk()
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
	}
}

func TestTransportUnknownNode(t *testing.T) {
	t.Parallel()
	for name, mk := range newTransports() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			tr := mk()
			defer tr.Close()
			if _, err := tr.Call(1, 99, "x"); !errors.Is(err, ErrUnknownNode) {
				t.Errorf("err = %v, want ErrUnknownNode", err)
			}
			if got := tr.Meter().Snapshot().Failures; got != 1 {
				t.Errorf("failures = %d, want 1", got)
			}
		})
	}
}

func TestTransportDuplicateRegister(t *testing.T) {
	t.Parallel()
	for name, mk := range newTransports() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			tr := mk()
			defer tr.Close()
			if err := tr.Register(1, echoHandler); err != nil {
				t.Fatal(err)
			}
			if err := tr.Register(1, echoHandler); !errors.Is(err, ErrDuplicateID) {
				t.Errorf("err = %v, want ErrDuplicateID", err)
			}
			if err := tr.Register(2, nil); err == nil {
				t.Error("nil handler should fail")
			}
		})
	}
}

func TestTransportDeregister(t *testing.T) {
	t.Parallel()
	for name, mk := range newTransports() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			tr := mk()
			defer tr.Close()
			if err := tr.Register(1, echoHandler); err != nil {
				t.Fatal(err)
			}
			tr.Deregister(1)
			if _, err := tr.Call(2, 1, "x"); !errors.Is(err, ErrUnknownNode) {
				t.Errorf("err = %v, want ErrUnknownNode", err)
			}
			// Re-registering after deregister succeeds.
			if err := tr.Register(1, echoHandler); err != nil {
				t.Errorf("re-register: %v", err)
			}
		})
	}
}

func TestTransportClose(t *testing.T) {
	t.Parallel()
	for name, mk := range newTransports() {
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
				t.Errorf("Call after close: err = %v, want ErrClosed", err)
			}
			if err := tr.Register(3, echoHandler); !errors.Is(err, ErrClosed) {
				t.Errorf("Register after close: err = %v, want ErrClosed", err)
			}
		})
	}
}

func TestTransportHandlerError(t *testing.T) {
	t.Parallel()
	sentinel := errors.New("handler exploded")
	for name, mk := range newTransports() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			tr := mk()
			defer tr.Close()
			err := tr.Register(1, func(NodeID, Message) (Message, error) {
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
}

func TestFaultsDeadNode(t *testing.T) {
	t.Parallel()
	faults := NewFaults(nil)
	tr := NewDirect(WithFaults(faults))
	defer tr.Close()
	if err := tr.Register(1, echoHandler); err != nil {
		t.Fatal(err)
	}
	faults.SetDead(1, true)
	if _, err := tr.Call(2, 1, "x"); !errors.Is(err, ErrNodeDead) {
		t.Errorf("err = %v, want ErrNodeDead", err)
	}
	faults.SetDead(1, false)
	if _, err := tr.Call(2, 1, "x"); err != nil {
		t.Errorf("revived node call failed: %v", err)
	}
}

func TestFaultsDropRate(t *testing.T) {
	t.Parallel()
	faults := NewFaults(rand.New(rand.NewPCG(1, 1)))
	faults.SetDropRate(0.5)
	tr := NewDirect(WithFaults(faults))
	defer tr.Close()
	if err := tr.Register(1, echoHandler); err != nil {
		t.Fatal(err)
	}
	drops := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		if _, err := tr.Call(2, 1, "x"); errors.Is(err, ErrDropped) {
			drops++
		}
	}
	if drops < trials/3 || drops > 2*trials/3 {
		t.Errorf("drops = %d out of %d, want about half", drops, trials)
	}
	// Clamping.
	faults.SetDropRate(-1)
	if _, err := tr.Call(2, 1, "x"); err != nil {
		t.Errorf("rate clamped to 0 but call failed: %v", err)
	}
}

func TestDirectConcurrentCalls(t *testing.T) {
	t.Parallel()
	tr := NewDirect()
	defer tr.Close()
	for id := NodeID(0); id < 8; id++ {
		if err := tr.Register(id, echoHandler); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	const perWorker = 500
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				to := NodeID(i % 8)
				if _, err := tr.Call(NodeID(w), to, i); err != nil {
					t.Errorf("call failed: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	cost := tr.Meter().Snapshot()
	if cost.Calls != 8*perWorker {
		t.Errorf("calls = %d, want %d", cost.Calls, 8*perWorker)
	}
}

func TestMeterChargeAndReset(t *testing.T) {
	t.Parallel()
	var m Meter
	m.Charge(3, 7)
	c := m.Snapshot()
	if c.Calls != 3 || c.Messages != 7 {
		t.Errorf("snapshot = %+v", c)
	}
	delta := m.Snapshot().Sub(c)
	if delta.Calls != 0 || delta.Messages != 0 {
		t.Errorf("delta = %+v, want zero", delta)
	}
	m.Reset()
	if c := m.Snapshot(); c.Calls != 0 || c.Messages != 0 || c.Failures != 0 {
		t.Errorf("after reset = %+v", c)
	}
}

func TestMeterConcurrentCharge(t *testing.T) {
	t.Parallel()
	var m Meter
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				m.Charge(1, 2)
			}
		}()
	}
	wg.Wait()
	c := m.Snapshot()
	if c.Calls != 8000 || c.Messages != 16000 {
		t.Errorf("concurrent charge lost updates: %+v", c)
	}
}

func ExampleDirect() {
	tr := NewDirect()
	defer tr.Close()
	_ = tr.Register(7, func(from NodeID, msg Message) (Message, error) {
		return fmt.Sprintf("pong from 7 to %d", from), nil
	})
	resp, _ := tr.Call(3, 7, "ping")
	fmt.Println(resp)
	// Output: pong from 7 to 3
}
