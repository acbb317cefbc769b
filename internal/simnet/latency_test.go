package simnet

import (
	"sync"
	"testing"
	"time"
)

// The meter's latency histogram is an obs.Histogram, whose edge cases
// (empty readings, one saturated bucket, zero and negative records)
// obs tests; these tests pin what the meter adds: the constant-latency
// fast lane folded into every reading, and Reset clearing it.

// TestLatencyResetDuringConstLane races Reset against the
// constant-latency fast lane. The invariant under the race: snapshots
// never tear into inconsistency worse than the documented per-counter
// linearizability — counts stay non-negative and within the number of
// charges issued — and after the chargers quiesce, one final Reset
// leaves the meter truly empty (Reset must clear the lane's counter,
// not just the explicit histogram).
func TestLatencyResetDuringConstLane(t *testing.T) {
	t.Parallel()
	var m Meter
	const d = time.Millisecond
	m.ArmConstLatency(d)

	const chargers = 4
	const perCharger = 5_000
	var chargeWG sync.WaitGroup
	chargeWG.Add(chargers)
	for i := 0; i < chargers; i++ {
		go func() {
			defer chargeWG.Done()
			for j := 0; j < perCharger; j++ {
				m.ChargeConstSuccess()
			}
		}()
	}
	stop := make(chan struct{})
	resetDone := make(chan struct{})
	go func() {
		defer close(resetDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			m.Reset()
			l := m.Latency()
			if l.Count < 0 || l.Count > chargers*perCharger {
				t.Errorf("snapshot count %d out of range [0, %d]", l.Count, chargers*perCharger)
				return
			}
			if want := l.Count * int64(d); l.SumNanos != want {
				t.Errorf("const lane sum %d != count %d x %v", l.SumNanos, l.Count, d)
				return
			}
		}
	}()
	chargeWG.Wait()
	close(stop)
	<-resetDone

	// Quiesced: a final reset must leave nothing behind, including the
	// fast lane's derived records.
	m.Reset()
	l := m.Latency()
	if l.Count != 0 || l.SumNanos != 0 {
		t.Fatalf("after quiesced reset: count %d sum %d, want 0", l.Count, l.SumNanos)
	}
	if n := m.Snapshot(); n.Calls != 0 || n.Messages != 0 {
		t.Fatalf("after quiesced reset: snapshot %+v, want zeros", n)
	}
}

// TestLatencyWindowConstLane pins the constant-latency lane inside
// windowed reads: successive Latency readings differenced with Sub
// carry exactly the lane's records of each window.
func TestLatencyWindowConstLane(t *testing.T) {
	t.Parallel()
	var m Meter
	const d = 250 * time.Microsecond
	m.ArmConstLatency(d)
	m.ChargeConstSuccess()
	m.ChargeConstSuccess()
	w := m.Latency()
	if w.Count != 2 || w.SumNanos != 2*int64(d) {
		t.Fatalf("const-lane window: count %d sum %d; want 2 records of %v", w.Count, w.SumNanos, d)
	}
	m.ChargeConstSuccess()
	w = m.Latency().Sub(w)
	if w.Count != 1 || w.SumNanos != int64(d) {
		t.Fatalf("const-lane window 2: count %d sum %d; want 1 record of %v", w.Count, w.SumNanos, d)
	}
}
