package simnet

import (
	"time"

	"github.com/dht-sampling/randompeer/internal/obs"
)

// Virtual-time latency accounting. The counters in Meter measure cost in
// RPC round trips; transports that simulate time (internal/sim) also
// know how long each round trip took on the virtual clock. RecordLatency
// folds those durations into the Meter's obs.Histogram, so experiments
// snapshot hop counts and latencies through one object with the same
// before/after discipline, and a registry exposes the meter's histogram
// by passing Latency to obs.Registry.HistogramFunc.

// RecordLatency records one RPC round trip of virtual duration d.
// Negative durations are clamped to zero. Safe for concurrent use.
func (m *Meter) RecordLatency(d time.Duration) { m.lat.Observe(d) }

// LatencySumNanos returns the total recorded virtual time without
// snapshotting the buckets — the read behind free-running virtual
// clocks (internal/sim derives "now" from it: with one record per RPC,
// total recorded latency is exactly the sequential virtual time). It
// includes the constant-latency fast lane (count x armed constant).
func (m *Meter) LatencySumNanos() int64 {
	sum := m.lat.SumNanos()
	if c := m.constNanos.Load(); c > 0 {
		sum += c * m.constLaneCount()
	}
	return sum
}

// Latency returns the current latency histogram. Like Cost snapshots, a
// reading taken while records are in flight is linearizable per counter
// but not an atomic cut across them; measure quiesced operations with a
// before/after pair and HistSnapshot.Sub.
func (m *Meter) Latency() obs.HistSnapshot {
	l := m.lat.Snapshot()
	// Fold in the constant-latency fast lane: n records of exactly the
	// armed constant.
	if c := m.constNanos.Load(); c >= 0 {
		if n := m.constLaneCount(); n > 0 {
			l.SumNanos += c * n
			l.Buckets[obs.BucketOf(time.Duration(c))] += n
			l.Count += n
		}
	}
	return l
}
