// Package simnet provides the simulated message-passing network beneath
// the Chord DHT: synchronous RPC transports with exact message and hop
// accounting, plus fault injection (dead nodes, message drops).
//
// The paper's cost model measures two quantities per operation: latency
// (the number of sequential RPC round trips, since every protocol here
// issues its RPCs one after another) and messages (each RPC is one
// request plus one reply). Meter counts both. Transports that model
// virtual time (internal/sim) additionally record each RPC's simulated
// round-trip duration into the meter's latency histogram, so hop counts
// and wall-clock-style latencies live side by side on one meter.
package simnet

import (
	"math/rand/v2"
	"sync/atomic"
	"time"

	"github.com/dht-sampling/randompeer/internal/obs"
)

// meterShards is the number of independently updated counter shards in a
// Meter. It must be a power of two (shard selection masks a random
// word). 16 shards keep charge contention negligible up to dozens of
// concurrently sampling goroutines.
const meterShards = 16

// meterShard is one stripe of counters, padded out to two cache lines so
// that concurrent writers on different shards never share a line (false
// sharing is exactly the contention the striping exists to remove).
//
// Messages are not stored directly: every completed RPC is exactly one
// request plus one reply (2 messages per call) and every failed RPC
// costs one request, so messages = 2*calls + failures + extraMsg, with
// extraMsg absorbing the rare synthetic Charge whose message count
// deviates from the 2-per-call baseline. Deriving the count at snapshot
// time halves the atomic traffic of the hot charges, which profiling
// showed was a double-digit share of per-sample cost.
type meterShard struct {
	calls    atomic.Int64 // completed RPC round trips (latency proxy)
	extraMsg atomic.Int64 // messages beyond the 2-per-call baseline
	failures atomic.Int64 // RPCs that failed (dropped or dead destination)
	constOK  atomic.Int64 // successes in the constant-latency fast lane
	_        [128 - 4*8]byte
}

// Meter accumulates transport costs. Besides the striped counters it
// carries an optional constant-latency fast lane (ArmConstLatency): a
// time-simulating transport whose every successful RPC would record the
// same round-trip duration charges call count and latency with the one
// atomic add of ChargeConstSuccess — the same per-RPC atomic traffic as
// a transport with no latency accounting at all — and Snapshot, Latency
// and LatencySumNanos fold the lane back into the derived totals.
//
// It is the hot-path cost sink of the
// whole testbed: every h lookup, successor chase and simulated RPC
// charges it, so under a concurrent sampling engine it is written from
// many goroutines at once. Counters are striped across meterShards
// cache-line-padded shards updated with atomics; a charge picks a shard
// with a cheap per-thread random draw, so concurrent writers almost
// never contend on a cache line.
//
// Concurrency contract: all methods are safe for unsynchronized
// concurrent use. Snapshot and Reset sum (respectively zero) the shards
// one atomic word at a time, so a snapshot taken while charges are in
// flight is a linearizable per-counter reading but not an atomic cut
// across counters — exactly the guarantee the previous single-counter
// implementation gave. Measure the cost of a quiesced operation by
// snapshotting before and after it, as all experiments do.
//
// The zero value is ready to use.
type Meter struct {
	shards [meterShards]meterShard
	// constNanos is the armed constant-latency lane's round-trip time
	// (0 = lane unarmed). Written once by ArmConstLatency before the
	// transport goes hot; read by the snapshot methods.
	constNanos atomic.Int64
	lat        obs.Histogram
}

// Cost is an immutable snapshot of a Meter.
type Cost struct {
	Calls    int64
	Messages int64
	Failures int64
}

// shard picks a stripe for the calling goroutine. math/rand/v2's global
// functions draw from a lock-free per-thread generator, so this costs a
// few nanoseconds and never serializes callers.
func (m *Meter) shard() *meterShard {
	return &m.shards[rand.Uint32()&(meterShards-1)]
}

// Snapshot returns the current counter values.
func (m *Meter) Snapshot() Cost {
	var c Cost
	var extra int64
	for i := range m.shards {
		s := &m.shards[i]
		c.Calls += s.calls.Load() + s.constOK.Load()
		extra += s.extraMsg.Load()
		c.Failures += s.failures.Load()
	}
	c.Messages = 2*c.Calls + c.Failures + extra
	return c
}

// constLaneCount sums the constant-latency lane's success counter.
func (m *Meter) constLaneCount() int64 {
	var n int64
	for i := range m.shards {
		n += m.shards[i].constOK.Load()
	}
	return n
}

// ArmConstLatency arms the constant-latency fast lane: every subsequent
// ChargeConstSuccess records one completed RPC of round-trip duration d
// with a single atomic add. Arm it once, before the meter goes hot;
// both lanes may be used side by side (a transport falls back to
// ChargeSuccess+RecordLatency for calls the fast lane cannot charge,
// such as failures).
func (m *Meter) ArmConstLatency(d time.Duration) {
	if d < 0 {
		d = 0
	}
	m.constNanos.Store(int64(d))
}

// ChargeConstSuccess records one completed RPC whose round trip took
// exactly the armed constant latency: one round trip, two messages, one
// latency record — all in a single atomic add, derived at snapshot
// time.
func (m *Meter) ChargeConstSuccess() {
	m.shard().constOK.Add(1)
}

// Charge records an arbitrary cost. It is used by synthetic backends
// (such as the oracle DHT) that model rather than execute RPCs. The
// common shape — messages exactly twice calls, the request+reply cost
// every synthetic backend charges — costs a single atomic add.
func (m *Meter) Charge(calls, messages int64) {
	s := m.shard()
	s.calls.Add(calls)
	if extra := messages - 2*calls; extra != 0 {
		s.extraMsg.Add(extra)
	}
}

// ChargeSuccess records one completed RPC: one round trip, two messages.
// It is called by every transport implementation (including ones outside
// this package, such as the virtual-clock transport in internal/sim).
func (m *Meter) ChargeSuccess() {
	m.shard().calls.Add(1)
}

// ChargeFailure records a failed RPC attempt. The request message still
// crossed the network (or was lost in it), so it is counted (at snapshot
// time: each failure contributes one message).
func (m *Meter) ChargeFailure() {
	m.shard().failures.Add(1)
}

// Reset zeroes all counters, including the latency histogram.
func (m *Meter) Reset() {
	for i := range m.shards {
		s := &m.shards[i]
		s.calls.Store(0)
		s.extraMsg.Store(0)
		s.failures.Store(0)
		s.constOK.Store(0)
	}
	m.lat.Reset()
}

// Sub returns the component-wise difference c - prev, used to measure the
// cost of a single operation between two snapshots.
func (c Cost) Sub(prev Cost) Cost {
	return Cost{
		Calls:    c.Calls - prev.Calls,
		Messages: c.Messages - prev.Messages,
		Failures: c.Failures - prev.Failures,
	}
}
