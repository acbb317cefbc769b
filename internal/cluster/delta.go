package cluster

import (
	"time"

	"github.com/dht-sampling/randompeer/internal/obs"
	"github.com/dht-sampling/randompeer/internal/slo"
	"github.com/dht-sampling/randompeer/internal/wire"
)

// Windowed fleet metrics: a ClusterScrape is one point-in-time capture
// of every daemon's /metrics exposition, and Delta turns two captures
// into per-window increases — the wall-clock counterpart of the
// virtual-time recorder in internal/load, built from the same
// obs.RegistrySnapshot.Delta. Counter and histogram deltas clamp at
// zero per daemon, so a restarted daemon (whose counters reset) reads
// as no progress for that window instead of dragging the fleet total
// negative.

// ClusterScrape is one fleet-wide metrics capture, daemon-indexed.
type ClusterScrape struct {
	// Taken is the wall-clock capture time.
	Taken time.Time
	// Daemons holds each daemon's scraped registry, in daemon order.
	Daemons []obs.RegistrySnapshot
}

// Scrape captures every daemon's /metrics exposition with one
// timestamp, ready for windowed Delta computation.
func (c *Cluster) Scrape() (*ClusterScrape, error) {
	exps, err := c.ScrapeAll()
	if err != nil {
		return nil, err
	}
	s := &ClusterScrape{Taken: time.Now(), Daemons: make([]obs.RegistrySnapshot, len(exps))}
	for i, e := range exps {
		s.Daemons[i] = e.Snapshot()
	}
	return s, nil
}

// ScrapeDelta is the fleet-wide change between two scrapes: each
// daemon's obs.RegistrySnapshot.Delta, summed across daemons series by
// series. Counters and histograms sum their per-daemon increases,
// gauges their latest readings.
type ScrapeDelta struct {
	// Start and End are the two capture times.
	Start, End time.Time
	obs.RegistrySnapshot
}

// Delta computes the fleet-wide increase from prev to s. Daemons are
// index-aligned; a daemon absent from prev (the fleet grew) counts
// from zero. prev may be nil, which reads every counter from zero.
func (s *ClusterScrape) Delta(prev *ClusterScrape) *ScrapeDelta {
	out := &ScrapeDelta{
		End:              s.Taken,
		RegistrySnapshot: obs.RegistrySnapshot{Series: make(map[string]obs.SeriesValue)},
	}
	if prev != nil {
		out.Start = prev.Taken
	}
	for i, snap := range s.Daemons {
		var base obs.RegistrySnapshot
		if prev != nil && i < len(prev.Daemons) {
			base = prev.Daemons[i]
		}
		d := snap.Delta(base)
		for _, key := range d.Keys {
			v := d.Series[key]
			sum, ok := out.Series[key]
			if !ok {
				out.Keys = append(out.Keys, key)
			}
			out.Series[key] = obs.SeriesValue{Kind: v.Kind, Value: sum.Value + v.Value, Hist: sum.Hist.Add(v.Hist)}
		}
	}
	return out
}

// SLOWindow maps one fleet delta onto the SLO engine's window input
// through the wire transport's RPC series, with the window bounds the
// capture times relative to epoch. Feeding successive deltas to
// slo.Evaluate yields the same report shape over a live cluster that
// E28 computes in virtual time.
func (d *ScrapeDelta) SLOWindow(epoch time.Time) slo.WindowInput {
	return slo.Window(d.Start.Sub(epoch), d.End.Sub(epoch), d.RegistrySnapshot, wire.SLOSeries)
}
