// Package obstest validates and parses Prometheus text exposition
// format (version 0.0.4) — the checker the cluster smoke suite runs
// over every daemon's /metrics output, and the parser that turns a
// scrape back into an obs.RegistrySnapshot for the cluster delta
// helpers.
//
// Validation is deliberately strict about the invariants a real
// Prometheus scraper relies on: metric and label names match the
// exposition grammar, TYPE lines precede their samples and appear at
// most once per family, no series is emitted twice, histogram bucket
// counts are cumulative and non-decreasing with a mandatory +Inf
// bucket that equals _count.
package obstest

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"github.com/dht-sampling/randompeer/internal/obs"
)

// Sample is one parsed exposition line: a metric name, its label set
// and the value.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Exposition is a parsed and validated metrics payload.
type Exposition struct {
	// Types maps family name to its declared TYPE.
	Types map[string]string
	// Samples holds every value line in input order.
	Samples []Sample

	byKey map[string]float64
	hists map[string]obs.HistSnapshot // by series key, from parseHistograms
}

var (
	nameRE  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRE = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// Parse parses data as Prometheus text exposition format, validating
// it along the way. It returns the parsed exposition or the first
// format violation found.
func Parse(data []byte) (*Exposition, error) {
	e := &Exposition{
		Types: make(map[string]string),
		byKey: make(map[string]float64),
	}
	for i, line := range strings.Split(string(data), "\n") {
		lineNo := i + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := e.parseComment(line); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if _, ok := e.Types[familyOf(s.Name, e.Types)]; !ok {
			return nil, fmt.Errorf("line %d: sample %q precedes its # TYPE line", lineNo, s.Name)
		}
		key := seriesKey(s.Name, s.Labels, "")
		if _, dup := e.byKey[key]; dup {
			return nil, fmt.Errorf("line %d: duplicate series %s", lineNo, key)
		}
		e.Samples = append(e.Samples, s)
		e.byKey[key] = s.Value
	}
	if err := e.parseHistograms(); err != nil {
		return nil, err
	}
	return e, nil
}

// parseComment validates a # HELP or # TYPE line (other comments pass).
func (e *Exposition) parseComment(line string) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 2 {
		return nil // bare comment
	}
	switch fields[1] {
	case "TYPE":
		if len(fields) < 4 {
			return fmt.Errorf("malformed TYPE line %q", line)
		}
		name, typ := fields[2], strings.TrimSpace(fields[3])
		if !nameRE.MatchString(name) {
			return fmt.Errorf("invalid metric name %q in TYPE line", name)
		}
		switch typ {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown metric type %q for %q", typ, name)
		}
		if _, dup := e.Types[name]; dup {
			return fmt.Errorf("duplicate TYPE line for %q", name)
		}
		e.Types[name] = typ
	case "HELP":
		if len(fields) < 3 {
			return fmt.Errorf("malformed HELP line %q", line)
		}
		if !nameRE.MatchString(fields[2]) {
			return fmt.Errorf("invalid metric name %q in HELP line", fields[2])
		}
	}
	return nil
}

// parseSample parses one value line: name[{labels}] value.
func parseSample(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		s.Name = rest[:i]
		end := strings.LastIndexByte(rest, '}')
		if end < i {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		if err := parseLabels(rest[i+1:end], s.Labels); err != nil {
			return s, err
		}
		rest = strings.TrimSpace(rest[end+1:])
	} else {
		fields := strings.Fields(rest)
		if len(fields) != 2 {
			return s, fmt.Errorf("malformed sample line %q", line)
		}
		s.Name, rest = fields[0], fields[1]
	}
	if !nameRE.MatchString(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	v, err := parseValue(strings.TrimSpace(rest))
	if err != nil {
		return s, fmt.Errorf("sample %q: %w", s.Name, err)
	}
	s.Value = v
	return s, nil
}

// parseLabels parses `a="b",c="d"` into dst, handling escaped quotes.
func parseLabels(in string, dst map[string]string) error {
	for len(in) > 0 {
		eq := strings.IndexByte(in, '=')
		if eq < 0 {
			return fmt.Errorf("malformed label in %q", in)
		}
		name := strings.TrimSpace(in[:eq])
		if !labelRE.MatchString(name) {
			return fmt.Errorf("invalid label name %q", name)
		}
		rest := in[eq+1:]
		if len(rest) == 0 || rest[0] != '"' {
			return fmt.Errorf("label %s: value not quoted", name)
		}
		rest = rest[1:]
		var b strings.Builder
		closed := false
		for i := 0; i < len(rest); i++ {
			c := rest[i]
			if c == '\\' && i+1 < len(rest) {
				i++
				switch rest[i] {
				case 'n':
					b.WriteByte('\n')
				default:
					b.WriteByte(rest[i])
				}
				continue
			}
			if c == '"' {
				rest = rest[i+1:]
				closed = true
				break
			}
			b.WriteByte(c)
		}
		if !closed {
			return fmt.Errorf("label %s: unterminated value", name)
		}
		if _, dup := dst[name]; dup {
			return fmt.Errorf("duplicate label %q", name)
		}
		dst[name] = b.String()
		in = strings.TrimPrefix(strings.TrimSpace(rest), ",")
		in = strings.TrimSpace(in)
	}
	return nil
}

// parseValue parses an exposition float (accepting +Inf/-Inf/NaN).
func parseValue(v string) (float64, error) {
	switch v {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("bad value %q", v)
	}
	return f, nil
}

// familyOf maps a sample name to its family: histogram samples use the
// _bucket/_sum/_count suffixes of a declared histogram family.
func familyOf(name string, types map[string]string) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suffix)
		if base != name && types[base] == "histogram" {
			return base
		}
	}
	return name
}

// parseHistograms validates every histogram series — buckets
// cumulative and non-decreasing in le, a +Inf bucket equal to _count,
// a _sum — and inverts it into an obs reading: the power-of-two `le`
// bounds (2^i nanoseconds, rendered in seconds) map exactly back onto
// obs bucket indices, and bounds the writer skipped held no
// observations.
func (e *Exposition) parseHistograms() error {
	type bkt struct{ le, cum float64 }
	buckets := make(map[string][]bkt) // series key without le -> buckets
	counts := make(map[string]float64)
	sums := make(map[string]float64)
	for _, s := range e.Samples {
		base := familyOf(s.Name, e.Types)
		if e.Types[base] != "histogram" || base == s.Name {
			continue
		}
		key := seriesKey(base, s.Labels, "le")
		switch strings.TrimPrefix(s.Name, base) {
		case "_bucket":
			le, err := parseValue(s.Labels["le"])
			if err != nil {
				return fmt.Errorf("histogram %s: bad or missing le %q", base, s.Labels["le"])
			}
			buckets[key] = append(buckets[key], bkt{le: le, cum: s.Value})
		case "_count":
			counts[key] = s.Value
		case "_sum":
			sums[key] = s.Value
		}
	}
	e.hists = make(map[string]obs.HistSnapshot, len(buckets))
	for key, bs := range buckets {
		sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
		var h obs.HistSnapshot
		last, prev := math.Inf(-1), 0.0
		for _, b := range bs {
			if b.le <= last {
				return fmt.Errorf("histogram series %s: duplicate le %g", key, b.le)
			}
			if b.cum < prev {
				return fmt.Errorf("histogram series %s: bucket counts not cumulative at le=%g (%g < %g)", key, b.le, b.cum, prev)
			}
			if ns := b.le * 1e9; ns > 0 && !math.IsInf(ns, 1) {
				if idx := int(math.Round(math.Log2(ns))); idx >= 0 && idx < len(h.Buckets) {
					h.Buckets[idx] = int64(b.cum - prev)
				}
			}
			last, prev = b.le, b.cum
		}
		if !math.IsInf(last, 1) {
			return fmt.Errorf("histogram series %s: missing +Inf bucket", key)
		}
		count, ok := counts[key]
		if !ok {
			return fmt.Errorf("histogram series %s: missing _count", key)
		}
		if count != prev {
			return fmt.Errorf("histogram series %s: _count %g != +Inf bucket %g", key, count, prev)
		}
		sum, ok := sums[key]
		if !ok {
			return fmt.Errorf("histogram series %s: missing _sum", key)
		}
		h.Count, h.SumNanos = int64(count), int64(math.Round(sum*1e9))
		e.hists[key] = h
	}
	return nil
}

// seriesKey renders name plus labels (minus skip) with obs's label
// renderer, so a scraped series keys exactly as obs.RegistrySnapshot
// keys its in-process twin.
func seriesKey(name string, labels map[string]string, skip string) string {
	ls := make([]obs.Label, 0, len(labels))
	for n, v := range labels {
		if n != skip {
			ls = append(ls, obs.Label{Name: n, Value: v})
		}
	}
	return obs.SeriesKey(name, ls...)
}

// Snapshot converts the exposition into an obs registry snapshot, so a
// scrape takes part in the same Delta arithmetic as an in-process
// registry. Series keep their first-appearance order; counters stay
// counters, histograms carry their inverted reading, and every other
// type reads as a gauge.
func (e *Exposition) Snapshot() obs.RegistrySnapshot {
	snap := obs.RegistrySnapshot{Series: make(map[string]obs.SeriesValue)}
	for _, s := range e.Samples {
		family := familyOf(s.Name, e.Types)
		key := seriesKey(family, s.Labels, "le")
		if _, seen := snap.Series[key]; !seen {
			snap.Keys = append(snap.Keys, key)
		}
		switch e.Types[family] {
		case "histogram":
			snap.Series[key] = obs.SeriesValue{Kind: obs.KindHistogram, Hist: e.hists[key]}
		case "counter":
			snap.Series[key] = obs.SeriesValue{Kind: obs.KindCounter, Value: s.Value}
		default:
			snap.Series[key] = obs.SeriesValue{Kind: obs.KindGauge, Value: s.Value}
		}
	}
	return snap
}

// Value returns the value of the series with the given name and exact
// label set, and whether it exists.
func (e *Exposition) Value(name string, labels map[string]string) (float64, bool) {
	v, ok := e.byKey[seriesKey(name, labels, "")]
	return v, ok
}

// Sum adds up every series of the family whose labels are a superset
// of want (nil want matches all series of the name).
func (e *Exposition) Sum(name string, want map[string]string) float64 {
	var total float64
	for _, s := range e.Samples {
		if s.Name != name {
			continue
		}
		match := true
		for k, v := range want {
			if s.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			total += s.Value
		}
	}
	return total
}
