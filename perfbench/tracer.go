package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	_ "unsafe" // for go:linkname

	"github.com/dht-sampling/randompeer/internal/simnet"
)

// kind is one layer boundary the benchmark decorates. The first five
// kinds are roots: each starts a span tree of its own.
type kind uint8

const (
	kSample   kind = iota // one request of the workload driver; its self time is the core layer
	kEstimate             // one core.New (Estimate n)
	kJoin                 // churn.Overlay.Join
	kCrash                // churn.Overlay.Crash
	kMaintain             // churn.Overlay.MaintainNode
	kH                    // dht.DHT.H
	kNext                 // dht.DHT.Next
	kCall                 // simnet.Transport.Call served in process
	kRemote               // wire Transport.Call to a node of the other transport
	kHandler              // overlay RPC handler registered through the transport
	numKinds
)

func (k kind) isRoot() bool { return k <= kMaintain }

// span is one open or finished decorated call.
//
// Self time is charged, not subtracted: every decorator event charges
// the wall time since the lane's previous event to the lane's innermost
// open span. On a lane driven by one goroutine at a time that equals
// the span's duration minus its children's. On the kernel lane, where
// processes park inside transport calls and others run meanwhile, it
// is the time the span was the one running, which is the only wall
// time that belongs to it.
type span struct {
	parent, root *span
	kind         kind
	id           uint64
	start        int64
	self         int64
	childBusy    int64

	// Root-only state.
	sample    uint64 // 1-based sample number on its lane (sample roots)
	keep      bool   // record the whole tree for the span dump
	trialNext int64  // Next calls since the current trial's H
	failPhase kind   // decorated call whose error failed the sample
	failErr   error
}

// spanRecord is one finished span of a kept tree, as written to the
// span dump.
type spanRecord struct {
	Lane   int    `json:"lane"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Sample uint64 `json:"sample"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
	Err    string `json:"err,omitempty"`
}

// stat aggregates every finished span of one kind under one root kind.
type stat struct {
	n, errs    int64
	busy, self int64 // ns; busy is self plus the children's busy
	wall       int64 // ns from enter to exit
}

func (a *stat) add(b stat) {
	a.n += b.n
	a.errs += b.errs
	a.busy += b.busy
	a.self += b.self
	a.wall += b.wall
}

// lane is a serial stream of decorated calls: one closed-loop caller,
// or the whole kernel, which runs one process at a time. Its fields
// are touched only by the goroutine currently driving the lane (a
// remote wire handler runs while the caller blocks on its socket, and
// the socket round trip orders the two).
type lane struct {
	t      *tracer
	idx    int
	cur    *span
	last   int64
	nextID uint64

	samples uint64
	stats   [numKinds][numKinds]stat  // [root kind][kind]
	edges   [numKinds][numKinds]int64 // sample-rooted [parent kind][child kind] counts

	steps, deadSteps int64
	failByPhase      [numKinds]int64
	failByClass      map[string]int64
	retried          int64
	kept             []spanRecord
	free             []*span // finished spans, reused by enter
}

// tracer owns the lanes of one traced run.
type tracer struct {
	base       int64  // nanotime at creation
	keepRoots  uint64 // sample roots per lane whose trees are kept
	layerNames [numKinds]string
	lanes      []*lane
	byFrom     map[simnet.NodeID]*lane
	kernel     *lane        // when set, every call belongs to this lane
	unknown    atomic.Int64 // calls from ids with no lane (closed loops only)
}

// newTracer names the transport and overlay layers of the workload
// (for example "simnet" and "chord") and keeps the span trees of the
// first keepRoots samples on each lane.
func newTracer(transportLayer, overlayLayer string, keepRoots uint64) *tracer {
	t := &tracer{base: nanotime(), keepRoots: keepRoots, byFrom: make(map[simnet.NodeID]*lane)}
	t.layerNames = [numKinds]string{
		kSample: "core", kEstimate: "core.estimate",
		kJoin: "churn.join", kCrash: "churn.crash", kMaintain: "churn.maintain",
		kH: "dht.h", kNext: "dht.next",
		kCall: transportLayer, kRemote: transportLayer + ".remote",
		kHandler: overlayLayer,
	}
	return t
}

// now reads the monotonic clock alone: time.Now also reads the wall
// clock, which would double the cost of every decorator event.
func (t *tracer) now() int64 { return nanotime() - t.base }

//go:linkname nanotime runtime.nanotime
func nanotime() int64

func (t *tracer) countUnknown() { t.unknown.Add(1) }

// newLane adds a lane owning the RPCs sent from the given node ids.
func (t *tracer) newLane(from ...simnet.NodeID) *lane {
	l := &lane{t: t, idx: len(t.lanes), failByClass: make(map[string]int64)}
	l.last = t.now()
	t.lanes = append(t.lanes, l)
	for _, id := range from {
		if _, dup := t.byFrom[id]; dup {
			panic(fmt.Sprintf("perfbench: node %d is on two lanes", id))
		}
		t.byFrom[id] = l
	}
	return l
}

// kernelLane makes one lane own every call: the sim kernel serializes
// all processes, so they form a single stream of events.
func (t *tracer) kernelLane() *lane {
	t.kernel = t.newLane()
	return t.kernel
}

// laneOf returns the lane an RPC sent by from belongs to, or nil.
func (t *tracer) laneOf(from simnet.NodeID) *lane {
	if t.kernel != nil {
		return t.kernel
	}
	return t.byFrom[from]
}

// tick charges the time since the previous event to the open span.
func (l *lane) tick() int64 {
	now := l.t.now()
	if l.cur != nil {
		l.cur.self += now - l.last
	}
	l.last = now
	return now
}

// enter opens a span of kind k. Root kinds always start a new tree;
// other kinds nest under the lane's open span.
func (l *lane) enter(k kind) *span {
	now := l.tick()
	l.nextID++
	var s *span
	if n := len(l.free); n > 0 {
		s = l.free[n-1]
		l.free = l.free[:n-1]
		*s = span{}
	} else {
		s = new(span)
	}
	s.kind, s.id, s.start = k, l.nextID, now
	if !k.isRoot() {
		s.parent = l.cur
	}
	if s.parent != nil {
		s.root = s.parent.root
	} else {
		s.root = s
		if k == kSample {
			l.samples++
			s.sample = l.samples
			s.keep = s.sample <= l.t.keepRoots
		}
	}
	l.cur = s
	return s
}

// exit closes s and makes its parent the open span again.
func (l *lane) exit(s *span, err error) {
	now := l.tick()
	busy := s.self + s.childBusy
	if s.parent != nil {
		s.parent.childBusy += busy
	}
	l.cur = s.parent
	root := s.root
	st := &l.stats[root.kind][s.kind]
	st.n++
	st.busy += busy
	st.self += s.self
	st.wall += now - s.start
	if err != nil {
		st.errs++
	}
	if root.kind == kSample {
		if s.parent != nil {
			l.edges[s.parent.kind][s.kind]++
		}
		switch s.kind {
		case kH, kNext:
			if err != nil {
				root.failPhase, root.failErr = s.kind, err
			}
		case kSample:
			if err != nil {
				// Steps of the trial that ended in the error were dead too.
				l.deadSteps += s.trialNext
				phase := s.failPhase
				if s.failErr == nil {
					phase = kSample // the sampler itself gave up
				}
				l.failByPhase[phase]++
				l.failByClass[simnet.ErrorClass(err)]++
			}
		}
	}
	if root.keep {
		rec := spanRecord{Lane: l.idx, ID: s.id, Sample: root.sample, Layer: l.t.layerNames[s.kind],
			Start: s.start, End: now, Self: s.self}
		if s.parent != nil {
			rec.Parent = s.parent.id
		}
		if err != nil {
			rec.Err = err.Error()
		}
		l.kept = append(l.kept, rec)
	}
	// Every child has exited before its parent, so nothing refers to s
	// once it is closed.
	l.free = append(l.free, s)
}

// beginTrial marks an H call: every Next since the previous H of the
// same sample belonged to a trial that failed.
func (l *lane) beginTrial(s *span) {
	if r := s.root; r.kind == kSample {
		l.deadSteps += r.trialNext
		r.trialNext = 0
	}
}

// countStep records one successful Next of a sample.
func (l *lane) countStep(s *span) {
	if r := s.root; r.kind == kSample {
		r.trialNext++
		l.steps++
	}
}

// suspend closes the lane's accounting while a kernel process parks
// outside any decorated call; resume reopens s when it runs again.
func (l *lane) suspend() {
	l.tick()
	l.cur = nil
}

func (l *lane) resume(s *span) {
	l.tick()
	l.cur = s
}

// totals sums every lane.
type totals struct {
	samples     int64
	stats       [numKinds][numKinds]stat
	edges       [numKinds][numKinds]int64
	steps, dead int64
	failByPhase [numKinds]int64
	failByClass map[string]int64
	retried     int64
	unknown     int64
}

func (t *tracer) totals() totals {
	out := totals{failByClass: make(map[string]int64), unknown: t.unknown.Load()}
	for _, l := range t.lanes {
		out.samples += int64(l.samples)
		for r := range l.stats {
			for k := range l.stats[r] {
				out.stats[r][k].add(l.stats[r][k])
			}
		}
		for p := range l.edges {
			for c := range l.edges[p] {
				out.edges[p][c] += l.edges[p][c]
			}
		}
		out.steps += l.steps
		out.dead += l.deadSteps
		for i, v := range l.failByPhase {
			out.failByPhase[i] += v
		}
		for c, v := range l.failByClass {
			out.failByClass[c] += v
		}
		out.retried += l.retried
	}
	return out
}

// kindStat sums one kind's stat across every root kind.
func (tt *totals) kindStat(k kind) stat {
	var s stat
	for r := range tt.stats {
		s.add(tt.stats[r][k])
	}
	return s
}

// writeSpans dumps the kept span trees, one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, l := range t.lanes {
		for _, rec := range l.kept {
			if err := enc.Encode(rec); err != nil {
				f.Close()
				return fmt.Errorf("writing span dump: %w", err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing span dump: %w", err)
	}
	return f.Close()
}
