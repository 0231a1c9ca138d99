package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span names. They are the stage names the in-program tracer will use,
// so that tracer can replace these benchmark-side spans without a
// rename.
const (
	spanHTTP          = "http.request"
	spanEvaluate      = "core.evaluate"
	spanChainPoint    = "core.chain_point"
	spanPrefetch      = "core.prefetch"
	spanCosimRun      = "cosim.run"
	spanCosimIter     = "cosim.iteration"
	spanPolarize      = "flowcell.polarize"
	spanAssemble      = "thermal.assemble"
	spanThermalSolve  = "thermal.solve"
	spanPDNSetup      = "pdn.setup"
	spanPDNSolve      = "pdn.solve"
	spanPDNBatch      = "pdn.solve_batch"
	spanHydro         = "hydro.evaluate"
	spanStreamCreate  = "stream.create"
	spanStreamFrame   = "stream.frame"
	spanTransientStep = "thermal.transient_step"
	spanPDNTransient  = "pdn.transient_step"
)

// span is one timed interval. Start and End are nanoseconds since the
// tracer's origin; Parent is 0 for a root span; Req groups the spans of
// one request (the server's X-Request-ID, a sweep job id or a session
// id).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use; a nil tracer records nothing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open is a started span; close records it.
type open struct {
	t *tracer
	s span
}

// begin starts a span under parent (0 for a root).
func (t *tracer) begin(name string, parent int64, req string) *open {
	if t == nil {
		return &open{}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return &open{t: t, s: span{ID: id, Parent: parent, Name: name, Req: req, Start: int64(time.Since(t.t0))}}
}

// id is the span's id, the parent handle for its children.
func (o *open) id() int64 { return o.s.ID }

func (o *open) end() {
	if o.t == nil {
		return
	}
	o.s.End = int64(time.Since(o.t.t0))
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// reset drops every recorded span.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

// snapshot returns the recorded spans ordered by start time.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(a, b int) bool { return out[a].Start < out[b].Start })
	return out
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	blob, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children's intervals cover (overlapping
// children count once).
func selfTimes(spans []span) map[int64]time.Duration {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's interval.
func covered(parent span, children []span) time.Duration {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	total += curHi - curLo
	return time.Duration(total)
}

// stage aggregates the spans of one name.
type stage struct {
	count int
	total time.Duration // summed durations
	self  time.Duration // summed self times
	durs  []float64     // durations in seconds
}

// byStage groups spans by name with their self times.
func byStage(spans []span) map[string]*stage {
	self := selfTimes(spans)
	out := make(map[string]*stage)
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &stage{}
			out[s.Name] = st
		}
		st.count++
		st.total += s.dur()
		st.self += self[s.ID]
		st.durs = append(st.durs, s.dur().Seconds())
	}
	return out
}
