package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"bright/internal/sim"
)

// traceDir is where a traced run writes its spans, relative to the
// directory the benchmark runs in (run.sh's build directory).
const traceDir = ".bench_build"

// measureTraced is the traced run of a seed. It measures an untraced
// pass for half the budget, then replays exactly the same ops against a
// server running the traced composition, and reports per-layer metrics
// from the traced pass. It also checks that the two passes did the same
// work (equal exact-counter deltas) and served the same results
// (bitwise), and reports the tracing overhead between them.
func measureTraced(ctx context.Context, w string, seed int64, budget time.Duration) (*outcome, error) {
	out := &outcome{info: runInfo(w, seed, budget)}

	srv, cl, _, _, problem, err := setUp(ctx, nil, nil)
	if err != nil {
		return nil, err
	}
	if problem != "" {
		out.problems = append(out.problems, problem)
	}
	a, err := runPass(ctx, w, seed, budget/2, srv, cl, replay{}, nil)
	cl.close()
	if serr := srv.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, fmt.Errorf("untraced pass: %w", err)
	}

	tr := newTracer()
	var job atomic.Value
	job.Store("")
	comp := &composer{tr: tr, req: func(context.Context) string { return job.Load().(string) }}
	srv, cl, _, _, problem, err = setUp(ctx, comp, tr)
	if err != nil {
		return nil, err
	}
	if problem != "" {
		out.problems = append(out.problems, problem)
	}
	tr.reset()
	b, err := runPass(ctx, w, seed, budget, srv, cl, a.replayOf(), func(id string) { job.Store(id) })
	cl.close()
	if serr := srv.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	out.attempted, out.failed = a.ops+b.ops, a.failed+b.failed
	out.info["host_steal_per_cpu_s"] = (a.use.steal + b.use.steal).Seconds()
	out.problems = append(out.problems, a.problems...)
	out.problems = append(out.problems, b.problems...)

	// The stream engine is recomposed after the pass, from the sessions
	// the server streamed.
	var replayRebuilds, replayMismatch int
	if w == wlStream {
		for _, s := range b.sessions {
			m, rb, err := replaySession(ctx, tr, s)
			if err != nil {
				out.problems = append(out.problems, fmt.Sprintf("replaying session %s: %v", s.id, err))
				continue
			}
			replayMismatch += m
			replayRebuilds += rb
		}
	}

	// Same work: exact counters per op, engine and session counters.
	diffs := mismatches(a.counters, b.counters)
	for _, d := range []struct {
		name string
		a, b uint64
	}{
		{"sim solves", a.engine.Solves, b.engine.Solves},
		{"sim cache hits", a.engine.CacheHits, b.engine.CacheHits},
		{"sweep prefetches", a.engine.SweepPrefetches, b.engine.SweepPrefetches},
		{"sweep segments", a.engine.SweepSegments, b.engine.SweepSegments},
		{"sweep warm points", a.engine.SweepPointsWarm, b.engine.SweepPointsWarm},
		{"stream frames", a.stream.FramesEmitted, b.stream.FramesEmitted},
		{"stream rebuilds", a.stream.ThermalRebuilds, b.stream.ThermalRebuilds},
	} {
		if d.a != d.b {
			diffs = append(diffs, fmt.Sprintf("%s: untraced %d, traced %d", d.name, d.a, d.b))
		}
	}
	if w == wlStream && uint64(replayRebuilds) != b.stream.ThermalRebuilds {
		diffs = append(diffs, fmt.Sprintf("stream rebuilds: served %d, replayed %d", b.stream.ThermalRebuilds, replayRebuilds))
	}
	for _, d := range diffs {
		out.problems = append(out.problems, "counter mismatch: "+d)
	}
	// Same results, bitwise.
	bitwise := resultMismatches(a, b) + replayMismatch
	if bitwise > 0 {
		out.problems = append(out.problems, fmt.Sprintf("%d traced results differ from production", bitwise))
	}

	spans := tr.snapshot()
	path := filepath.Join(traceDir, fmt.Sprintf("trace-%s-%d.json", w, seed))
	if err := os.MkdirAll(traceDir, 0o755); err == nil {
		if err := tr.write(path); err != nil {
			logf("writing spans: %v", err)
		} else {
			out.info["trace_file"] = path
		}
	}
	aE2E, _ := a.endToEnd(0)
	bE2E, _ := b.endToEnd(0)
	out.layers = layerMetrics(w, b, spans)
	for k, v := range traceMetrics(bE2E["request_p50_s"].Value-aE2E["request_p50_s"].Value, len(diffs), bitwise) {
		out.layers[k] = v
	}
	out.named = map[string]metric{}
	delete(aE2E, "setup_s")
	delete(bE2E, "setup_s")
	for k, v := range bE2E {
		out.named["traced."+k] = v
	}
	for k, v := range aE2E {
		out.named["untraced."+k] = v
	}
	out.info["seed_state"] = seedState(w, out.layers, stageShares(spans))
	return out, nil
}

// traceMetrics reports the traced run's own health: its overhead on the
// workload's request_p50_s and the reconciliation failures.
func traceMetrics(overheadS float64, counterMismatches, resultMismatches int) map[string]metric {
	return map[string]metric{
		"trace.overhead_s":         {overheadS, "s"},
		"trace.counter_mismatches": {float64(counterMismatches), "count"},
		"trace.result_mismatches":  {float64(resultMismatches), "count"},
	}
}

// replayOf is the op count of p, for replaying it.
func (p *pass) replayOf() replay {
	rp := replay{evalOps: len(p.evals), sweeps: len(p.sweeps)}
	for _, s := range p.sessions {
		rp.sessions[s.client]++
	}
	return rp
}

// resultMismatches counts served results of b that differ from a's for
// the same input (timings excluded).
func resultMismatches(a, b *pass) int {
	n := 0
	for i := range b.evals {
		if i >= len(a.evals) || string(a.evals[i].body) != string(b.evals[i].body) {
			n++
		}
	}
	for k := range b.sweeps {
		if k >= len(a.sweeps) {
			n++
			continue
		}
		want := make(map[int]sim.ReportView)
		for _, pt := range a.sweeps[k].view.Results {
			if pt.Report != nil {
				want[pt.Index] = *pt.Report
			}
		}
		for _, pt := range b.sweeps[k].view.Results {
			if w, ok := want[pt.Index]; !ok || pt.Report == nil || w != *pt.Report {
				n++
			}
		}
	}
	type key struct{ client, k int }
	frames := make(map[key]*sessRec)
	for i := range a.sessions {
		frames[key{a.sessions[i].client, a.sessions[i].k}] = &a.sessions[i]
	}
	for _, s := range b.sessions {
		as := frames[key{s.client, s.k}]
		if as == nil || len(as.frames) != len(s.frames) {
			n++
			continue
		}
		for i := range s.frames {
			if as.frames[i] != s.frames[i] {
				n++
			}
		}
	}
	return n
}
