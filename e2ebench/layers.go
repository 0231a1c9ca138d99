package main

import (
	"sort"
)

// layerMetrics computes the per-layer metrics of a traced pass. Time
// metrics named *_s without p50 are self seconds per op (op = evaluate
// request, sweep point or received frame); *_p50_* are medians of span
// durations; counts come from the exact counters.
func layerMetrics(w string, p *pass, spans []span) map[string]metric {
	st := byStage(spans)
	get := func(name string) *stage {
		if s := st[name]; s != nil {
			return s
		}
		return &stage{}
	}
	ops := float64(max(p.ops, 1))
	selfPerOp := func(name string) metric { return metric{get(name).self.Seconds() / ops, "s"} }
	p50 := func(name string, scale float64, unit string) metric {
		d := get(name).durs
		if len(d) == 0 {
			return metric{0, unit}
		}
		return metric{scale * median(d), unit}
	}
	c := p.counters
	e := p.engine
	count := func(v float64) metric { return metric{v, "count"} }

	m := map[string]metric{}

	// sim
	m["sim.overhead_p50_ms"] = metric{1e3 * requestOverheadP50(spans), "ms"}
	m["sim.cache_hit_ratio"] = metric{ratio(float64(e.CacheHits), float64(e.CacheHits+e.CacheMisses)), "ratio"}
	m["sim.solves"] = count(float64(e.Solves))
	var makespan float64
	for _, s := range p.sweeps {
		makespan += s.makespan.Seconds()
	}
	m["sim.sweep_worker_busy_ratio"] = metric{ratio(get(spanChainPoint).total.Seconds(), float64(max(e.Workers, 1))*makespan), "ratio"}
	m["sim.sweep_warm_ratio"] = metric{ratio(float64(e.SweepPointsWarm), float64(e.SweepPointsWarm+e.SweepPointsCold)), "ratio"}
	m["sim.sweep_segments"] = count(float64(e.SweepSegments))
	m["sim.sweep_steals"] = count(float64(e.SweepSteals))

	// core
	m["core.evaluate_p50_s"] = p50(spanEvaluate, 1, "s")
	m["core.chain_point_p50_s"] = p50(spanChainPoint, 1, "s")
	m["core.prefetch_s"] = metric{get(spanPrefetch).total.Seconds() / ops, "s"}

	// cosim
	runs := c[`bright_cosim_runs_total{outcome="converged"}`] + c[`bright_cosim_runs_total{outcome="maxiter"}`]
	m["cosim.iterations_per_run"] = metric{ratio(c[`bright_cosim_iterations_total`], runs), "count"}
	m["cosim.self_s_per_run"] = metric{ratio(get(spanCosimRun).self.Seconds()+get(spanCosimIter).self.Seconds(), float64(get(spanCosimRun).count)), "s"}

	// thermal
	m["thermal.assemble_s"] = selfPerOp(spanAssemble)
	m["thermal.solve_s"] = selfPerOp(spanThermalSolve)
	m["thermal.bicgstab_iters_per_solve"] = metric{ratio(c[`bright_krylov_iterations_total{method="bicgstab"}`], c[`bright_krylov_solves_total{method="bicgstab"}`]), "count"}
	warm, cold := c[`bright_thermal_session_solves_total{warm="true"}`], c[`bright_thermal_session_solves_total{warm="false"}`]
	m["thermal.warm_solve_ratio"] = metric{ratio(warm, warm+cold), "ratio"}
	m["thermal.transient_step_s"] = selfPerOp(spanTransientStep)
	m["thermal.rebuilds"] = count(float64(p.stream.ThermalRebuilds))

	// flowcell
	m["flowcell.operating_point_s"] = selfPerOp(spanPolarize)
	m["flowcell.calls_per_op"] = metric{float64(get(spanPolarize).count) / ops, "count"}

	// pdn
	m["pdn.setup_s"] = selfPerOp(spanPDNSetup)
	m["pdn.solve_s"] = selfPerOp(spanPDNSolve)
	m["pdn.cg_iters_per_solve"] = metric{ratio(c[`bright_krylov_iterations_total{method="cg"}`], c[`bright_krylov_solves_total{method="cg"}`]), "count"}
	m["pdn.batch_solve_s"] = selfPerOp(spanPDNBatch)
	m["pdn.batch_rhs"] = count(c[`bright_blockcg_rhs_total`])
	m["pdn.transient_step_s"] = selfPerOp(spanPDNTransient)

	// hydro
	m["hydro.evaluate_s"] = selfPerOp(spanHydro)

	// num
	m["num.spmv_rows_per_op"] = metric{c[`bright_spmv_rows_total`] / ops, "count"}
	m["num.mg_cycles_per_op"] = metric{c[`bright_mg_cycles_total`] / ops, "count"}
	m["num.sparse_conversions_per_op"] = metric{(c[`bright_sparse_conversions_total{format="sell"}`] + c[`bright_sparse_conversions_total{format="sell32"}`]) / ops, "count"}
	m["num.krylov_maxiter"] = count(c[`bright_krylov_maxiter_total`])
	m["num.krylov_failures"] = count(c[`bright_krylov_failures_total`])

	// stream
	m["stream.frame_p50_ms"] = p50(spanStreamFrame, 1e3, "ms")
	m["stream.create_s"] = p50(spanStreamCreate, 1, "s")
	m["stream.frames_dropped"] = count(float64(p.stream.FramesDropped))
	var bytes, frames int
	for _, s := range p.sessions {
		bytes += s.bytes
		frames += len(s.frames)
	}
	m["stream.bytes_per_frame"] = metric{ratio(float64(bytes), float64(frames)), "B"}

	// runtime
	m["runtime.gc_cycles_per_op"] = metric{float64(p.use.gcs) / ops, "count"}
	return m
}

// requestOverheadP50 is the median over evaluate round trips of the
// client-seen request time minus the server's solver time for that
// request (zero solver time on a cache hit).
func requestOverheadP50(spans []span) float64 {
	solve := make(map[string]float64)
	for _, s := range spans {
		if s.Name == spanEvaluate {
			solve[s.Req] += s.dur().Seconds()
		}
	}
	if len(solve) == 0 {
		return 0
	}
	var over []float64
	for _, s := range spans {
		if s.Name == spanHTTP && s.Req != "" {
			over = append(over, s.dur().Seconds()-solve[s.Req])
		}
	}
	return median(over)
}

// stageShares is each stage's self time as a share of all server-side
// self time (client http.request spans excluded).
func stageShares(spans []span) map[string]float64 {
	st := byStage(spans)
	var total float64
	for name, s := range st {
		if name != spanHTTP {
			total += s.self.Seconds()
		}
	}
	out := make(map[string]float64)
	for name, s := range st {
		if name != spanHTTP && total > 0 {
			out[name] = s.self.Seconds() / total
		}
	}
	return out
}

// seedState records the traced split and tests the predictions the
// benchmark was designed around; a failed prediction is reported as
// such, never adjusted.
func seedState(w string, layers map[string]metric, shares map[string]float64) map[string]any {
	type pred struct {
		Claim string `json:"claim"`
		Holds bool   `json:"holds"`
	}
	var preds []pred
	switch w {
	case wlEvaluate:
		assembleSolve := shares[spanAssemble] + shares[spanThermalSolve]
		top := topStages(shares, 2)
		preds = append(preds,
			pred{"thermal assembly and cold solves dominate evaluate (top-2 self-time stages, > 50%)",
				assembleSolve > 0.5 && contains(top, spanThermalSolve)},
			pred{"BlockCG does not run on evaluate", layers["pdn.batch_rhs"].Value == 0},
		)
	case wlSweep:
		preds = append(preds,
			pred{"BlockCG runs on sweep", layers["pdn.batch_rhs"].Value > 0},
			pred{"thermal assembly is amortized on sweep (< 5% of self time)", shares[spanAssemble] < 0.05},
			pred{"no cache hits on sweep", layers["sim.cache_hit_ratio"].Value == 0},
		)
	case wlStream:
		preds = append(preds,
			pred{"BlockCG does not run on twin-stream", layers["pdn.batch_rhs"].Value == 0},
			pred{"no steady thermal solve runs on twin-stream", layers["thermal.warm_solve_ratio"].Value == 0 && layers["thermal.solve_s"].Value == 0},
		)
	}
	return map[string]any{"self_time_share": shares, "predictions": preds}
}

// topStages returns the n stages with the largest share.
func topStages(shares map[string]float64, n int) []string {
	names := sortedKeys(shares)
	sort.SliceStable(names, func(a, b int) bool { return shares[names[a]] > shares[names[b]] })
	return names[:min(n, len(names))]
}
