package main

import (
	"context"
	"fmt"
	"math"

	"bright/internal/core"
	"bright/internal/cosim"
	"bright/internal/floorplan"
	"bright/internal/flowcell"
	"bright/internal/mesh"
	"bright/internal/obs"
	"bright/internal/pdn"
	"bright/internal/sim"
	"bright/internal/thermal"
	"bright/internal/units"
)

// This file is the traced solver stack. sim.DefaultSolver and
// core.Batch hide their children (core.System hides its pipeline,
// cosim.Runner its thermal session), so the traced server does not call
// them: it composes the same public calls, in the same order, that the
// hidden layers make, with a span around each. The composition must
// stay bitwise equal to the production path; the traced run checks that
// on every served result.

// The cosim counters are bumped inside cosim.Runner, which the composed
// loop replaces; it bumps the same series at the same points, so the
// counter reconciliation checks that the composed loop iterates exactly
// as often as the production one.
var (
	cosimIterations = obs.Default.Counter("bright_cosim_iterations_total",
		"Electro-thermal fixed-point iterations executed.")
	cosimConverged = obs.Default.Counter("bright_cosim_runs_total",
		"Completed co-simulation runs by outcome.", obs.L("outcome", "converged"))
	cosimMaxIter = obs.Default.Counter("bright_cosim_runs_total",
		"Completed co-simulation runs by outcome.", obs.L("outcome", "maxiter"))
)

// Defaults cosim.Config.withDefaults applies.
const (
	cosimMaxIterDefault = 30
	cosimTolK           = 0.01
	cosimRelax          = 0.7
)

// composer builds traced solvers that record into tr. req names the
// current request for spans whose context carries no request id (sweep
// chains run on the job's detached context).
type composer struct {
	tr  *tracer
	req func(ctx context.Context) string
}

func (c *composer) reqOf(ctx context.Context) string {
	if id := sim.RequestID(ctx); id != "" {
		return id
	}
	return c.req(ctx)
}

// solver is the traced sim.Solver: core.NewSystem + EvaluateContext.
func (c *composer) solver(ctx context.Context, cfg core.Config) (*core.Report, error) {
	req := c.reqOf(ctx)
	root := c.tr.begin(spanEvaluate, 0, req)
	defer root.end()
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	return c.evaluateWith(ctx, sys, nil, req, root.id(), func(ctx context.Context, cc cosim.Config) (*cosim.Result, error) {
		// cosim.RunContext: validate, default, fresh runner, run.
		if err := cc.Validate(); err != nil {
			return nil, err
		}
		cc = cosimDefaults(cc)
		r, err := c.newRunner(cc.TotalFlowMLMin, cc.InletTempC, req, root.id())
		if err != nil {
			return nil, fmt.Errorf("cosim: thermal session: %w", err)
		}
		return r.run(ctx, cc, req, root.id())
	})
}

// batchChain is the traced sim.Options.BatchChain: one composed
// core.Batch per sweep segment.
func (c *composer) batchChain() (sim.Solver, sim.ChainPrefetch) {
	b := &tracedBatch{c: c}
	return b.evaluate, b.prefetch
}

func cosimDefaults(cc cosim.Config) cosim.Config {
	if cc.MaxIter == 0 {
		cc.MaxIter = cosimMaxIterDefault
	}
	if cc.TolK == 0 {
		cc.TolK = cosimTolK
	}
	if cc.Relax == 0 {
		cc.Relax = cosimRelax
	}
	if cc.ChipLoad == 0 {
		cc.ChipLoad = 1
	}
	return cc
}

// runner is the composed cosim.Runner: one thermal session per
// (flow, inlet) condition, warm-started across runs.
type runner struct {
	c                     *composer
	flowMLMin, inletTempC float64
	base                  *thermal.Problem
	session               *thermal.Session
	scaled                *mesh.Field2D
	lastTCell             float64
}

func (c *composer) newRunner(flowMLMin, inletTempC float64, req string, parent int64) (*runner, error) {
	sp := c.tr.begin(spanAssemble, parent, req)
	defer sp.end()
	tp := thermal.Power7Problem(flowMLMin, units.CtoK(inletTempC), 0)
	session, err := thermal.NewSession(tp)
	if err != nil {
		return nil, err
	}
	return &runner{
		c:          c,
		flowMLMin:  flowMLMin,
		inletTempC: inletTempC,
		base:       tp,
		session:    session,
		scaled:     &mesh.Field2D{Grid: tp.Power.Grid, Data: make([]float64, len(tp.Power.Data))},
	}, nil
}

func (r *runner) matches(flowMLMin, inletTempC float64) bool {
	return r.flowMLMin == flowMLMin && r.inletTempC == inletTempC
}

// run is cosim.Runner.RunContext with a span per outer iteration.
func (r *runner) run(ctx context.Context, cc cosim.Config, req string, parent int64) (*cosim.Result, error) {
	tr := r.c.tr
	sp := tr.begin(spanCosimRun, parent, req)
	defer sp.end()
	if err := cc.Validate(); err != nil {
		return nil, err
	}
	cc = cosimDefaults(cc)
	if !r.matches(cc.TotalFlowMLMin, cc.InletTempC) {
		return nil, fmt.Errorf("cosim: composed runner bound to %g ml/min, %g C", r.flowMLMin, r.inletTempC)
	}
	power := r.base.Power
	if cc.ChipLoad != 1 {
		for k, v := range r.base.Power.Data {
			r.scaled.Data[k] = v * cc.ChipLoad
		}
		power = r.scaled
	}
	tCell := units.CtoK(cc.InletTempC)
	if r.lastTCell != 0 {
		tCell = r.lastTCell
	}
	res := &cosim.Result{Config: cc}
	for iter := 1; iter <= cc.MaxIter; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		it := tr.begin(spanCosimIter, sp.id(), req)
		res.Iterations = iter
		cosimIterations.Inc()
		pol := tr.begin(spanPolarize, it.id(), req)
		array := flowcell.Power7ArrayAt(cc.TotalFlowMLMin, tCell)
		op, err := array.CurrentAtVoltage(cc.TerminalVoltage)
		var heat float64
		if err == nil {
			heat, err = array.HeatDissipation(op)
		}
		pol.end()
		if err != nil {
			it.end()
			return nil, fmt.Errorf("cosim: iteration %d (T=%.2f K): %w", iter, tCell, err)
		}
		ts := tr.begin(spanThermalSolve, it.id(), req)
		sol, err := r.session.SolveContext(ctx, power, heat)
		ts.end()
		it.end()
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, fmt.Errorf("cosim: thermal solve at iteration %d: %w", iter, err)
		}
		res.History = append(res.History, cosim.IterRecord{
			CellTempK: tCell, Current: op.Current, Power: op.Power, HeatW: heat, PeakTK: sol.PeakT,
		})
		res.Operating = op
		res.Thermal = sol
		tNew := 0.5 * (sol.MeanFluidT + sol.MeanWallT)
		if math.Abs(tNew-tCell) < cc.TolK {
			res.Converged = true
			res.CellTempK = tCell
			r.lastTCell = tCell
			cosimConverged.Inc()
			return res, nil
		}
		tCell += cc.Relax * (tNew - tCell)
	}
	res.CellTempK = tCell
	cosimMaxIter.Inc()
	return res, fmt.Errorf("cosim: no convergence after %d iterations (last dT drive)", cc.MaxIter)
}

// pdnState is the PDN half of a (composed) core.System or core.Batch:
// the lazily built session and, in a batch, the chain-prefetched grid
// solutions.
type pdnState struct {
	ses       *pdn.Session
	gridCache map[string]*pdn.Solution
}

// evaluateWith is core.System.evaluateWith: co-simulation, cache-rail
// report, PDN solve (or prefetched solution) and hydraulics.
func (c *composer) evaluateWith(ctx context.Context, s *core.System, ps *pdnState, req string, parent int64,
	runCosim func(context.Context, cosim.Config) (*cosim.Result, error)) (*core.Report, error) {
	if ps == nil {
		ps = &pdnState{}
	}
	cfg := s.Config
	co, err := runCosim(ctx, cosim.Config{
		TotalFlowMLMin:  cfg.FlowMLMin,
		InletTempC:      cfg.InletTempC,
		TerminalVoltage: cfg.SupplyVoltage,
		ChipLoad:        cfg.ChipLoad,
	})
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("core: co-simulation: %w", err)
	}
	rep := &core.Report{
		Config:    cfg,
		CoSim:     co,
		Thermal:   co.Thermal,
		PeakTempC: units.KtoC(co.Thermal.PeakT),
	}
	rep.CacheDemandW = units.WPerCM2ToWPerM2(1.0) * s.Floorplan.CacheArea() * cfg.ChipLoad
	rep.CacheDemandA = rep.CacheDemandW / cfg.SupplyVoltage
	rep.DeliveredW = co.Operating.Power * s.VRM.Efficiency
	rep.PowersCaches = rep.DeliveredW >= rep.CacheDemandW

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if ps.gridCache != nil {
		rep.Grid = ps.gridCache[pdnKey(cfg)]
	}
	if rep.Grid == nil {
		p, _, err := pdn.Power7Problem()
		if err != nil {
			return nil, err
		}
		if ps.ses == nil {
			sp := c.tr.begin(spanPDNSetup, parent, req)
			ses, err := pdn.NewSession(p)
			sp.end()
			if err != nil {
				return nil, fmt.Errorf("core: power grid: %w", err)
			}
			ps.ses = ses
		}
		sp := c.tr.begin(spanPDNSolve, parent, req)
		grid, err := ps.ses.Solve(pdnLoadFor(p, s.Floorplan, cfg), cfg.SupplyVoltage)
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("core: power grid: %w", err)
		}
		rep.Grid = grid
	}

	sp := c.tr.begin(spanHydro, parent, req)
	net := s.Array.HydraulicNetwork(cfg.ManifoldK, cfg.PumpEfficiency)
	hyd, err := net.Evaluate(units.MLPerMinToM3PerS(cfg.FlowMLMin))
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("core: hydraulics: %w", err)
	}
	rep.Hydraulics = hyd
	rep.NetElectricalGainW = rep.DeliveredW - hyd.PumpPower
	return rep, nil
}

// pdnLoadFor is core's sink current density for cfg: the problem's
// field rescaled to the supply and chip load, copied before scaling.
func pdnLoadFor(p *pdn.Problem, f *floorplan.Floorplan, cfg core.Config) *mesh.Field2D {
	load := p.LoadDensity
	if cfg.SupplyVoltage != p.Supply {
		load = pdn.CacheLoad(f, load.Grid, cfg.SupplyVoltage)
	}
	if cfg.ChipLoad != 1 {
		if load == p.LoadDensity {
			load = &mesh.Field2D{Grid: load.Grid, Data: append([]float64(nil), load.Data...)}
		}
		for k := range load.Data {
			load.Data[k] *= cfg.ChipLoad
		}
	}
	return load
}

// pdnKey is core's PDN dedupe key: (SupplyVoltage, ChipLoad) quantized
// like the canonical key.
func pdnKey(cfg core.Config) string {
	q := func(v float64) float64 {
		r := math.Round(v/1e-9) * 1e-9
		if r == 0 {
			r = 0
		}
		return r
	}
	return fmt.Sprintf("%.9f|%.9f", q(cfg.SupplyVoltage), q(cfg.ChipLoad))
}

// tracedBatch is the composed core.Batch of one sweep segment.
type tracedBatch struct {
	c      *composer
	runner *runner
	pdn    pdnState
}

// prefetch is core.Batch.PrefetchChain.
func (b *tracedBatch) prefetch(ctx context.Context, cfgs []core.Config) error {
	if len(cfgs) < 2 {
		return nil
	}
	req := b.c.reqOf(ctx)
	root := b.c.tr.begin(spanPrefetch, 0, req)
	defer root.end()
	p, _, err := pdn.Power7Problem()
	if err != nil {
		return err
	}
	fp := floorplan.Power7()
	var keys []string
	var loads []*mesh.Field2D
	var supplies []float64
	seen := make(map[string]bool, len(cfgs))
	for _, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return err
		}
		k := pdnKey(cfg)
		if seen[k] || b.pdn.gridCache[k] != nil {
			continue
		}
		seen[k] = true
		keys = append(keys, k)
		loads = append(loads, pdnLoadFor(p, fp, cfg))
		supplies = append(supplies, cfg.SupplyVoltage)
	}
	if len(keys) == 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if b.pdn.ses == nil {
		sp := b.c.tr.begin(spanPDNSetup, root.id(), req)
		ses, err := pdn.NewSession(p)
		sp.end()
		if err != nil {
			return fmt.Errorf("core: power grid: %w", err)
		}
		b.pdn.ses = ses
	}
	sp := b.c.tr.begin(spanPDNBatch, root.id(), req)
	sols, err := b.pdn.ses.SolveBatch(loads, supplies)
	sp.end()
	if err != nil {
		return fmt.Errorf("core: chain prefetch: %w", err)
	}
	if b.pdn.gridCache == nil {
		b.pdn.gridCache = make(map[string]*pdn.Solution, len(keys))
	}
	for i, k := range keys {
		b.pdn.gridCache[k] = sols[i]
	}
	return nil
}

// evaluate is core.Batch.EvaluateContext.
func (b *tracedBatch) evaluate(ctx context.Context, cfg core.Config) (*core.Report, error) {
	req := b.c.reqOf(ctx)
	root := b.c.tr.begin(spanChainPoint, 0, req)
	defer root.end()
	s, err := core.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	if b.runner == nil || !b.runner.matches(cfg.FlowMLMin, cfg.InletTempC) {
		r, err := b.c.newRunner(cfg.FlowMLMin, cfg.InletTempC, req, root.id())
		if err != nil {
			return nil, fmt.Errorf("core: co-simulation: %w", err)
		}
		b.runner = r
	}
	return b.c.evaluateWith(ctx, s, &b.pdn, req, root.id(), func(ctx context.Context, cc cosim.Config) (*cosim.Result, error) {
		return b.runner.run(ctx, cc, req, root.id())
	})
}
