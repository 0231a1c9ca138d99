package main

import (
	"context"
	"fmt"
	"math"

	"bright/internal/core"
	"bright/internal/floorplan"
	"bright/internal/flowcell"
	"bright/internal/mesh"
	"bright/internal/pdn"
	"bright/internal/stream"
	"bright/internal/thermal"
	"bright/internal/units"
	"bright/internal/workload"
)

// This file replays a streaming session outside the server. The stream
// manager hides its per-session engine, so the traced run recomposes it
// from the same public calls in the same order — thermal and PDN
// transient sessions, the quasi-static flow-cell operating point and
// the hydraulics — with a span around each, and holds every replayed
// frame bitwise equal to the frame the server streamed.

// Stream engine constants (internal/stream/engine.go).
const (
	replayPDNDt        = 1e-6
	replaySettleSteps  = 2
	replayDecapPerArea = 2e-2
	replayRebuildTol   = 0.02
	replayNX, replayNY = 44, 32
	replayDt           = 2e-3
)

// scenarioSetup is the library expansion of one twin-stream scenario
// (internal/stream/spec.go applyScenario).
func scenarioSetup(name string) (*workload.Trace, []stream.Fault, error) {
	switch name {
	case "pump-degradation":
		return workload.Steady(1, 1), []stream.Fault{{
			Kind: stream.FaultPumpDegradation, StartS: 0.02, RampS: 0.1, FlowScale: 0.35,
		}}, nil
	case "channel-clog":
		return workload.Burst(0.04, 0.5), []stream.Fault{{
			Kind: stream.FaultChannelClog, StartS: 0.05, Channels: 30,
		}}, nil
	}
	return nil, nil, fmt.Errorf("no replay for scenario %q", name)
}

type replayEngine struct {
	tr  *tracer
	req string

	cfg       core.Config
	trace     *workload.Trace
	faults    []stream.Fault
	nChannels int

	f           *floorplan.Floorplan
	pm          workload.PowerModel
	fullPowerW  float64
	inletK      float64
	phaseFields []*mesh.Field2D

	ts         *thermal.TransientSession
	builtScale float64
	rebuilds   int

	pdnTS         *pdn.TransientSession
	vrm           pdn.VRM
	lastLoadScale float64

	heatW float64
	time  float64
}

// newReplay is the session engine constructor under a stream.create
// span.
func newReplay(tr *tracer, req string, spec sessionSpec) (*replayEngine, error) {
	trace, faults, err := scenarioSetup(spec.Scenario)
	if err != nil {
		return nil, err
	}
	sp := tr.begin(spanStreamCreate, 0, req)
	defer sp.end()
	cfg := core.DefaultConfig()
	cfg.FlowMLMin, cfg.InletTempC = spec.FlowMLMin, spec.InletTempC
	e := &replayEngine{
		tr: tr, req: req,
		cfg: cfg, trace: trace, faults: faults,
		nChannels:     thermal.Power7ChannelSpec(1, 300, thermal.VanadiumCoolant()).NChannels,
		f:             floorplan.Power7(),
		pm:            workload.Power7PowerModel(),
		inletK:        units.CtoK(cfg.InletTempC),
		builtScale:    1,
		lastLoadScale: -1,
		vrm:           pdn.DefaultVRM(),
	}
	e.fullPowerW = e.pm.TotalPower(e.f, workload.Utilization{Default: 1})
	if e.ts, err = e.buildThermal(1, sp.id()); err != nil {
		return nil, err
	}
	grid := e.ts.Grid()
	e.phaseFields = make([]*mesh.Field2D, len(trace.Phases))
	for k, ph := range trace.Phases {
		e.phaseFields[k] = e.pm.DensityField(e.f, grid, ph.Util)
	}
	ps := tr.begin(spanPDNSetup, sp.id(), req)
	defer ps.end()
	base, vrm, err := pdn.Power7Problem()
	if err != nil {
		return nil, err
	}
	if cfg.SupplyVoltage != base.Supply {
		base.Supply = cfg.SupplyVoltage
		base.LoadDensity = pdn.CacheLoad(base.Floorplan, base.LoadDensity.Grid, base.Supply)
	}
	e.vrm = vrm
	e.pdnTS, err = pdn.NewTransientSession(base, replayDecapPerArea, replayPDNDt)
	return e, err
}

func (e *replayEngine) buildThermal(scale float64, parent int64) (*thermal.TransientSession, error) {
	sp := e.tr.begin(spanAssemble, parent, e.req)
	defer sp.end()
	flow := units.MLPerMinToM3PerS(e.cfg.FlowMLMin * scale)
	spec := thermal.Power7ChannelSpec(flow, e.inletK, thermal.VanadiumCoolant())
	p := &thermal.Problem{
		DieWidth:  e.f.Width,
		DieHeight: e.f.Height,
		Stack:     thermal.Power7Stack(spec),
		NX:        replayNX, NY: replayNY,
	}
	p.Power = e.pm.DensityField(e.f, p.Grid(), workload.Utilization{Default: 1})
	return thermal.NewTransientSession(p, e.inletK, replayDt)
}

// faultScale is stream.Fault's flow multiplier at time t.
func faultScale(fl stream.Fault, t float64, nChannels int) float64 {
	target := fl.FlowScale
	if fl.Kind == stream.FaultChannelClog {
		target = 1 - float64(fl.Channels)/float64(nChannels)
	}
	switch {
	case t < fl.StartS:
		return 1
	case fl.RampS <= 0 || t >= fl.StartS+fl.RampS:
		return target
	default:
		frac := (t - fl.StartS) / fl.RampS
		return 1 + frac*(target-1)
	}
}

func (e *replayEngine) flowScaleAt(t float64) float64 {
	scale := 1.0
	for _, fl := range e.faults {
		scale *= faultScale(fl, t, e.nChannels)
	}
	return math.Max(scale, 0.05)
}

// stepFrame is the engine's frame step under a stream.frame span.
func (e *replayEngine) stepFrame(ctx context.Context) (stream.Frame, error) {
	fr := e.tr.begin(spanStreamFrame, 0, e.req)
	defer fr.end()
	t0 := e.time
	tEnd := t0 + replayDt
	k := e.trace.PhaseIndexAt(t0 + replayDt/2)
	power, chipPowW := e.phaseFields[k], e.pm.TotalPower(e.f, e.trace.Phases[k].Util)

	scale := e.flowScaleAt(tEnd)
	if math.Abs(scale-e.builtScale) > replayRebuildTol*e.builtScale {
		state, time, step := e.ts.State(), e.ts.Time(), e.ts.Steps()
		ts, err := e.buildThermal(scale, fr.id())
		if err != nil {
			return stream.Frame{}, err
		}
		if err := ts.Restore(state, time, step); err != nil {
			return stream.Frame{}, err
		}
		e.ts = ts
		e.builtScale = scale
		e.rebuilds++
	}
	effFlowML := e.cfg.FlowMLMin * scale

	sp := e.tr.begin(spanTransientStep, fr.id(), e.req)
	sol, err := e.ts.StepContext(ctx, power, e.heatW)
	sp.end()
	if err != nil {
		return stream.Frame{}, err
	}

	sp = e.tr.begin(spanPolarize, fr.id(), e.req)
	film := 0.5 * (sol.MeanFluidT + sol.MeanWallT)
	array := flowcell.Power7ArrayAt(effFlowML, film)
	op, err := array.CurrentAtVoltage(e.cfg.SupplyVoltage)
	var heat float64
	if err == nil {
		heat, err = array.HeatDissipation(op)
	}
	sp.end()
	if err != nil {
		return stream.Frame{}, err
	}
	e.heatW = heat

	frame := stream.Frame{
		TimeS:          tEnd,
		ChipPowerW:     chipPowW,
		PeakTempC:      units.KtoC(sol.PeakT),
		MeanFluidTempC: units.KtoC(sol.MeanFluidT),
		FilmTempC:      units.KtoC(film),
		ArrayCurrentA:  op.Current,
		ArrayPowerW:    op.Power,
		DeliveredW:     op.Power * e.vrm.Efficiency,
		ArrayHeatW:     heat,
		FlowMLMin:      effFlowML,
		FlowScale:      scale,
	}

	sp = e.tr.begin(spanPDNTransient, fr.id(), e.req)
	loadScale := chipPowW / e.fullPowerW
	droopV := math.Inf(1)
	if e.lastLoadScale >= 0 && math.Abs(loadScale-e.lastLoadScale) > 1e-9 {
		_, minVC, err := e.pdnTS.StepFrozen(loadScale)
		if err != nil {
			sp.end()
			return stream.Frame{}, err
		}
		droopV = minVC
	}
	var minVC float64
	for i := 0; i < replaySettleSteps; i++ {
		if _, minVC, err = e.pdnTS.Step(loadScale); err != nil {
			sp.end()
			return stream.Frame{}, err
		}
	}
	sp.end()
	frame.MinVCacheV = minVC
	if droopV < minVC {
		frame.DroopMV = 1000 * (minVC - droopV)
	}
	e.lastLoadScale = loadScale

	sp = e.tr.begin(spanHydro, fr.id(), e.req)
	net := array.HydraulicNetwork(e.cfg.ManifoldK, e.cfg.PumpEfficiency)
	rep, err := net.Evaluate(units.MLPerMinToM3PerS(effFlowML))
	sp.end()
	if err != nil {
		return stream.Frame{}, err
	}
	frame.PumpPowerW = rep.PumpPower
	frame.PressureDropBar = units.PaToBar(rep.TotalDrop)
	frame.NetGainW = frame.DeliveredW - rep.PumpPower
	e.time = tEnd
	return frame, nil
}

// replaySession recomposes one served session and returns the number of
// frames that differ from what the server streamed, and the thermal
// rebuilds the replay made.
func replaySession(ctx context.Context, tr *tracer, r sessRec) (mismatched, rebuilds int, err error) {
	e, err := newReplay(tr, r.id, r.spec)
	if err != nil {
		return 0, 0, err
	}
	for i, got := range r.frames {
		want, err := e.stepFrame(ctx)
		if err != nil {
			return 0, 0, err
		}
		want.Seq = uint64(i + 1)
		if want != got {
			mismatched++
		}
	}
	return mismatched, e.rebuilds, nil
}
