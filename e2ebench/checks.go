package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"bright/internal/core"
	"bright/internal/cosim"
	"bright/internal/flowcell"
	"bright/internal/sim"
	"bright/internal/stream"
	"bright/internal/thermal"
	"bright/internal/units"
)

// checkReport is the per-result gate: the report echoes the requested
// config, every number is finite, the co-simulation converged, and the
// physics is sane (the die runs hotter than the coolant inlet, the array
// sources current, the cache rail sits below its supply).
func checkReport(v sim.ReportView, want core.Config) error {
	if v.Config != want {
		return fmt.Errorf("report config %+v, requested %+v", v.Config, want)
	}
	for name, x := range map[string]float64{
		"array_current_a": v.ArrayCurrentA, "array_power_w": v.ArrayPowerW, "delivered_w": v.DeliveredW,
		"cache_demand_w": v.CacheDemandW, "min_v_cache_v": v.MinVCacheV, "peak_temp_c": v.PeakTempC,
		"outlet_temp_c": v.OutletTempC, "pump_power_w": v.PumpPowerW, "pressure_drop_bar": v.PressureDropBar,
		"net_electrical_gain_w": v.NetElectricalGainW,
	} {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("%s is %g", name, x)
		}
	}
	switch {
	case !v.CoSimConverged:
		return fmt.Errorf("co-simulation did not converge (%d iterations)", v.CoSimIterations)
	case v.PeakTempC <= want.InletTempC:
		return fmt.Errorf("peak %.3f C not above inlet %.3f C", v.PeakTempC, want.InletTempC)
	case v.ArrayCurrentA <= 0:
		return fmt.Errorf("array current %g A", v.ArrayCurrentA)
	case v.MinVCacheV <= 0 || v.MinVCacheV > want.SupplyVoltage:
		return fmt.Errorf("min cache voltage %g V outside (0, %g]", v.MinVCacheV, want.SupplyVoltage)
	}
	return nil
}

// checkBands holds the nominal report to the EXPERIMENTS.md acceptance
// bands that internal/experiments asserts.
func checkBands(v sim.ReportView) error {
	switch {
	case math.Abs(v.ArrayCurrentA-6.0) > 0.9:
		return fmt.Errorf("Fig. 7: current at 1 V %.3f A outside 6 +- 0.9 A", v.ArrayCurrentA)
	case v.MinVCacheV < 0.93 || v.MinVCacheV > 0.995:
		return fmt.Errorf("Fig. 8: min cache voltage %.4f V outside [0.93, 0.995]", v.MinVCacheV)
	case v.PeakTempC < 36 || v.PeakTempC > 44:
		return fmt.Errorf("Fig. 9: peak %.2f C outside [36, 44]", v.PeakTempC)
	case v.PumpPowerW <= 0 || v.PumpPowerW > 4.4:
		return fmt.Errorf("S2: pump power %.3f W outside (0, 4.4]", v.PumpPowerW)
	case v.NetElectricalGainW <= 0:
		return fmt.Errorf("S2: net gain %.3f W not positive", v.NetElectricalGainW)
	}
	return nil
}

// Tolerances for a sweep point against an independent cold evaluate of
// the same config (README.md, "Sweep agreement", derives them).
const (
	// gridTolV is the PDN agreement: both solves stop on a 1e-10
	// relative Krylov residual, far below a microvolt on a 1 V rail.
	gridTolV = 1e-6
	// krylovTolC covers the thermal Krylov stop (1e-10 relative) in C.
	krylovTolC = 1e-6
)

// cellTempTol bounds how far two co-simulations of one config can end
// apart in cell temperature. Each stops once |g(T)-T| < tolK, where g
// maps the cell temperature to the film temperature the thermal solve
// returns; with g a contraction of constant L, that leaves it within
// tolK/(1-L) of the fixed point, so two runs differ by at most
// 2 tolK/(1-L). L is estimated from the run's own iterates: g(T_k) is
// recovered from the relaxed update T_{k+1} = T_k + relax (g(T_k)-T_k).
func cellTempTol(res *cosim.Result) (float64, error) {
	h := res.History
	relax, tolK := res.Config.Relax, res.Config.TolK
	g := make([]float64, 0, len(h))
	for k := 0; k+1 < len(h); k++ {
		g = append(g, h[k].CellTempK+(h[k+1].CellTempK-h[k].CellTempK)/relax)
	}
	var l float64
	for k := 1; k < len(g); k++ {
		if dT := math.Abs(h[k].CellTempK - h[k-1].CellTempK); dT > 0 {
			l = math.Max(l, math.Abs(g[k]-g[k-1])/dT)
		}
	}
	if l >= 1 {
		return 0, fmt.Errorf("co-simulation map is not a contraction (L=%.3f)", l)
	}
	return 2 * tolK / (1 - l), nil
}

// sweepSample picks n seeded grid indices of a sweep to cross-check.
func sweepSample(seed int64, k, total, n int) []int {
	rng := rand.New(rand.NewSource(seed*31 + int64(k)))
	return rng.Perm(total)[:min(n, total)]
}

// checkSweepPoint compares a served sweep point with an independent
// core.System.EvaluateContext of the same config.
func checkSweepPoint(ctx context.Context, got sim.ReportView) error {
	sys, err := core.NewSystem(got.Config)
	if err != nil {
		return err
	}
	ref, err := sys.EvaluateContext(ctx)
	if err != nil {
		return fmt.Errorf("independent evaluate: %w", err)
	}
	want := sim.NewReportView(ref)
	cfg := got.Config
	dT, err := cellTempTol(ref.CoSim)
	if err != nil {
		return err
	}
	// Sensitivities of the electrochemistry to the cell temperature, by
	// central differences of the public array model at the reference
	// cell temperature.
	const h = 0.05
	tc := ref.CoSim.CellTempK
	lo := flowcell.Power7ArrayAt(cfg.FlowMLMin, tc-h)
	hi := flowcell.Power7ArrayAt(cfg.FlowMLMin, tc+h)
	opLo, err1 := lo.CurrentAtVoltage(cfg.SupplyVoltage)
	opHi, err2 := hi.CurrentAtVoltage(cfg.SupplyVoltage)
	if err1 != nil || err2 != nil {
		return fmt.Errorf("array sensitivity: %v %v", err1, err2)
	}
	qLo, err1 := lo.HeatDissipation(opLo)
	qHi, err2 := hi.HeatDissipation(opHi)
	if err1 != nil || err2 != nil {
		return fmt.Errorf("heat sensitivity: %v %v", err1, err2)
	}
	dIdT := math.Abs(opHi.Current-opLo.Current) / (2 * h)
	dQdT := math.Abs(qHi-qLo) / (2 * h)
	// Extra coolant heat dQ raises the coolant by at most dQ/(m cp) at
	// the outlet, and the die above it by no more.
	fl := thermal.VanadiumCoolant()
	mcp := fl.HeatCapacityVol * units.MLPerMinToM3PerS(cfg.FlowMLMin)
	tolI := dIdT*dT + 1e-9
	tolT := dQdT*dT/mcp + krylovTolC
	for _, c := range []struct {
		name      string
		got, want float64
		tol       float64
	}{
		{"array_current_a", got.ArrayCurrentA, want.ArrayCurrentA, tolI},
		{"array_power_w", got.ArrayPowerW, want.ArrayPowerW, tolI * cfg.SupplyVoltage},
		{"peak_temp_c", got.PeakTempC, want.PeakTempC, tolT},
		{"outlet_temp_c", got.OutletTempC, want.OutletTempC, tolT},
		{"min_v_cache_v", got.MinVCacheV, want.MinVCacheV, gridTolV},
		{"pump_power_w", got.PumpPowerW, want.PumpPowerW, 0},
		{"pressure_drop_bar", got.PressureDropBar, want.PressureDropBar, 0},
		{"cache_demand_w", got.CacheDemandW, want.CacheDemandW, 0},
	} {
		if d := math.Abs(c.got - c.want); d > c.tol {
			return fmt.Errorf("%s: sweep %.12g vs independent %.12g (|d|=%.3g > tol %.3g)", c.name, c.got, c.want, d, c.tol)
		}
	}
	return nil
}

// checkSession holds one streaming session to its contract: frames
// numbered 1..max_frames without a hole, no gap record, ended
// completed, every frame finite.
func checkSession(r sessRec, maxFrames int) error {
	switch {
	case r.gaps > 0:
		return fmt.Errorf("session %s: %d gap records", r.id, r.gaps)
	case r.end != stream.StateCompleted:
		return fmt.Errorf("session %s ended %q, want %q", r.id, r.end, stream.StateCompleted)
	case len(r.frames) != maxFrames:
		return fmt.Errorf("session %s: %d frames, want %d", r.id, len(r.frames), maxFrames)
	}
	for i, f := range r.frames {
		if f.Seq != uint64(i+1) {
			return fmt.Errorf("session %s: frame %d has seq %d", r.id, i+1, f.Seq)
		}
		for _, x := range []float64{f.TimeS, f.PeakTempC, f.ArrayCurrentA, f.MinVCacheV, f.NetGainW} {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return fmt.Errorf("session %s: frame %d carries %g", r.id, f.Seq, x)
			}
		}
	}
	return nil
}
