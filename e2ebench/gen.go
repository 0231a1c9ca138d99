package main

import (
	"math"
	"math/rand"

	"bright/internal/core"
	"bright/internal/sim"
)

// Input ranges of the generated operating points (the paper's Table II
// flow envelope and the inlet/rail/load ranges its sensitivity study
// spans).
const (
	flowMin, flowMax     = 48.0, 676.0
	inletMin, inletMax   = 20.0, 37.0
	supplyMin, supplyMax = 0.9, 1.1
	loadMin, loadMax     = 0.5, 1.0

	// lhsBlock is the number of fresh evaluate configs drawn as one
	// Latin hypercube: every field's range is cut into lhsBlock strata
	// and each stratum is hit exactly once per block, so a run's prefix
	// of fresh configs covers the ranges evenly.
	lhsBlock = 8
	// designSeed fixes which strata the Latin hypercube blocks pair up,
	// block by block: every workload seed visits the same sequence of
	// cells, and the seed only places each value inside its cell. A
	// cold evaluate's cost depends on where its config sits (1.0 to
	// 2.5 s on a 2-vCPU VM) and a run holds only about twenty misses,
	// so with seeded pairings the median miss latency of five seeds
	// spread 10% between its quartiles.
	designSeed = 20140324
	// repeatEvery makes one op in every consecutive group of this many
	// evaluate ops a repeat of an earlier fresh config of the same run.
	repeatEvery = 3
)

// evalOp is one POST /v1/evaluate of the evaluate workload.
type evalOp struct {
	Cfg core.Config
	// Repeat marks a config that an earlier op of the same run already
	// sent (a cache hit on a fresh server); Of is that op's index.
	Repeat bool
	Of     int
}

// genEvaluate returns the first n ops of the evaluate workload for seed.
// Fresh configs come in Latin hypercube blocks over the input ranges,
// with the cells fixed by designSeed and each value seeded within the
// middle half of its stratum; they are pairwise distinct beyond the
// canonical-key quantum, and distinct from the warm-up config. One op
// in every group of repeatEvery repeats a uniformly chosen earlier
// fresh config.
func genEvaluate(seed int64, n int) []evalOp {
	rng := rand.New(rand.NewSource(seed))
	design := rand.New(rand.NewSource(designSeed))
	seen := map[string]bool{core.DefaultConfig().CanonicalKey(): true}
	var block []core.Config
	fresh := func() core.Config {
		for {
			if len(block) == 0 {
				block = lhs(design, rng, lhsBlock)
			}
			cfg := block[0]
			block = block[1:]
			if k := cfg.CanonicalKey(); !seen[k] {
				seen[k] = true
				return cfg
			}
		}
	}
	ops := make([]evalOp, 0, n)
	var freshIdx []int
	for len(ops) < n {
		// Position of the repeat inside this group; the very first group
		// has nothing to repeat at position 0.
		rep := rng.Intn(repeatEvery)
		if len(freshIdx) == 0 && rep == 0 {
			rep = 1 + rng.Intn(repeatEvery-1)
		}
		for pos := 0; pos < repeatEvery && len(ops) < n; pos++ {
			if pos == rep {
				of := freshIdx[rng.Intn(len(freshIdx))]
				ops = append(ops, evalOp{Cfg: ops[of].Cfg, Repeat: true, Of: of})
				continue
			}
			freshIdx = append(freshIdx, len(ops))
			ops = append(ops, evalOp{Cfg: fresh()})
		}
	}
	return ops
}

// lhs draws k configs as a Latin hypercube over the four input ranges:
// design pairs the strata, and jitter places each value within a
// quarter stratum of its stratum's center.
func lhs(design, jitter *rand.Rand, k int) []core.Config {
	axis := func(lo, hi float64) []float64 {
		perm := design.Perm(k)
		v := make([]float64, k)
		for i, s := range perm {
			v[i] = lo + (float64(s)+0.25+0.5*jitter.Float64())/float64(k)*(hi-lo)
		}
		return v
	}
	flows := axis(flowMin, flowMax)
	inlets := axis(inletMin, inletMax)
	supplies := axis(supplyMin, supplyMax)
	loads := axis(loadMin, loadMax)
	cfgs := make([]core.Config, k)
	for i := range cfgs {
		cfg := core.DefaultConfig()
		cfg.FlowMLMin, cfg.InletTempC = flows[i], inlets[i]
		cfg.SupplyVoltage, cfg.ChipLoad = supplies[i], loads[i]
		cfgs[i] = cfg
	}
	return cfgs
}

// Sweep grid shape: sweepFlows warm-start chains (one per flow, one
// inlet), each sweepVolts x sweepLoads points long.
const (
	sweepFlows = 3
	sweepVolts = 3
	sweepLoads = 6
)

// genSweep returns the k-th sweep of the sweep workload for seed: a
// Cartesian grid whose (flow, inlet) chains outnumber the two workers
// and are each longer than the engine's 16-point segment bound. Every
// axis is stratified over its range, value i within an eighth of a
// stratum of the i-th stratum's center, so each sweep spans the
// envelope and the sweep's cost — set by its slowest chains — does not
// swing with the seed (with a quarter stratum, ten seeds' CPU time per
// point spread 0.83–1.02 s, following the one inlet temperature,
// 24.7–32.6 °C); no grid point shares a canonical key with the warm-up
// config.
func genSweep(seed int64, k int) sim.SweepSpec {
	rng := rand.New(rand.NewSource(seed*7919 + int64(k) + 1))
	strata := func(n int, lo, hi float64) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = lo + (float64(i)+0.375+0.25*rng.Float64())/float64(n)*(hi-lo)
		}
		return v
	}
	for {
		spec := sim.SweepSpec{
			FlowsMLMin:     strata(sweepFlows, flowMin, flowMax),
			InletTempsC:    strata(1, inletMin, inletMax),
			SupplyVoltages: strata(sweepVolts, supplyMin, supplyMax),
			ChipLoads:      strata(sweepLoads, loadMin, loadMax),
		}
		if !gridHasKey(spec, core.DefaultConfig().CanonicalKey()) {
			return spec
		}
	}
}

func gridHasKey(spec sim.SweepSpec, key string) bool {
	grid, err := spec.Grid()
	if err != nil {
		return true
	}
	for _, c := range grid {
		if c.CanonicalKey() == key {
			return true
		}
	}
	return false
}

// streamScenarios are the library scenarios the two twin-stream clients
// open, one each: both carry a fault ramp that forces thermal rebuilds.
var streamScenarios = [2]string{"pump-degradation", "channel-clog"}

// sessionSpec is the JSON body of POST /v1/sessions.
type sessionSpec struct {
	Scenario   string  `json:"scenario"`
	FlowMLMin  float64 `json:"flow_ml_min"`
	InletTempC float64 `json:"inlet_temp_c"`
	PDN        bool    `json:"pdn"`
	Auto       bool    `json:"auto"`
}

// genSession returns the k-th session spec client c opens for seed: the
// client's library scenario with PDN on and auto stepping, at a nominal
// flow in 300-676 ml/min and inlet in 20-30 C. Successive sessions walk
// a seeded additive-recurrence (golden-ratio) sequence, so each value is
// uniform over its range while any run's sessions cover the range
// evenly.
func genSession(seed int64, c, k int) sessionSpec {
	rng := rand.New(rand.NewSource(seed*104729 + int64(c)*1009 + 1))
	u, v := rng.Float64(), rng.Float64()
	frac := func(x float64) float64 { return x - math.Floor(x) }
	return sessionSpec{
		Scenario:   streamScenarios[c],
		FlowMLMin:  300 + frac(u+float64(k)*0.6180339887498949)*(flowMax-300),
		InletTempC: inletMin + frac(v+float64(k)*0.7548776662466927)*10,
		PDN:        true,
		Auto:       true,
	}
}
