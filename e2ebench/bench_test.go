package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"bright/internal/core"
	"bright/internal/sim"
)

func TestGenEvaluateSameSeedSameInputs(t *testing.T) {
	a, b := genEvaluate(7, 90), genEvaluate(7, 90)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different evaluate ops")
	}
	if reflect.DeepEqual(a, genEvaluate(8, 90)) {
		t.Fatal("different seeds produced identical evaluate ops")
	}
	if !reflect.DeepEqual(genSweep(7, 2), genSweep(7, 2)) || !reflect.DeepEqual(genSession(7, 1, 3), genSession(7, 1, 3)) {
		t.Fatal("same seed produced different sweep or session inputs")
	}
}

func TestGenEvaluateFreshConfigsDistinct(t *testing.T) {
	seen := map[string]bool{core.DefaultConfig().CanonicalKey(): true}
	for seed := int64(1); seed <= 20; seed++ {
		clear(seen)
		seen[core.DefaultConfig().CanonicalKey()] = true
		for i, op := range genEvaluate(seed, 300) {
			if op.Repeat {
				continue
			}
			c := op.Cfg
			if c.FlowMLMin < flowMin || c.FlowMLMin > flowMax || c.InletTempC < inletMin || c.InletTempC > inletMax ||
				c.SupplyVoltage < supplyMin || c.SupplyVoltage > supplyMax || c.ChipLoad < loadMin || c.ChipLoad > loadMax {
				t.Fatalf("seed %d op %d outside the input ranges: %+v", seed, i, c)
			}
			if err := c.Validate(); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, i, err)
			}
			k := c.CanonicalKey()
			if seen[k] {
				t.Fatalf("seed %d op %d: fresh config shares key %s with an earlier config or the warm-up", seed, i, k)
			}
			seen[k] = true
		}
	}
}

func TestGenEvaluateRepeatShare(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		ops := genEvaluate(seed, 99)
		for g := 0; g < len(ops); g += repeatEvery {
			repeats := 0
			for i := g; i < g+repeatEvery; i++ {
				op := ops[i]
				if !op.Repeat {
					continue
				}
				repeats++
				if op.Of >= i || ops[op.Of].Repeat || ops[op.Of].Cfg != op.Cfg {
					t.Fatalf("seed %d op %d repeats op %d, which is not an earlier fresh op with the same config", seed, i, op.Of)
				}
			}
			if repeats != 1 {
				t.Fatalf("seed %d: group at %d has %d repeats, want 1", seed, g, repeats)
			}
		}
	}
}

// Every seed visits the same strata cells in the same order; the seed
// only places values within the middle half of each cell.
func TestGenEvaluateFixedCells(t *testing.T) {
	cell := func(v, lo, hi float64) (int, float64) {
		x := (v - lo) / (hi - lo) * lhsBlock
		i := int(x)
		return i, x - float64(i)
	}
	cells := func(seed int64) [][4]int {
		var out [][4]int
		for _, op := range genEvaluate(seed, 60) {
			if op.Repeat {
				continue
			}
			var c [4]int
			var f [4]float64
			c[0], f[0] = cell(op.Cfg.FlowMLMin, flowMin, flowMax)
			c[1], f[1] = cell(op.Cfg.InletTempC, inletMin, inletMax)
			c[2], f[2] = cell(op.Cfg.SupplyVoltage, supplyMin, supplyMax)
			c[3], f[3] = cell(op.Cfg.ChipLoad, loadMin, loadMax)
			for _, x := range f {
				if x < 0.25 || x > 0.75 {
					t.Fatalf("seed %d: %+v lies outside the middle half of its stratum", seed, op.Cfg)
				}
			}
			out = append(out, c)
		}
		return out
	}
	want := cells(1)
	for seed := int64(2); seed <= 10; seed++ {
		if got := cells(seed); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d visits other strata cells than seed 1", seed)
		}
	}
}

func TestOwnTime(t *testing.T) {
	for _, c := range []struct{ wall, steal, want time.Duration }{
		{1200 * time.Millisecond, 0, 1200 * time.Millisecond},
		{1200 * time.Millisecond, 300 * time.Millisecond, 900 * time.Millisecond},
		// A hit shorter than the steal tick it overlapped.
		{time.Millisecond, 10 * time.Millisecond, 100 * time.Microsecond},
	} {
		if got := ownTime(c.wall, c.steal); got != c.want {
			t.Errorf("ownTime(%v, %v) = %v, want %v", c.wall, c.steal, got, c.want)
		}
	}
	if readSteal() < 0 {
		t.Fatal("negative steal time")
	}
}

func TestGenSweepShape(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		spec := genSweep(seed, 0)
		grid, err := spec.Grid()
		if err != nil {
			t.Fatal(err)
		}
		chains := map[string]int{}
		for _, c := range grid {
			chains[c.ChainKey()]++
		}
		if len(chains) <= 2 {
			t.Fatalf("seed %d: %d chains, want more than the two workers", seed, len(chains))
		}
		for k, n := range chains {
			if n <= sweepSegment {
				t.Fatalf("seed %d: chain %s has %d points, want more than the %d-point segment bound", seed, k, n, sweepSegment)
			}
		}
		if gridHasKey(spec, core.DefaultConfig().CanonicalKey()) {
			t.Fatalf("seed %d: sweep contains the warm-up config", seed)
		}
	}
}

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		xs    []float64
		p     int
		v     float64
		valid bool
	}{
		{seq(100), 90, 90, true},
		{seq(1000), 99, 990, true},
		{seq(11), 9, 1, true},
		{seq(10), 0, 0, false},
		// Ties: 20 samples at 1 and 10 at 2; only a percentile landing on
		// the value 1 has ten samples strictly beyond it.
		{append(repeatVal(1, 20), repeatVal(2, 10)...), 66, 1, true},
	} {
		p, v, ok := tail(c.xs)
		if ok != c.valid || ok && (p != c.p || v != c.v) {
			t.Errorf("tail of %d samples = (p%d, %g, %v), want (p%d, %g, %v)", len(c.xs), p, v, ok, c.p, c.v, c.valid)
		}
	}
}

func repeatVal(v float64, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = v
	}
	return xs
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50}, // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 70, End: 80},
		{ID: 5, Parent: 3, Name: "d", Start: 25, End: 35},
		{ID: 6, Parent: 1, Name: "e", Start: 90, End: 120}, // runs past the parent
	}
	want := map[int64]time.Duration{1: 100 - 40 - 10 - 10, 2: 20, 3: 20, 4: 10, 5: 10, 6: 30}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	st := byStage(spans)
	if st["root"].self != 40 || st["b"].total != 30 || st["b"].count != 1 {
		t.Fatalf("stage aggregate root=%+v b=%+v", st["root"], st["b"])
	}
}

var nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metricUnits returns the "name unit" pairs each output mode prints.
func metricUnits() (e2e, layers []string) {
	p := &pass{workload: wlEvaluate, info: map[string]any{}}
	m, _ := p.endToEnd(1)
	l := layerMetrics(wlEvaluate, p, nil)
	for k, v := range traceMetrics(0, 0, 0) {
		l[k] = v
	}
	pairs := func(m map[string]metric) []string {
		var out []string
		for _, k := range sortedKeys(m) {
			out = append(out, k+" "+m[k].Unit)
		}
		return out
	}
	return pairs(m), pairs(l)
}

func TestMetricNames(t *testing.T) {
	e2e, layers := metricUnits()
	for _, nu := range append(append([]string(nil), e2e...), layers...) {
		if n := strings.Fields(nu)[0]; !nameRe.MatchString(n) {
			t.Errorf("metric name %q uses characters outside [A-Za-z0-9_.-]", n)
		}
	}
	for _, w := range workloads {
		p := &pass{workload: w, info: map[string]any{}}
		_, named := p.endToEnd(1)
		for n := range named {
			if !nameRe.MatchString(n) {
				t.Errorf("%s metric name %q uses characters outside [A-Za-z0-9_.-]", w, n)
			}
		}
	}
	// The benchmark manifest lists exactly what the two modes print.
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no manifest: %v", err)
	}
	type entry struct{ Name, Unit string }
	var manifest struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &manifest); err != nil {
		t.Fatal(err)
	}
	names := func(xs []entry) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name+" "+x.Unit)
		}
		sort.Strings(out)
		return out
	}
	if got := names(manifest.EndToEnd); !reflect.DeepEqual(got, e2e) {
		t.Errorf("manifest end_to_end %v, benchmark prints %v", got, e2e)
	}
	if got := names(manifest.PerLayer); !reflect.DeepEqual(got, layers) {
		t.Errorf("manifest per_layer %v, benchmark prints %v", got, layers)
	}
}

// TestComposedMatchesProduction holds the traced composition bitwise
// equal to the production solvers: one evaluate, and a sweep chain with
// its prefetch.
func TestComposedMatchesProduction(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full co-simulations")
	}
	ctx := context.Background()
	comp := &composer{tr: newTracer(), req: func(context.Context) string { return "" }}
	cfg := genEvaluate(3, 1)[0].Cfg
	want, err := sim.DefaultSolver(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := comp.solver(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sim.NewReportView(got) != sim.NewReportView(want) {
		t.Fatalf("composed evaluate differs:\n got %+v\nwant %+v", sim.NewReportView(got), sim.NewReportView(want))
	}

	grid, err := sim.SweepSpec{FlowsMLMin: []float64{300}, SupplyVoltages: []float64{0.95, 1.05}, ChipLoads: []float64{0.6, 0.9}}.Grid()
	if err != nil {
		t.Fatal(err)
	}
	b := core.NewBatch()
	solve, prefetch := comp.batchChain()
	if err := b.PrefetchChain(ctx, grid); err != nil {
		t.Fatal(err)
	}
	if err := prefetch(ctx, grid); err != nil {
		t.Fatal(err)
	}
	for i, c := range grid {
		want, err := b.EvaluateContext(ctx, c)
		if err != nil {
			t.Fatal(err)
		}
		got, err := solve(ctx, c)
		if err != nil {
			t.Fatal(err)
		}
		if sim.NewReportView(got) != sim.NewReportView(want) {
			t.Fatalf("chain point %d differs", i)
		}
	}
	st := byStage(comp.tr.snapshot())
	for _, name := range []string{spanEvaluate, spanChainPoint, spanPrefetch, spanCosimRun, spanCosimIter,
		spanPolarize, spanAssemble, spanThermalSolve, spanPDNSetup, spanPDNSolve, spanPDNBatch, spanHydro} {
		if st[name] == nil {
			t.Errorf("no %s span recorded", name)
		}
	}
}
