// Command benchjson converts `go test -bench` text output into a
// machine-readable JSON report. It reads one or more benchmark output
// files (or stdin when none are given), parses every benchmark result
// line, and emits a single JSON document with per-benchmark ns/op,
// B/op, allocs/op and any custom metrics, plus speedup pairs for
// benchmarks that expose paired sub-benchmarks: /jacobi vs /mg
// (preconditioner), /seq vs /block (multi-RHS CG) and /csr vs /sell
// (SELL-C-σ SpMV layout).
//
// Usage:
//
//	go test -bench . -benchmem ./internal/num > num.txt
//	benchjson -o BENCH.json [-min-mg-speedup 1.0] [-min-speedup 1.0] num.txt [more.txt ...]
//
// Repeated rows of one benchmark (`go test -count N`) collapse into a
// single row carrying the per-column median, with the sample count
// recorded — on shared or frequency-scaled boxes the median of a few
// repetitions is far more stable than any single run, so gated ratios
// do not flake on CPU drift.
//
// The floors turn the report into a regression gate: after writing the
// output, -min-mg-speedup exits nonzero if any jacobi-vs-mg pair falls
// below the threshold, and -min-speedup does the same for the blockcg
// and sell pairings — each gated kind must also be
// present at all (a silently skipped benchmark must not pass the gate).
// `make bench-compare` runs both at 1.0 so no optimized solver path can
// quietly regress below its baseline on the reference grids.
//
// Most pairs compare wall clock (ns/op). The blockcg couple instead
// compares the rows/op metric when both sides report it — CSR rows
// traversed per sweep chain, the deterministic currency of multi-RHS
// amortization — so that gate measures the algorithmic saving exactly
// rather than a machine-dependent timing; each speedup row records
// which unit it was computed on.
//
// The report records the machine context (Go version, GOMAXPROCS, CPU
// line from the benchmark header) so numbers from different boxes are
// never compared blind.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	// Name is the benchmark name with the -GOMAXPROCS suffix stripped.
	Name string `json:"name"`
	// Package is the pkg: line in effect when the result appeared.
	Package    string  `json:"package,omitempty"`
	Iterations int64   `json:"iterations"`
	NsOp       float64 `json:"ns_op"`
	// BytesOp and AllocsOp are -1 when the run lacked -benchmem.
	BytesOp  float64 `json:"bytes_op"`
	AllocsOp float64 `json:"allocs_op"`
	// Metrics holds any further "value unit" pairs (e.g. MB/s, custom
	// b.ReportMetric units).
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Samples is the repetition count this row is the median of, when
	// the input held the benchmark more than once (`go test -count N`);
	// 0 means a single run.
	Samples int `json:"samples,omitempty"`
}

// Speedup pairs a benchmark's baseline and optimized variants. Kind
// names the pairing: "mg" for /jacobi vs /mg, "blockcg" for /seq vs
// /block, "sell" for /csr vs /sell.
type Speedup struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	// Unit is the column the pair is compared on: "ns/op" for wall
	// clock (the default), or a custom metric such as "rows/op" for the
	// blockcg kind.
	Unit     string  `json:"unit"`
	Baseline float64 `json:"baseline"`
	Variant  float64 `json:"variant"`
	// Speedup = baseline / variant: > 1 means the optimized path wins.
	Speedup float64 `json:"speedup"`
}

// FrameRate surfaces a streaming-session stepping benchmark's frames/s
// metric (b.ReportMetric in internal/stream) as a first-class report
// row, so the digital-twin frame rate is trackable across PRs without
// digging through the generic metrics maps.
type FrameRate struct {
	Name         string  `json:"name"`
	FramesPerSec float64 `json:"frames_per_sec"`
}

// suffixPairs lists the recognized baseline/variant sub-benchmark
// suffix conventions.
var suffixPairs = []struct{ kind, baseline, variant string }{
	{"mg", "/jacobi", "/mg"},
	{"blockcg", "/seq", "/block"},
	{"sell", "/csr", "/sell"},
}

// gatedKinds are the pairings -min-speedup enforces: each must appear at
// least once and every pair must meet the floor. They cover the two
// solver-optimization axes besides multigrid — block multi-RHS CG and
// the SELL-C-σ SpMV layout.
var gatedKinds = []string{"blockcg", "sell"}

// Report is the emitted document.
type Report struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// Cores is GOMAXPROCS on the generating machine — read it before
	// comparing timings across reports.
	Cores      int         `json:"cores"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
	Speedups   []Speedup   `json:"speedups,omitempty"`
	// FrameRates lists every benchmark reporting a frames/s metric
	// (streaming-session stepping throughput).
	FrameRates []FrameRate `json:"frame_rates,omitempty"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	minMG := flag.Float64("min-mg-speedup", 0,
		"exit nonzero if any jacobi-vs-mg pair's speedup falls below this, or none exists (0 disables)")
	minSpeedup := flag.Float64("min-speedup", 0,
		"exit nonzero unless every blockcg and sell pair exists and meets this floor (0 disables)")
	flag.Parse()

	rep := &Report{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Cores:     runtime.GOMAXPROCS(0),
	}
	if flag.NArg() == 0 {
		if err := parse(os.Stdin, rep); err != nil {
			fatal(err)
		}
	}
	for _, path := range flag.Args() {
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		err = parse(f, rep)
		//lint:ignore errignore read-side close; a parse failure is already fatal below
		f.Close()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
	}
	rep.Benchmarks = collapse(rep.Benchmarks)
	rep.Speedups = speedups(rep.Benchmarks)
	rep.FrameRates = frameRates(rep.Benchmarks)

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		if _, err := os.Stdout.Write(enc); err != nil {
			fatal(err)
		}
	} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatal(err)
	}
	// The gate runs after the report is written, so a regression still
	// leaves the numbers on disk for inspection.
	if *minMG > 0 {
		enforceKind(rep.Speedups, "mg", *minMG)
	}
	if *minSpeedup > 0 {
		for _, kind := range gatedKinds {
			enforceKind(rep.Speedups, kind, *minSpeedup)
		}
	}
}

// enforceKind fails the process when a pairing kind's rows regress below
// the floor — or are missing entirely, which would otherwise let a
// skipped benchmark pass the gate.
func enforceKind(sp []Speedup, kind string, floor float64) {
	found, bad := 0, 0
	for _, s := range sp {
		if s.Kind != kind {
			continue
		}
		found++
		if s.Speedup < floor {
			fmt.Fprintf(os.Stderr, "benchjson: %s %s speedup %.2fx below required %.2fx\n",
				s.Name, kind, s.Speedup, floor)
			bad++
		}
	}
	if found == 0 {
		fatal(fmt.Errorf("speedup floor %.2f set for kind %q but no such pairs found", floor, kind))
	}
	if bad > 0 {
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: %d %s pair(s) at or above %.2fx\n", found, kind, floor)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}

// parse consumes one `go test -bench` output stream, appending results
// to the report and capturing the cpu/pkg header lines.
func parse(r io.Reader, rep *Report) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	pkg := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg: "))
			continue
		case strings.HasPrefix(line, "cpu: "):
			if rep.CPU == "" {
				rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu: "))
			}
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		b, ok := parseLine(line)
		if !ok {
			continue
		}
		b.Package = pkg
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
	return sc.Err()
}

// parseLine parses "BenchmarkName-8  123  456 ns/op  0 B/op  0 allocs/op".
func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, false
	}
	name := fields[0]
	// Strip the -GOMAXPROCS suffix from the last path segment only.
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: name, Iterations: iters, BytesOp: -1, AllocsOp: -1}
	// The remainder is "value unit" pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsOp = v
		case "B/op":
			b.BytesOp = v
		case "allocs/op":
			b.AllocsOp = v
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = v
		}
	}
	return b, b.NsOp > 0
}

// median returns the middle value of vs (mean of the middle two for
// even counts). vs is sorted in place.
func median(vs []float64) float64 {
	sort.Float64s(vs)
	n := len(vs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// collapse merges repeated rows of one benchmark — `go test -count N`
// emits the full result line N times — into a single row holding the
// per-column median, first-appearance order preserved. Medians are
// taken column-wise (ns/op, B/op, allocs/op, every custom metric), so
// one repetition hit by a CPU-frequency dip or a noisy neighbor cannot
// drag a gated ratio under its floor.
func collapse(benches []Benchmark) []Benchmark {
	type key struct{ pkg, name string }
	var order []key
	groups := map[key][]Benchmark{}
	for _, b := range benches {
		k := key{b.Package, b.Name}
		if groups[k] == nil {
			order = append(order, k)
		}
		groups[k] = append(groups[k], b)
	}
	pick := func(g []Benchmark, f func(Benchmark) float64) float64 {
		vs := make([]float64, len(g))
		for i, b := range g {
			vs[i] = f(b)
		}
		return median(vs)
	}
	out := make([]Benchmark, 0, len(order))
	for _, k := range order {
		g := groups[k]
		m := g[0]
		if len(g) > 1 {
			m.Samples = len(g)
			m.Iterations = int64(pick(g, func(b Benchmark) float64 { return float64(b.Iterations) }))
			m.NsOp = pick(g, func(b Benchmark) float64 { return b.NsOp })
			m.BytesOp = pick(g, func(b Benchmark) float64 { return b.BytesOp })
			m.AllocsOp = pick(g, func(b Benchmark) float64 { return b.AllocsOp })
			units := map[string]bool{}
			for _, b := range g {
				for u := range b.Metrics {
					units[u] = true
				}
			}
			if len(units) > 0 {
				m.Metrics = map[string]float64{}
				for u := range units {
					m.Metrics[u] = pick(g, func(b Benchmark) float64 { return b.Metrics[u] })
				}
			}
		}
		out = append(out, m)
	}
	return out
}

// frameRates extracts the frames/s rows, in benchmark order.
func frameRates(benches []Benchmark) []FrameRate {
	var out []FrameRate
	for _, b := range benches {
		if fps, ok := b.Metrics["frames/s"]; ok && fps > 0 {
			out = append(out, FrameRate{Name: b.Name, FramesPerSec: fps})
		}
	}
	return out
}

// pairMetric picks the column a pairing is compared on. The blockcg
// couple compares rows/op when both sides report it — the deterministic
// traversal-amortization count — and everything else (including a
// blockcg pair without the metric) compares wall clock.
func pairMetric(kind string, base, variant Benchmark) (unit string, bv, vv float64) {
	if kind == "blockcg" {
		br, okB := base.Metrics["rows/op"]
		vr, okV := variant.Metrics["rows/op"]
		if okB && okV && br > 0 && vr > 0 {
			return "rows/op", br, vr
		}
	}
	return "ns/op", base.NsOp, variant.NsOp
}

// speedups pairs every recognized baseline/variant sub-benchmark couple
// (Foo/jacobi with Foo/mg, Foo/seq with Foo/block, Foo/csr with
// Foo/sell).
func speedups(benches []Benchmark) []Speedup {
	byName := map[string]Benchmark{}
	for _, b := range benches {
		byName[b.Name] = b
	}
	var out []Speedup
	seen := map[string]bool{}
	for _, b := range benches {
		for _, p := range suffixPairs {
			base, ok := strings.CutSuffix(b.Name, p.baseline)
			if !ok || seen[base+"\x00"+p.kind] {
				continue
			}
			v, ok := byName[base+p.variant]
			if !ok {
				continue
			}
			unit, bv, vv := pairMetric(p.kind, b, v)
			if bv <= 0 || vv <= 0 {
				continue
			}
			seen[base+"\x00"+p.kind] = true
			out = append(out, Speedup{Name: base, Kind: p.kind, Unit: unit, Baseline: bv, Variant: vv, Speedup: bv / vv})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}
