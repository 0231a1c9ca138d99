package main

import (
	"bufio"
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"bright/internal/obs"
)

// counters is a snapshot of obs.Default's series, keyed by the series
// name with its rendered labels (for example
// `bright_krylov_iterations_total{method="bicgstab"}`).
type counters map[string]float64

// readCounters snapshots every series of the process-wide registry.
func readCounters() (counters, error) {
	var buf bytes.Buffer
	if err := obs.Default.WritePrometheus(&buf); err != nil {
		return nil, fmt.Errorf("reading obs.Default: %w", err)
	}
	out := make(counters)
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// delta returns after-before per series.
func (after counters) delta(before counters) counters {
	out := make(counters, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// Exact process-wide counters whose per-run deltas the traced and
// untraced passes must agree on. They count work, not time, so the
// same inputs give the same deltas whatever the schedule.
var reconciled = []string{
	`bright_krylov_iterations_total{method="bicgstab"}`,
	`bright_krylov_iterations_total{method="cg"}`,
	`bright_krylov_solves_total{method="bicgstab"}`,
	`bright_krylov_solves_total{method="cg"}`,
	`bright_krylov_failures_total`,
	`bright_krylov_maxiter_total`,
	`bright_cosim_iterations_total`,
	`bright_cosim_runs_total{outcome="converged"}`,
	`bright_cosim_runs_total{outcome="maxiter"}`,
	`bright_thermal_session_solves_total{warm="true"}`,
	`bright_thermal_session_solves_total{warm="false"}`,
	`bright_mg_cycles_total`,
	`bright_spmv_rows_total`,
	`bright_blockcg_rhs_total`,
	`bright_mg_setups_total{kind="gmg"}`,
	`bright_sparse_conversions_total{format="sell"}`,
}

// mismatches lists the reconciled series whose deltas differ.
func mismatches(a, b counters) []string {
	var out []string
	for _, k := range reconciled {
		if a[k] != b[k] {
			out = append(out, fmt.Sprintf("%s: untraced %g, traced %g", k, a[k], b[k]))
		}
	}
	sort.Strings(out)
	return out
}
