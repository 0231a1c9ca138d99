// Command e2ebench is bright's end-to-end benchmark: a seeded,
// single-process load generator that drives an in-process brightd over
// loopback HTTP and prints end-to-end metrics (or, traced, per-layer
// metrics) as one JSON line. README.md documents the workloads and
// metrics; run it through run.sh, which builds it first.
//
//	run.sh --workload evaluate|sweep|twin-stream --seed N --seconds S --trace 0|1
//	run.sh --all --seed N --seconds S
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Workload names.
const (
	wlEvaluate = "evaluate"
	wlSweep    = "sweep"
	wlStream   = "twin-stream"
)

var workloads = []string{wlEvaluate, wlSweep, wlStream}

// setupRounds is how many times an untraced run builds a server and
// pays its warm-up op; setup_s is the median, and the last server
// serves the measured window.
const setupRounds = 3

// runDeadline bounds a whole invocation.
const runDeadline = 170 * time.Second

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var logf = log.New(os.Stderr, "e2ebench: ", 0).Printf

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: evaluate, sweep or twin-stream")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 30, "measured window per run (s)")
	trace := fs.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	all := fs.Bool("all", false, "run every workload untraced and print the named end-to-end metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	// The server's access log would interleave with the result lines.
	log.SetOutput(io.Discard)
	budget := time.Duration(*seconds) * time.Second

	if *all {
		for _, w := range workloads {
			ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
			out, err := measure(ctx, w, *seed, budget)
			cancel()
			if err != nil {
				logf("%s: %v", w, err)
				return 1
			}
			printJSON(map[string]any{"workload": w, "correct": out.correct(), "metrics": out.named, "info": out.info})
		}
		return 0
	}
	if !contains(workloads, *workload) {
		logf("unknown workload %q (want %s)", *workload, strings.Join(workloads, ", "))
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	var (
		out *outcome
		err error
	)
	switch *trace {
	case 0:
		out, err = measure(ctx, *workload, *seed, budget)
	case 1:
		out, err = measureTraced(ctx, *workload, *seed, budget)
	default:
		err = fmt.Errorf("--trace %d: want 0 or 1", *trace)
	}
	if err != nil {
		logf("%v", err)
		return 1
	}
	for _, p := range out.problems {
		logf("check failed: %s", p)
	}
	printJSON(map[string]any{"workload": *workload, "named": out.named, "info": out.info})
	metrics := out.e2e
	if *trace == 1 {
		metrics = out.layers
	}
	printJSON(result{Correct: out.correct(), Attempted: out.attempted, Failed: out.failed, Metrics: metrics})
	return 0
}

func printJSON(v any) {
	blob, err := json.Marshal(v)
	if err != nil {
		logf("encoding output: %v", err)
		return
	}
	fmt.Println(string(blob))
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// outcome is everything one invocation measured.
type outcome struct {
	attempted, failed int
	problems          []string
	e2e               map[string]metric // BENCHMARK.json end_to_end names
	named             map[string]metric // the workload-specific names
	layers            map[string]metric // BENCHMARK.json per_layer names
	info              map[string]any
}

func (o *outcome) correct() bool { return o.failed == 0 && len(o.problems) == 0 }

// runInfo records what produced a result.
func runInfo(w string, seed int64, budget time.Duration) map[string]any {
	commit := os.Getenv("BENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"workload":   w,
		"seed":       seed,
		"seconds":    budget.Seconds(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
	}
}

// setUp builds a server, waits for /healthz and runs the warm-up op,
// returning the elapsed wall time and the machine's steal time over it.
// A warm-up check failure is returned as a problem, not an error: the
// server still serves.
func setUp(ctx context.Context, c *composer, tr *tracer) (srv *server, cl *client, wall, steal time.Duration, problem string, err error) {
	t := stampNow()
	srv, err = startServer(c)
	if err != nil {
		return nil, nil, 0, 0, "", err
	}
	cl = newClient(srv.url, tr)
	if err := cl.waitHealthy(ctx); err != nil {
		cl.close()
		return nil, nil, 0, 0, "", errors.Join(err, srv.stop())
	}
	if err := warmUp(ctx, cl); err != nil {
		problem = err.Error()
	}
	wall, steal = t.since()
	return srv, cl, wall, steal, problem, nil
}

// measure is an untraced run: setupRounds set-ups, then the workload's
// measured window on the last server.
func measure(ctx context.Context, w string, seed int64, budget time.Duration) (*outcome, error) {
	out := &outcome{info: runInfo(w, seed, budget)}
	var (
		srv    *server
		cl     *client
		setups []float64
		walls  []float64
	)
	for i := 0; i < setupRounds; i++ {
		s, c, wall, steal, problem, err := setUp(ctx, nil, nil)
		if err != nil {
			return nil, err
		}
		if problem != "" {
			out.problems = append(out.problems, problem)
		}
		setups = append(setups, ownTime(wall, steal).Seconds())
		walls = append(walls, wall.Seconds())
		if i < setupRounds-1 {
			c.close()
			if err := s.stop(); err != nil {
				return nil, fmt.Errorf("stopping set-up server: %w", err)
			}
			continue
		}
		srv, cl = s, c
	}
	p, err := runPass(ctx, w, seed, budget, srv, cl, replay{}, nil)
	cl.close()
	if serr := srv.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	if w == wlSweep {
		p.crossCheckSweeps(ctx, seed)
	}
	out.attempted, out.failed = p.ops, p.failed
	out.problems = append(out.problems, p.problems...)
	out.info["setup_rounds_s"] = setups
	out.info["setup_rounds_wall_s"] = walls
	out.e2e, out.named = p.endToEnd(median(setups))
	for k, v := range p.info {
		out.info[k] = v
	}
	return out, nil
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
