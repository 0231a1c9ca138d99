package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"bright/internal/sim"
	"bright/internal/stream"
)

// evalOpsGenerated is how many evaluate ops a run can draw from; a run
// stops on its time budget long before.
const evalOpsGenerated = 2000

// sweepCrossChecks is how many seeded points of each sweep are checked
// against an independent evaluate after the measured window.
const sweepCrossChecks = 2

// sessionFrames is the frame budget of the library scenarios the
// twin-stream clients open.
const sessionFrames = 100

// replay fixes a pass's op counts to those of an earlier pass; the zero
// value lets the time budget decide.
type replay struct {
	evalOps  int
	sweeps   int
	sessions [2]int
}

// usage is a process resource snapshot.
type usage struct {
	alloc uint64 // runtime.MemStats.TotalAlloc
	gcs   uint32
	cpu   time.Duration // user + sys
	steal time.Duration // machine-wide steal time, where the kernel reports it
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return usage{alloc: ms.TotalAlloc, gcs: ms.NumGC, cpu: cpu, steal: readSteal()}
}

// readSteal returns the machine's accumulated steal time per CPU: the
// first line of /proc/stat (in USER_HZ = 1/100 s ticks) divided by the
// number of CPUs it sums, 0 where unavailable. On a virtual machine it
// is the CPU time the host gave to others, which slows every timing.
func readSteal() time.Duration {
	blob, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	text := string(blob)
	line, _, _ := strings.Cut(text, "\n")
	f := strings.Fields(line)
	cpus := strings.Count(text, "\ncpu")
	if len(f) < 9 || f[0] != "cpu" || cpus == 0 {
		return 0
	}
	ticks, err := strconv.ParseUint(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond / time.Duration(cpus)
}

// stamp is an instant with the machine's steal time at it.
type stamp struct {
	at    time.Time
	steal time.Duration
}

// stampNow reads the steal time before the clock, so that a timed
// interval opened by it does not include the read.
func stampNow() stamp {
	st := readSteal()
	return stamp{at: time.Now(), steal: st}
}

// since returns the wall time since s and the machine's per-CPU steal
// time over the same interval. The steal read follows the clock read.
func (s stamp) since() (wall, steal time.Duration) {
	wall = time.Since(s.at)
	return wall, readSteal() - s.steal
}

// ownTime is a wall interval net of the share of the machine the host
// took during it: wall minus the per-CPU steal time over it, floored
// at a tenth of wall (steal is read in 10 ms ticks, so a short
// interval can see a tick it barely overlapped).
//
// On a shared virtual machine the host preempts the vCPUs in bursts
// that can outlast a run and slow every timing by tens of percent.
// Two independent streams of work, one per vCPU, lose exactly the
// per-CPU steal between them. Work that waits at barriers for both
// vCPUs, or runs on one while the other idles, loses more, up to the
// total steal (on a 2-vCPU VM, cold evaluates lost about 0.65 of it),
// so ownTime removes the part of the host's interference that any
// program loses and leaves the rest in the timing.
func ownTime(wall, steal time.Duration) time.Duration {
	return max(wall-steal, wall/10)
}

// pass is one measured window on one server.
type pass struct {
	workload string
	ops      int
	failed   int
	problems []string
	budget   time.Duration // the time budget it ran under
	window   time.Duration // wall time until its last op ended
	// budgetSteal is the per-CPU steal time over the first
	// min(budget, window) of a twin-stream pass.
	budgetSteal time.Duration

	use      usage        // deltas over the window
	counters counters     // obs.Default deltas over the window
	engine   sim.Stats    // engine counters, deltas over the window
	stream   stream.Stats // session counters, deltas over the window

	evals    []evalRec
	sweeps   []sweepRec
	sessions []sessRec

	info map[string]any
}

func (p *pass) fail(format string, args ...any) {
	p.failed++
	if len(p.problems) < 20 {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

// runPass measures workload w on srv. A non-zero rp replays an earlier
// pass's op counts instead of using the time budget; onJob, if set,
// hears each sweep job id as it is submitted.
func runPass(ctx context.Context, w string, seed int64, budget time.Duration, srv *server, cl *client, rp replay, onJob func(string)) (*pass, error) {
	p := &pass{workload: w, budget: budget, info: map[string]any{}}
	c0, err := readCounters()
	if err != nil {
		return nil, err
	}
	e0, s0 := srv.eng.Stats(), srv.mgr.Stats()
	u0 := readUsage()
	start := time.Now()
	switch w {
	case wlEvaluate:
		p.evals = runEvaluate(ctx, cl, genEvaluate(seed, evalOpsGenerated), budget, rp.evalOps)
		p.window = time.Since(start)
	case wlSweep:
		p.sweeps = runSweep(ctx, cl, seed, budget, rp.sweeps, onJob)
		p.window = time.Since(start)
	case wlStream:
		p.sessions, p.window, p.budgetSteal = runStream(ctx, cl, seed, budget, rp.sessions)
	}
	u1 := readUsage()
	e1, s1 := srv.eng.Stats(), srv.mgr.Stats()
	c1, err := readCounters()
	if err != nil {
		return nil, err
	}
	p.use = usage{alloc: u1.alloc - u0.alloc, gcs: u1.gcs - u0.gcs, cpu: u1.cpu - u0.cpu, steal: u1.steal - u0.steal}
	p.info["host_steal_per_cpu_s"] = p.use.steal.Seconds()
	p.counters = c1.delta(c0)
	p.engine = engineDelta(e1, e0)
	p.stream = streamDelta(s1, s0)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("run deadline hit during the %s window: %w", w, err)
	}
	p.check()
	return p, nil
}

// engineDelta is a-b for the engine counters the benchmark reads.
func engineDelta(a, b sim.Stats) sim.Stats {
	return sim.Stats{
		CacheHits:       a.CacheHits - b.CacheHits,
		CacheMisses:     a.CacheMisses - b.CacheMisses,
		Solves:          a.Solves - b.Solves,
		SweepSegments:   a.SweepSegments - b.SweepSegments,
		SweepSteals:     a.SweepSteals - b.SweepSteals,
		SweepPointsWarm: a.SweepPointsWarm - b.SweepPointsWarm,
		SweepPointsCold: a.SweepPointsCold - b.SweepPointsCold,
		SweepPrefetches: a.SweepPrefetches - b.SweepPrefetches,
		Workers:         a.Workers,
	}
}

// streamDelta is a-b for the session counters the benchmark reads.
func streamDelta(a, b stream.Stats) stream.Stats {
	return stream.Stats{
		FramesEmitted:   a.FramesEmitted - b.FramesEmitted,
		FramesDropped:   a.FramesDropped - b.FramesDropped,
		ThermalRebuilds: a.ThermalRebuilds - b.ThermalRebuilds,
	}
}

// check counts ops and applies the per-op correctness gate; a failed
// check is a failed op.
func (p *pass) check() {
	switch p.workload {
	case wlEvaluate:
		for i, r := range p.evals {
			p.ops++
			if err := evalError(r); err != nil {
				p.fail("evaluate op %d: %v", i, err)
				continue
			}
			// A repeat is served from the cache: the same report, byte
			// for byte.
			if r.op.Repeat && string(r.body) != string(p.evals[r.op.Of].body) {
				p.fail("evaluate op %d: repeat of op %d answered a different report", i, r.op.Of)
			}
		}
	case wlSweep:
		for _, s := range p.sweeps {
			grid, _ := s.spec.Grid()
			p.ops += len(grid)
			if s.err != nil {
				p.failed += len(grid)
				p.problems = append(p.problems, s.err.Error())
				continue
			}
			if s.view.State != sim.JobDone || len(s.view.Results) != len(grid) {
				p.fail("sweep %s ended %s with %d/%d results", s.jobID, s.view.State, len(s.view.Results), len(grid))
			}
			for _, pt := range s.view.Results {
				switch {
				case pt.Error != "":
					p.fail("sweep %s point %d: %s", s.jobID, pt.Index, pt.Error)
				case pt.Report == nil || pt.Index < 0 || pt.Index >= len(grid):
					p.fail("sweep %s point %d: no report", s.jobID, pt.Index)
				default:
					if err := checkReport(*pt.Report, grid[pt.Index]); err != nil {
						p.fail("sweep %s point %d: %v", s.jobID, pt.Index, err)
					}
				}
			}
		}
	case wlStream:
		for _, s := range p.sessions {
			n := max(len(s.frames), 1)
			p.ops += n
			if s.err != nil {
				p.failed += n
				p.problems = append(p.problems, s.err.Error())
				continue
			}
			if err := checkSession(s, sessionFrames); err != nil {
				p.failed += n
				p.problems = append(p.problems, err.Error())
			}
		}
		if p.stream.FramesDropped > 0 {
			p.fail("%d frames dropped", p.stream.FramesDropped)
		}
	}
}

func evalError(r evalRec) error {
	if r.err != nil {
		return r.err
	}
	if r.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", r.status, r.body)
	}
	var v sim.ReportView
	if err := json.Unmarshal(r.body, &v); err != nil {
		return fmt.Errorf("decoding report: %w", err)
	}
	return checkReport(v, r.op.Cfg)
}

// crossCheckSweeps compares a seeded sample of each sweep's points with
// independent evaluates (outside the measured window).
func (p *pass) crossCheckSweeps(ctx context.Context, seed int64) {
	for k, s := range p.sweeps {
		byIdx := make(map[int]*sim.ReportView, len(s.view.Results))
		for _, pt := range s.view.Results {
			byIdx[pt.Index] = pt.Report
		}
		for _, i := range sweepSample(seed, k, s.view.Total, sweepCrossChecks) {
			if byIdx[i] == nil {
				continue // already counted as failed
			}
			if err := checkSweepPoint(ctx, *byIdx[i]); err != nil {
				p.fail("sweep %s point %d: %v", s.jobID, i, err)
			}
		}
	}
	p.info["sweep_cross_checked_points"] = len(p.sweeps) * sweepCrossChecks
}

// endToEnd computes the BENCHMARK.json end-to-end metrics and the
// workload-specific names they stand for.
func (p *pass) endToEnd(setup float64) (e2e, named map[string]metric) {
	ops := float64(max(p.ops, 1))
	var throughput, request float64
	named = map[string]metric{
		"setup_s":         {setup, "s"},
		"failed_share":    {float64(p.failed) / ops, "ratio"},
		"alloc_mb_per_op": {float64(p.use.alloc) / 1e6 / ops, "MB"},
		"cpu_s_per_op":    {p.use.cpu.Seconds() / ops, "s"},
	}
	switch p.workload {
	case wlEvaluate:
		// Misses and the window are timed net of host steal (ownTime); a
		// hit is shorter than the 10 ms steal tick, so it is timed wall.
		var miss, missWall, hit []float64
		for _, r := range p.evals {
			if r.op.Repeat {
				hit = append(hit, r.lat.Seconds())
			} else {
				miss = append(miss, ownTime(r.lat, r.steal).Seconds())
				missWall = append(missWall, r.lat.Seconds())
			}
		}
		throughput = ops / ownTime(p.window, p.use.steal).Seconds()
		request = median(miss)
		p.info["evaluate_miss_p50_wall_s"] = median(missWall)
		p.info["ops_per_wall_s"] = ops / p.window.Seconds()
		named["evaluate_miss_p50_s"] = metric{request, "s"}
		named["evaluate_hit_p50_ms"] = metric{1e3 * median(hit), "ms"}
		if pct, v, ok := tail(miss); ok {
			named["evaluate_miss_tail_s"] = metric{v, "s"}
			p.info["evaluate_miss_tail_percentile"] = pct
		} else {
			p.info["evaluate_miss_tail_percentile"] = "none: fewer than 11 misses"
		}
		p.info["evaluate_misses"] = len(miss)
		p.info["evaluate_hits"] = len(hit)
	case wlSweep:
		var spans, walls []float64
		for _, s := range p.sweeps {
			spans = append(spans, ownTime(s.makespan, s.steal).Seconds())
			walls = append(walls, s.makespan.Seconds())
		}
		throughput = ops / sum(spans)
		request = median(spans)
		p.info["sweep_job_wall_s"] = walls
		named["sweep_points_per_s"] = metric{throughput, "1/s"}
		p.info["sweeps"] = len(p.sweeps)
	case wlStream:
		var creates, createWalls []float64
		for _, s := range p.sessions {
			creates = append(creates, ownTime(s.create, s.steal).Seconds())
			createWalls = append(createWalls, s.create.Seconds())
		}
		// Frames received per second of the budget (or the whole pass,
		// if shorter), net of steal: the sessions still open at the
		// deadline run on for the checks, but their late frames fall
		// outside it.
		w := min(p.budget, p.window)
		var inWindow int
		for _, s := range p.sessions {
			for _, at := range s.arrived {
				if at <= w {
					inWindow++
				}
			}
		}
		throughput = float64(inWindow) / ownTime(w, p.budgetSteal).Seconds()
		request = median(creates)
		p.info["stream_frames_per_wall_s"] = float64(inWindow) / w.Seconds()
		p.info["stream_create_p50_wall_s"] = median(createWalls)
		named["stream_frames_per_s"] = metric{throughput, "1/s"}
		named["stream_create_p50_s"] = metric{request, "s"}
		p.info["sessions"] = len(p.sessions)
	}
	p.info["ops"] = p.ops
	p.info["window_s"] = p.window.Seconds()
	e2e = map[string]metric{
		"setup_s":         named["setup_s"],
		"ops_per_s":       {throughput, "1/s"},
		"request_p50_s":   {request, "s"},
		"alloc_mb_per_op": named["alloc_mb_per_op"],
		"cpu_s_per_op":    named["cpu_s_per_op"],
	}
	return e2e, named
}
