package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"bright/internal/core"
	"bright/internal/sim"
	"bright/internal/stream"
)

// evalRec is one evaluate request as the client saw it.
type evalRec struct {
	op     evalOp
	lat    time.Duration // wall round trip
	steal  time.Duration // the machine's per-CPU steal time over it
	status int
	body   []byte
	err    error
}

// runEvaluate is the evaluate workload: one closed-loop client sending
// ops in order. With limit > 0 it sends exactly the first limit ops;
// otherwise it starts ops until budget has elapsed.
func runEvaluate(ctx context.Context, cl *client, ops []evalOp, budget time.Duration, limit int) []evalRec {
	var recs []evalRec
	start := time.Now()
	for i, op := range ops {
		if limit > 0 && i >= limit || limit <= 0 && time.Since(start) >= budget {
			break
		}
		req := sim.EvaluateRequest{
			FlowMLMin:     &op.Cfg.FlowMLMin,
			InletTempC:    &op.Cfg.InletTempC,
			SupplyVoltage: &op.Cfg.SupplyVoltage,
			ChipLoad:      &op.Cfg.ChipLoad,
		}
		t := stampNow()
		r, err := cl.do(ctx, http.MethodPost, "/v1/evaluate", req)
		lat, steal := t.since()
		recs = append(recs, evalRec{op: op, lat: lat, steal: steal, status: r.status, body: r.body, err: err})
	}
	return recs
}

// sweepRec is one sweep job as the client saw it.
type sweepRec struct {
	spec     sim.SweepSpec
	jobID    string
	makespan time.Duration // job start to its last point, server clock
	steal    time.Duration // the machine's per-CPU steal time from submit until done was seen
	view     sim.JobView
	err      error
}

// sweepPoll is the job polling period. Each poll returns every result
// so far, so a short period would add client work per point.
const sweepPoll = 250 * time.Millisecond

// runSweep is the sweep workload: one client submitting seeded sweeps
// back to back and polling each to completion. With limit > 0 it runs
// exactly limit sweeps; otherwise it starts one, and another only while
// one more sweep of the mean duration so far still fits in the budget.
func runSweep(ctx context.Context, cl *client, seed int64, budget time.Duration, limit int, onJob func(string)) []sweepRec {
	var recs []sweepRec
	start := time.Now()
	for k := 0; ; k++ {
		if limit > 0 && k >= limit ||
			limit <= 0 && k > 0 && time.Since(start)+time.Since(start)/time.Duration(k) > budget {
			break
		}
		rec := sweepRec{spec: genSweep(seed, k)}
		rec.err = func() error {
			t := stampNow()
			r, err := cl.do(ctx, http.MethodPost, "/v1/sweep", rec.spec)
			if err != nil {
				return err
			}
			if r.status != http.StatusAccepted {
				return fmt.Errorf("POST /v1/sweep: status %d: %s", r.status, r.body)
			}
			var sub struct {
				JobID string `json:"job_id"`
			}
			if err := json.Unmarshal(r.body, &sub); err != nil {
				return fmt.Errorf("decoding sweep submit: %w", err)
			}
			rec.jobID = sub.JobID
			if onJob != nil {
				onJob(sub.JobID)
			}
			for {
				r, err := cl.do(ctx, http.MethodGet, "/v1/jobs/"+sub.JobID, nil)
				if err != nil {
					return err
				}
				if r.status != http.StatusOK {
					return fmt.Errorf("GET /v1/jobs/%s: status %d", sub.JobID, r.status)
				}
				if err := json.Unmarshal(r.body, &rec.view); err != nil {
					return fmt.Errorf("decoding job view: %w", err)
				}
				if rec.view.State != sim.JobRunning {
					// The job's own clock: submit to last point, free of
					// the polling period.
					rec.makespan = time.Duration(rec.view.ElapsedMS * float64(time.Millisecond))
					_, rec.steal = t.since()
					return nil
				}
				select {
				case <-ctx.Done():
					return ctx.Err()
				case <-time.After(sweepPoll):
				}
			}
		}()
		recs = append(recs, rec)
	}
	return recs
}

// sessRec is one streaming session as its client saw it.
type sessRec struct {
	client, k int
	spec      sessionSpec
	id        string
	create    time.Duration // POST /v1/sessions round trip
	steal     time.Duration // the machine's per-CPU steal time over it
	frames    []stream.Frame
	arrived   []time.Duration // per frame, since the workload started
	bytes     int             // NDJSON bytes of the frame records
	gaps      int
	end       string // end record reason
	err       error
}

// runStream is the twin-stream workload: two concurrent clients, each
// opening its scenario's sessions back to back and reading every
// session's NDJSON frame stream to the end record. With limits set
// client c runs exactly limits[c] sessions; otherwise each client opens
// sessions until budget has elapsed (at least one). It returns the
// sessions, the wall time until the last one ended and the machine's
// per-CPU steal time over the first min(budget, that wall time).
func runStream(ctx context.Context, cl *client, seed int64, budget time.Duration, limits [2]int) ([]sessRec, time.Duration, time.Duration) {
	var (
		mu   sync.Mutex
		recs []sessRec
		wg   sync.WaitGroup

		budgetSteal atomic.Int64
	)
	t := stampNow()
	start := t.at
	budgetSteal.Store(-1)
	atBudget := time.AfterFunc(budget, func() { budgetSteal.Store(int64(readSteal() - t.steal)) })
	for c := range streamScenarios {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; ; k++ {
				if limits[c] > 0 && k >= limits[c] || limits[c] <= 0 && k > 0 && time.Since(start) >= budget {
					return
				}
				rec := runSession(ctx, cl, start, c, k, genSession(seed, c, k))
				mu.Lock()
				recs = append(recs, rec)
				mu.Unlock()
				if rec.err != nil {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	window, steal := t.since()
	// Stopped before it fired, the pass ended within the budget; a timer
	// still storing its reading (rare) falls back to the whole window.
	if atBudget.Stop() || budgetSteal.Load() < 0 {
		return recs, window, steal
	}
	return recs, window, time.Duration(budgetSteal.Load())
}

// ndRecord is one NDJSON line of a frame stream: a frame, or a gap or
// end wrapper record.
type ndRecord struct {
	stream.Frame
	Gap *json.RawMessage `json:"gap"`
	End *struct {
		Reason string `json:"reason"`
		Error  string `json:"error"`
	} `json:"end"`
}

// runSession opens one session, reads its frames to the end record
// (stamping each with its arrival time since start) and deletes it.
func runSession(ctx context.Context, cl *client, start time.Time, c, k int, spec sessionSpec) sessRec {
	rec := sessRec{client: c, k: k, spec: spec}
	t := stampNow()
	r, err := cl.do(ctx, http.MethodPost, "/v1/sessions", spec)
	rec.create, rec.steal = t.since()
	if err == nil && r.status != http.StatusCreated {
		err = fmt.Errorf("POST /v1/sessions: status %d: %s", r.status, r.body)
	}
	var st stream.Status
	if err == nil {
		err = json.Unmarshal(r.body, &st)
	}
	if err != nil {
		rec.err = err
		return rec
	}
	rec.id = st.ID
	rec.err = readFrames(ctx, cl, start, &rec)
	// A completed session keeps its admission slot until removed.
	if d, err := cl.do(ctx, http.MethodDelete, "/v1/sessions/"+rec.id, nil); err == nil && d.status/100 != 2 && rec.err == nil {
		rec.err = fmt.Errorf("DELETE /v1/sessions/%s: status %d", rec.id, d.status)
	}
	return rec
}

func readFrames(ctx context.Context, cl *client, start time.Time, rec *sessRec) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, cl.base+"/v1/sessions/"+rec.id+"/frames", nil)
	if err != nil {
		return err
	}
	resp, err := cl.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET frames of %s: status %d", rec.id, resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			var nd ndRecord
			if derr := json.Unmarshal(line, &nd); derr != nil {
				return fmt.Errorf("decoding frame record: %w", derr)
			}
			switch {
			case nd.Gap != nil:
				rec.gaps++
			case nd.End != nil:
				rec.end = nd.End.Reason
			default:
				rec.frames = append(rec.frames, nd.Frame)
				rec.arrived = append(rec.arrived, time.Since(start))
				rec.bytes += len(line)
			}
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("reading frames of %s: %w", rec.id, err)
		}
	}
}

// warmUp is the set-up op: one evaluate of the paper's nominal point,
// whose report must sit in the EXPERIMENTS.md bands.
func warmUp(ctx context.Context, cl *client) error {
	r, err := cl.do(ctx, http.MethodPost, "/v1/evaluate", sim.EvaluateRequest{})
	if err != nil {
		return err
	}
	if r.status != http.StatusOK {
		return fmt.Errorf("warm-up evaluate: status %d: %s", r.status, r.body)
	}
	var v sim.ReportView
	if err := json.Unmarshal(r.body, &v); err != nil {
		return fmt.Errorf("decoding warm-up report: %w", err)
	}
	if err := checkReport(v, core.DefaultConfig()); err != nil {
		return fmt.Errorf("warm-up report: %w", err)
	}
	return checkBands(v)
}
