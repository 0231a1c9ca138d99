package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bright/internal/core"
	"bright/internal/cosim"
	"bright/internal/flowcell"
	"bright/internal/hydro"
	"bright/internal/pdn"
	"bright/internal/sim"
	"bright/internal/thermal"
)

// fakeReport builds a structurally complete report (every pointer the
// view/summary layer dereferences is non-nil) without running solvers.
func fakeReport(cfg core.Config) *core.Report {
	return &core.Report{
		Config: cfg,
		CoSim: &cosim.Result{
			Iterations: 3,
			Converged:  true,
			Operating:  flowcell.OperatingPoint{Current: 6.3, Voltage: cfg.SupplyVoltage, Power: 6.3 * cfg.SupplyVoltage},
			Thermal:    &thermal.Solution{PeakT: 311.4, OutletT: 301.4},
		},
		CacheDemandW:       2.2,
		CacheDemandA:       2.2,
		DeliveredW:         5.4,
		PowersCaches:       true,
		Grid:               &pdn.Solution{MinVCache: 0.962},
		Thermal:            &thermal.Solution{PeakT: 311.4, OutletT: 301.4},
		PeakTempC:          38.3,
		Hydraulics:         hydro.Report{TotalDrop: 41300, PressureGradient: 1.9e6, PumpPower: 0.93},
		NetElectricalGainW: 4.5,
	}
}

// fakeSolver counts solves and records the chain keys it saw, so tests
// can assert chain-to-shard placement. delay stalls every solve (a slow
// shard for hedge tests).
type fakeSolver struct {
	calls atomic.Int64
	delay time.Duration

	mu   sync.Mutex
	keys map[string]bool
}

func (s *fakeSolver) solve(ctx context.Context, cfg core.Config) (*core.Report, error) {
	s.calls.Add(1)
	s.mu.Lock()
	if s.keys == nil {
		s.keys = make(map[string]bool)
	}
	s.keys[cfg.ChainKey()] = true
	s.mu.Unlock()
	if s.delay > 0 {
		select {
		case <-time.After(s.delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return fakeReport(cfg), nil
}

func (s *fakeSolver) chainKeys() map[string]bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]bool, len(s.keys))
	for k := range s.keys {
		out[k] = true
	}
	return out
}

// testBackend is one in-process shard: a real sim engine + handler on
// an httptest server.
type testBackend struct {
	solver *fakeSolver
	engine *sim.Engine
	srv    *httptest.Server
	addr   string
	// snapGetDelay (ns) stalls GET /v1/cache/snapshot, as a loaded
	// backend serializing a large cache does.
	snapGetDelay atomic.Int64
	// healthDelay (ns) stalls GET /healthz, as a loaded but live backend
	// does.
	healthDelay atomic.Int64
}

func newTestBackend(t *testing.T, solver *fakeSolver) *testBackend {
	t.Helper()
	e := sim.New(sim.Options{Workers: 2, Solver: solver.solve})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := e.Shutdown(ctx); err != nil {
			t.Errorf("engine shutdown: %v", err)
		}
	})
	b := &testBackend{solver: solver, engine: e}
	inner := sim.NewHandler(e)
	b.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && r.URL.Path == "/v1/cache/snapshot" {
			time.Sleep(time.Duration(b.snapGetDelay.Load()))
		}
		if r.Method == http.MethodGet && r.URL.Path == "/healthz" {
			time.Sleep(time.Duration(b.healthDelay.Load()))
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(b.srv.Close)
	b.addr = strings.TrimPrefix(b.srv.URL, "http://")
	return b
}

// testCluster boots n in-process shards plus a coordinator.
type testCluster struct {
	backends []*testBackend
	coord    *Coordinator
	srv      *httptest.Server
}

func newTestCluster(t *testing.T, n int, mod func(*Options)) *testCluster {
	t.Helper()
	tc := &testCluster{}
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		b := newTestBackend(t, &fakeSolver{})
		tc.backends = append(tc.backends, b)
		addrs[i] = b.addr
	}
	// The hedge floor is far above any in-process latency so hedging
	// never fires by accident (the hedge test lowers it deliberately);
	// a stray hedge would double-solve and break exact-count asserts.
	opts := Options{Backends: addrs, HedgeMin: 30 * time.Second}
	if mod != nil {
		mod(&opts)
	}
	coord, err := NewCoordinator(opts)
	if err != nil {
		t.Fatal(err)
	}
	tc.coord = coord
	tc.srv = httptest.NewServer(coord.Handler())
	t.Cleanup(tc.srv.Close)
	return tc
}

// backendFor returns the shard currently owning the config's canonical
// key.
func (tc *testCluster) backendFor(t *testing.T, cfg core.Config) *testBackend {
	t.Helper()
	addr, ok := tc.coord.ring.lookup(cfg.CanonicalKey())
	if !ok {
		t.Fatal("no alive backends in ring")
	}
	for _, b := range tc.backends {
		if b.addr == addr {
			return b
		}
	}
	t.Fatalf("ring routed to unknown backend %s", addr)
	return nil
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func getJSON(t *testing.T, url string, into any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestCoordinatorRoutesByCanonicalKey(t *testing.T) {
	tc := newTestCluster(t, 3, nil)

	// The same configuration, evaluated repeatedly, must land on one
	// shard and be solved exactly once (the repeats are cache hits).
	for i := 0; i < 3; i++ {
		resp, body := postJSON(t, tc.srv.URL+"/v1/evaluate", `{"flow_ml_min": 300}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("evaluate %d: %d: %s", i, resp.StatusCode, body)
		}
		var view sim.ReportView
		if err := json.Unmarshal(body, &view); err != nil {
			t.Fatal(err)
		}
		if view.Config.FlowMLMin != 300 {
			t.Fatalf("config echo lost the override: %+v", view.Config)
		}
	}
	var total int64
	for _, b := range tc.backends {
		total += b.solver.calls.Load()
	}
	if total != 1 {
		t.Fatalf("3 identical evaluates caused %d solves across the fleet, want 1", total)
	}

	// Each distinct configuration is solved once, on the shard the ring
	// assigns its canonical key. Which shards those are depends on the
	// backends' ephemeral ports, so the expected split is read from the
	// ring; TestRingDeterministicAndBalanced pins the balance itself.
	cfg := core.DefaultConfig()
	cfg.FlowMLMin = 300
	want := map[string]int64{tc.backendFor(t, cfg).addr: 1}
	for i := 0; i < 20; i++ {
		cfg.FlowMLMin = float64(100 + 10*i)
		resp, body := postJSON(t, tc.srv.URL+"/v1/evaluate",
			fmt.Sprintf(`{"flow_ml_min": %d}`, 100+10*i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("evaluate: %d: %s", resp.StatusCode, body)
		}
		want[tc.backendFor(t, cfg).addr]++
	}
	for _, b := range tc.backends {
		if got := b.solver.calls.Load(); got != want[b.addr] {
			t.Fatalf("backend %s solved %d configs, want the %d its ring share routes to it", b.addr, got, want[b.addr])
		}
	}
}

func TestCoordinatorEvaluateValidationIsDefinitive(t *testing.T) {
	tc := newTestCluster(t, 2, nil)
	resp, body := postJSON(t, tc.srv.URL+"/v1/evaluate", `{"flow_ml_min": -10}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid config returned %d: %s", resp.StatusCode, body)
	}
	if got := tc.coord.m.failovers.Value(); got != 0 {
		t.Fatalf("a 400 triggered %d failovers; 4xx answers are definitive", got)
	}
}

func TestCoordinatorFailoverOnDeadShard(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	cfg := core.DefaultConfig()
	cfg.FlowMLMin = 300
	victim := tc.backendFor(t, cfg)
	victim.srv.Close() // transport errors, but the ring still lists it alive

	resp, body := postJSON(t, tc.srv.URL+"/v1/evaluate", `{"flow_ml_min": 300}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate with dead primary: %d: %s", resp.StatusCode, body)
	}
	if got := tc.coord.m.failovers.Value(); got != 1 {
		t.Fatalf("failovers = %d, want 1", got)
	}
	if victim.solver.calls.Load() != 0 {
		t.Fatal("closed backend somehow solved")
	}
}

func TestCoordinatorHedgesSlowShard(t *testing.T) {
	tc := newTestCluster(t, 3, func(o *Options) { o.HedgeMin = 20 * time.Millisecond })
	cfg := core.DefaultConfig()
	cfg.FlowMLMin = 420
	slow := tc.backendFor(t, cfg)
	slow.solver.delay = 2 * time.Second // far past the hedge delay

	start := time.Now()
	resp, body := postJSON(t, tc.srv.URL+"/v1/evaluate", `{"flow_ml_min": 420}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hedged evaluate: %d: %s", resp.StatusCode, body)
	}
	if elapsed := time.Since(start); elapsed >= 2*time.Second {
		t.Fatalf("response took %v — the hedge did not short-circuit the slow shard", elapsed)
	}
	if got := tc.coord.m.hedges.Value(); got != 1 {
		t.Fatalf("hedges = %d, want 1", got)
	}
	if got := tc.coord.m.hedgeWins.Value(); got != 1 {
		t.Fatalf("hedge wins = %d, want 1", got)
	}
}

func TestCoordinatorSweepKeepsChainsWhole(t *testing.T) {
	tc := newTestCluster(t, 3, nil)

	// 2 flows x 2 inlets x 2 loads = 8 points in 4 chains of 2.
	resp, body := postJSON(t, tc.srv.URL+"/v1/sweep",
		`{"flows_ml_min": [100, 300], "inlet_temps_c": [27, 37], "chip_loads": [0.4, 0.8]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep: %d: %s", resp.StatusCode, body)
	}
	var accepted struct {
		JobID  string `json:"job_id"`
		Total  int    `json:"total"`
		Chains int    `json:"chains"`
	}
	if err := json.Unmarshal(body, &accepted); err != nil {
		t.Fatal(err)
	}
	if accepted.Total != 8 || accepted.Chains != 4 {
		t.Fatalf("accept body %+v, want total 8 in 4 chains", accepted)
	}

	var view sim.JobView
	deadline := time.Now().Add(10 * time.Second)
	for {
		getJSON(t, tc.srv.URL+"/v1/jobs/"+accepted.JobID, &view)
		if view.State != sim.JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster job stuck: %+v", view)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if view.State != sim.JobDone || view.Completed != 8 {
		t.Fatalf("job finished %s with %d/%d", view.State, view.Completed, view.Total)
	}

	// Results must cover global indices 0..7 in grid order.
	spec := sim.SweepSpec{
		FlowsMLMin:  []float64{100, 300},
		InletTempsC: []float64{27, 37},
		ChipLoads:   []float64{0.4, 0.8},
	}
	grid, err := spec.Grid()
	if err != nil {
		t.Fatal(err)
	}
	if len(view.Results) != len(grid) {
		t.Fatalf("%d results for %d grid points", len(view.Results), len(grid))
	}
	for i, res := range view.Results {
		if res.Index != i {
			t.Fatalf("result %d has index %d", i, res.Index)
		}
		if res.Config.CanonicalKey() != grid[i].CanonicalKey() {
			t.Fatalf("result %d solved %+v, grid point is %+v", i, res.Config, grid[i])
		}
		if res.Report == nil {
			t.Fatalf("result %d has no report", i)
		}
	}

	// Chain affinity: no chain key may appear on two shards.
	seen := map[string]string{}
	for _, b := range tc.backends {
		for key := range b.solver.chainKeys() {
			if other, dup := seen[key]; dup {
				t.Fatalf("chain %s split across %s and %s", key, other, b.addr)
			}
			seen[key] = b.addr
		}
	}
	if len(seen) != 4 {
		t.Fatalf("expected 4 chains across the fleet, saw %d: %v", len(seen), seen)
	}
}

func TestCoordinatorQuota429(t *testing.T) {
	tc := newTestCluster(t, 2, func(o *Options) {
		o.QuotaRPS = 0.001 // effectively no refill within the test
		o.QuotaBurst = 2
	})
	client := &http.Client{}
	do := func() (*http.Response, []byte) {
		req, err := http.NewRequest(http.MethodPost, tc.srv.URL+"/v1/evaluate",
			strings.NewReader(`{"flow_ml_min": 300}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Client-ID", "hammer")
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		if err := resp.Body.Close(); err != nil {
			t.Fatal(err)
		}
		return resp, buf.Bytes()
	}
	for i := 0; i < 2; i++ {
		resp, body := do()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d within burst: %d: %s", i, resp.StatusCode, body)
		}
	}
	resp, body := do()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("request past burst: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After")
	}
	var eb struct {
		Error     string `json:"error"`
		Retryable bool   `json:"retryable"`
	}
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatal(err)
	}
	if !eb.Retryable || !strings.Contains(eb.Error, "quota") {
		t.Fatalf("429 body %+v, want retryable quota error", eb)
	}
	if got := tc.coord.m.quotaRejected.Value(); got != 1 {
		t.Fatalf("quota_rejected = %d, want 1", got)
	}

	// A different client is not throttled by hammer's bucket.
	resp2, body2 := postJSON(t, tc.srv.URL+"/v1/evaluate", `{"flow_ml_min": 300}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("unthrottled client: %d: %s", resp2.StatusCode, body2)
	}
}

func TestCoordinatorStatsMergesFleet(t *testing.T) {
	tc := newTestCluster(t, 2, nil)
	for i := 0; i < 4; i++ {
		resp, body := postJSON(t, tc.srv.URL+"/v1/evaluate",
			fmt.Sprintf(`{"flow_ml_min": %d}`, 200+50*i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("evaluate: %d: %s", resp.StatusCode, body)
		}
	}
	var stats struct {
		Cluster struct {
			Backends int    `json:"backends"`
			Alive    int    `json:"alive"`
			Solves   uint64 `json:"solves"`
		} `json:"cluster"`
		Backends []struct {
			Addr  string     `json:"addr"`
			Alive bool       `json:"alive"`
			Stats *sim.Stats `json:"stats"`
		} `json:"backends"`
	}
	getJSON(t, tc.srv.URL+"/v1/stats", &stats)
	if stats.Cluster.Backends != 2 || stats.Cluster.Alive != 2 {
		t.Fatalf("cluster counts %+v, want 2/2", stats.Cluster)
	}
	if stats.Cluster.Solves != 4 {
		t.Fatalf("aggregated solves = %d, want 4", stats.Cluster.Solves)
	}
	if len(stats.Backends) != 2 {
		t.Fatalf("%d backend entries", len(stats.Backends))
	}
	for _, b := range stats.Backends {
		if !b.Alive || b.Stats == nil {
			t.Fatalf("backend entry %+v, want alive with stats", b)
		}
	}
}

// TestCoordinatorSweepResubmitsLostChains kills a shard while its chain
// is still running: the next poll must resubmit that chain through the
// ring (now routing around the death) and the job must still complete
// with every point accounted for.
func TestCoordinatorSweepResubmitsLostChains(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	resp, body := postJSON(t, tc.srv.URL+"/v1/sweep",
		`{"flows_ml_min": [100, 300], "chip_loads": [0.4, 0.8]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep: %d: %s", resp.StatusCode, body)
	}
	var accepted struct {
		JobID string `json:"job_id"`
	}
	if err := json.Unmarshal(body, &accepted); err != nil {
		t.Fatal(err)
	}

	// Kill the shard owning the first chain and tell the ring (standing
	// in for the health loop, which is not running here).
	job, ok := tc.coord.jobs.get(accepted.JobID)
	if !ok {
		t.Fatal("cluster job not registered")
	}
	job.mu.Lock()
	victimAddr := job.chains[0].backend
	job.mu.Unlock()
	for _, b := range tc.backends {
		if b.addr == victimAddr {
			b.srv.Close()
		}
	}
	tc.coord.ring.setAlive(victimAddr, false)

	var view sim.JobView
	deadline := time.Now().Add(10 * time.Second)
	for {
		getJSON(t, tc.srv.URL+"/v1/jobs/"+accepted.JobID, &view)
		if view.State != sim.JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never finished after shard loss: %+v", view)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if view.State != sim.JobDone || view.Completed != 4 {
		t.Fatalf("job finished %s with %d/4", view.State, view.Completed)
	}
	if got := tc.coord.m.chainResubmits.Value(); got == 0 {
		t.Fatal("chain_resubmits_total stayed 0 after a shard died mid-sweep")
	}
	for i, res := range view.Results {
		if res.Index != i || res.Report == nil {
			t.Fatalf("result %d malformed after resubmission: %+v", i, res)
		}
	}
}

// TestCoordinatorSweepRebalancesQueuedChains piles a sweep onto a fleet
// where one shard is slow: once the fast shard drains its own chains it
// goes idle while the slow one still holds a queue of untouched chains,
// and with RebalanceDepth set the job polls must move queued chains over
// to the idle shard instead of letting it sit.
func TestCoordinatorSweepRebalancesQueuedChains(t *testing.T) {
	tc := newTestCluster(t, 2, func(o *Options) { o.RebalanceDepth = 1 })

	// 12 flows x 2 loads = 24 points in 12 chains of 2. Find the shard
	// the ring loads most heavily and make it the slow one, so its
	// chains are still untouched when the other shard goes idle.
	flows := make([]float64, 12)
	perShard := map[string]int{}
	for i := range flows {
		flows[i] = 100 + 20*float64(i)
		cfg := core.DefaultConfig()
		cfg.FlowMLMin = flows[i]
		addr, ok := tc.coord.ring.lookup(cfg.ChainKey())
		if !ok {
			t.Fatal("ring lookup failed with two alive backends")
		}
		perShard[addr]++
	}
	var slow *testBackend
	for _, b := range tc.backends {
		if slow == nil || perShard[b.addr] > perShard[slow.addr] {
			slow = b
		}
	}
	if perShard[slow.addr] < 2 {
		t.Fatalf("ring spread 12 chains as %v; need >=2 on one shard", perShard)
	}
	// Long enough that every poll inside the window sees the slow
	// shard's chains at zero completed points (still movable).
	slow.solver.delay = 500 * time.Millisecond

	flowsJSON, err := json.Marshal(flows)
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, tc.srv.URL+"/v1/sweep",
		fmt.Sprintf(`{"flows_ml_min": %s, "chip_loads": [0.4, 0.8]}`, flowsJSON))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep: %d: %s", resp.StatusCode, body)
	}
	var accepted struct {
		JobID  string `json:"job_id"`
		Chains int    `json:"chains"`
	}
	if err := json.Unmarshal(body, &accepted); err != nil {
		t.Fatal(err)
	}
	if accepted.Chains != 12 {
		t.Fatalf("sweep accepted %d chains, want 12", accepted.Chains)
	}

	var view sim.JobView
	deadline := time.Now().Add(30 * time.Second)
	for {
		getJSON(t, tc.srv.URL+"/v1/jobs/"+accepted.JobID, &view)
		if view.State != sim.JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("skewed sweep never finished: %+v", view)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if view.State != sim.JobDone || view.Completed != 24 {
		t.Fatalf("job finished %s with %d/24", view.State, view.Completed)
	}
	for i, res := range view.Results {
		if res.Index != i || res.Report == nil || res.Error != "" {
			t.Fatalf("result %d malformed after re-balancing: %+v", i, res)
		}
	}
	if got := tc.coord.m.chainRebalances.Value(); got == 0 {
		t.Fatal("chain_rebalances_total stayed 0 with an idle shard beside a queue")
	}

	// The merged stats surface reports the moves.
	var stats struct {
		Cluster struct {
			ChainRebalances uint64 `json:"chain_rebalances"`
		} `json:"cluster"`
	}
	getJSON(t, tc.srv.URL+"/v1/stats", &stats)
	if stats.Cluster.ChainRebalances == 0 {
		t.Fatal("merged stats hide chain_rebalances")
	}
}

// TestCoordinatorWarmRejoin exercises the full death-and-rejoin cycle
// in-process: warm a shard, snapshot it, kill it, watch the health loop
// evict it, bring a cold replacement up on the same address, and verify
// the coordinator hands it the snapshot so the replacement answers the
// old working set without solving. The slow-PUT case applies the
// snapshot only after several health intervals, as a loaded backend
// does: the push must still count as a warm rejoin. The slow-GET case
// serves the snapshot pull more slowly than the snapshot pacing
// interval: the pull must still land. The slow-healthz case answers
// the surviving shards' liveness probes more slowly than the probe
// pacing: they must stay in the ring.
func TestCoordinatorWarmRejoin(t *testing.T) {
	for _, tc := range []struct {
		name         string
		snapInterval time.Duration // -1: ticker off, snapshots pulled manually only
		getDelay     time.Duration
		putDelay     time.Duration
		healthDelay  time.Duration
	}{
		{"fast PUT", -1, 0, 0, 0},
		{"slow PUT", -1, 0, 200 * time.Millisecond, 0},                    // 4x HealthInterval
		{"slow GET", 20 * time.Millisecond, 100 * time.Millisecond, 0, 0}, // 5x SnapshotInterval
		{"slow healthz", -1, 0, 0, 100 * time.Millisecond},                // 2x HealthInterval
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl := newTestCluster(t, 3, func(o *Options) {
				o.HealthInterval = 50 * time.Millisecond
				o.HealthFailures = 2
				o.SnapshotInterval = tc.snapInterval
			})
			cfg := core.DefaultConfig()
			cfg.FlowMLMin = 300
			victim := cl.backendFor(t, cfg)

			// Warm the victim through the coordinator, then snapshot the fleet.
			resp, body := postJSON(t, cl.srv.URL+"/v1/evaluate", `{"flow_ml_min": 300}`)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("warming evaluate: %d: %s", resp.StatusCode, body)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			for _, b := range cl.backends {
				b.snapGetDelay.Store(int64(tc.getDelay))
			}
			cl.coord.snapshotPass(ctx)
			if got := cl.coord.m.snapshotPulls.Value(); got != 3 {
				t.Fatalf("snapshot pulls = %d, want 3", got)
			}
			// Later pulls by the Run loop below are not under test.
			for _, b := range cl.backends {
				b.snapGetDelay.Store(0)
			}

			// Kill the victim and run the health loop until it is evicted.
			for _, b := range cl.backends {
				b.healthDelay.Store(int64(tc.healthDelay))
			}
			victimAddr := victim.addr
			victim.srv.Close()
			runCtx, stopRun := context.WithCancel(ctx)
			runDone := make(chan struct{})
			go func() {
				defer close(runDone)
				cl.coord.Run(runCtx)
			}()
			deadline := time.Now().Add(5 * time.Second)
			for cl.coord.ring.isAlive(victimAddr) {
				if time.Now().After(deadline) {
					t.Fatal("health loop never evicted the dead shard")
				}
				time.Sleep(10 * time.Millisecond)
			}

			// While the shard is down, its keys are served by the rest of the
			// fleet.
			resp, body = postJSON(t, cl.srv.URL+"/v1/evaluate", `{"flow_ml_min": 300}`)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("evaluate during outage: %d: %s", resp.StatusCode, body)
			}

			// Resurrect a cold engine on the same address.
			l, err := net.Listen("tcp", victimAddr)
			if err != nil {
				t.Fatalf("rebinding %s: %v", victimAddr, err)
			}
			freshSolver := &fakeSolver{}
			fresh := sim.New(sim.Options{Workers: 2, Solver: freshSolver.solve})
			t.Cleanup(func() {
				sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer scancel()
				if err := fresh.Shutdown(sctx); err != nil {
					t.Errorf("fresh engine shutdown: %v", err)
				}
			})
			var handler http.Handler = sim.NewHandler(fresh)
			if tc.putDelay > 0 {
				inner := handler
				handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if r.Method == http.MethodPut && r.URL.Path == "/v1/cache/snapshot" {
						time.Sleep(tc.putDelay)
					}
					inner.ServeHTTP(w, r)
				})
			}
			freshSrv := &http.Server{Handler: handler}
			go func() {
				if err := freshSrv.Serve(l); err != http.ErrServerClosed {
					t.Errorf("fresh backend: %v", err)
				}
			}()
			t.Cleanup(func() { freshSrv.Close() })

			// The health loop must readmit it — warm.
			deadline = time.Now().Add(5 * time.Second)
			for !cl.coord.ring.isAlive(victimAddr) {
				if time.Now().After(deadline) {
					t.Fatal("health loop never readmitted the resurrected shard")
				}
				time.Sleep(10 * time.Millisecond)
			}
			// Checked while the health loop still runs: every surviving
			// shard has been probed through several passes by now.
			for _, b := range cl.backends {
				if b != victim && !cl.coord.ring.isAlive(b.addr) {
					t.Fatalf("live backend %s marked down", b.addr)
				}
			}
			stopRun()
			<-runDone
			if got := cl.coord.m.snapshotRestores.Value(); got != 1 {
				t.Fatalf("snapshot restores = %d, want 1", got)
			}
			if got := cl.coord.m.coldRejoins.Value(); got != 0 {
				t.Fatalf("cold rejoins = %d, want 0", got)
			}

			// The resurrected shard answers its old working set from the
			// restored cache: no solver calls.
			resp, body = postJSON(t, cl.srv.URL+"/v1/evaluate", `{"flow_ml_min": 300}`)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("evaluate after rejoin: %d: %s", resp.StatusCode, body)
			}
			if n := freshSolver.calls.Load(); n != 0 {
				t.Fatalf("resurrected shard solved %d times, want 0 (warm cache)", n)
			}
		})
	}
}
