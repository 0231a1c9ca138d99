package sim

import (
	"sort"
	"sync"
)

// This file is the skew-aware sweep scheduler. The old sweep executor
// walked each warm-start chain sequentially on one goroutine, bounded
// by a semaphore: with skewed chain lengths (one hydrodynamic
// condition sweeping a fine voltage×load grid while the others solve a
// point or two) the longest chain set the job's wall clock while the
// other workers idled. The scheduler splits long chains into bounded
// segments, deals the segments to the workers longest-first (LPT), and
// lets an idle worker steal queued segments from the most-loaded peer.
//
// The segment plan is a pure function of the grid and the segment
// bound — it never depends on the worker count or on timing. Each
// segment runs on its own chain solver (its first point re-warms the
// solver stack cold, exactly like a chain head), so a point's numeric
// path is fixed by the plan alone, and a sweep's per-point outputs are
// bitwise identical whether the segments run on one worker or on many,
// stolen or not. Only completion *order* varies; JobView.Results is
// documented as completion-ordered with explicit grid indices.

// sweepSegment is one stealable unit of sweep work: a run of
// grid-adjacent points from a single chain, solved sequentially with
// neighbor warm starts.
type sweepSegment struct {
	chain int // chain index in the plan, for deterministic ordering
	seg   int // segment index within the chain
	pts   []gridPoint
}

// segmentChain splits one chain into segments of roughly maxPts points.
// Chains at or under the bound stay whole — the warm-start carry is
// never broken for work that cannot skew the schedule. Longer chains
// split preferentially where the supply voltage steps (the grid's
// second-innermost axis, so a segment keeps whole load runs and its
// interior warm starts stay nearest-neighbor in the sweep plane); a
// segment is force-split at twice the bound if no voltage boundary
// shows up. maxPts must be positive (Options.withDefaults ensures it).
func segmentChain(chain []gridPoint, maxPts int) [][]gridPoint {
	if len(chain) <= maxPts {
		return [][]gridPoint{chain}
	}
	var segs [][]gridPoint
	start := 0
	for i := 1; i < len(chain); i++ {
		n := i - start
		atBoundary := chain[i].cfg.SupplyVoltage != chain[i-1].cfg.SupplyVoltage
		if (n >= maxPts && atBoundary) || n >= 2*maxPts {
			segs = append(segs, chain[start:i])
			start = i
		}
	}
	return append(segs, chain[start:])
}

// planSegments expands a chain list into the job's segment plan.
func planSegments(chains [][]gridPoint, maxPts int) []*sweepSegment {
	var segs []*sweepSegment
	for ci, chain := range chains {
		for si, pts := range segmentChain(chain, maxPts) {
			segs = append(segs, &sweepSegment{chain: ci, seg: si, pts: pts})
		}
	}
	return segs
}

// segmentScheduler deals a segment plan across workers and serves
// next() calls: a worker drains its own deque front-to-back and, once
// empty, steals from the back of the most-loaded peer. One mutex
// guards everything — segments are coarse (tens of solver runs), so
// the scheduler is nowhere near contended.
type segmentScheduler struct {
	mu     sync.Mutex
	queues [][]*sweepSegment // per-worker FIFO deques
	remain []int             // queued (unclaimed) points per worker
}

// newSegmentScheduler assigns segments longest-processing-time-first:
// segments sorted by descending point count (stable, so ties keep plan
// order) and each dealt to the currently least-loaded worker. LPT gets
// within 4/3 of the optimal makespan before any stealing happens;
// stealing then absorbs the runtime skew LPT cannot see (points are
// not equal-cost — warm points are cheap, cold and cache-miss points
// are not).
func newSegmentScheduler(segs []*sweepSegment, workers int) *segmentScheduler {
	s := &segmentScheduler{
		queues: make([][]*sweepSegment, workers),
		remain: make([]int, workers),
	}
	order := append([]*sweepSegment(nil), segs...)
	sort.SliceStable(order, func(a, b int) bool { return len(order[a].pts) > len(order[b].pts) })
	for _, seg := range order {
		w := 0
		for i := 1; i < workers; i++ {
			if s.remain[i] < s.remain[w] {
				w = i
			}
		}
		s.queues[w] = append(s.queues[w], seg)
		s.remain[w] += len(seg.pts)
	}
	return s
}

// next hands worker w its next segment, stealing from the most-loaded
// peer's tail when w's own deque is empty. A nil segment means the
// plan is fully claimed and the worker should exit.
func (s *segmentScheduler) next(w int) (seg *sweepSegment, stolen bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if q := s.queues[w]; len(q) > 0 {
		seg = q[0]
		s.queues[w] = q[1:]
		s.remain[w] -= len(seg.pts)
		return seg, false
	}
	v := -1
	for i := range s.queues {
		if i == w || len(s.queues[i]) == 0 {
			continue
		}
		if v < 0 || s.remain[i] > s.remain[v] {
			v = i
		}
	}
	if v < 0 {
		return nil, false
	}
	q := s.queues[v]
	seg = q[len(q)-1]
	s.queues[v] = q[:len(q)-1]
	s.remain[v] -= len(seg.pts)
	return seg, true
}
