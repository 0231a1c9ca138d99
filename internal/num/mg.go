package num

import (
	"fmt"
	"math"

	"bright/internal/obs"
)

// Multigrid telemetry (process-wide; see internal/obs). Setup is counted
// per hierarchy construction, cycles per preconditioner application —
// the ratio is the reuse factor that justifies caching MG per operator.
var (
	mgSetupsGMG = obs.Default.Counter("bright_mg_setups_total",
		"Multigrid hierarchy constructions by kind.", obs.L("kind", "gmg"))
	mgCycles = obs.Default.Counter("bright_mg_cycles_total",
		"Multigrid V-cycles executed (one per Apply).")
	mgLevelsBuilt = obs.Default.Counter("bright_mg_levels_total",
		"Multigrid levels constructed across all setups (levels per setup = depth of that hierarchy).")
	mgCoarseHeavySmooths = obs.Default.Counter("bright_mg_coarse_heavy_smooths_total",
		"Coarsest-level visits that fell back to heavy smoothing because the direct LU was unavailable (singular coarse operator).")
)

// GridShape describes the structured grid behind a matrix whose unknowns
// are ordered row-major with X fastest (mesh.Grid2D/Grid3D Index order).
// NZ <= 1 means a 2D grid.
type GridShape struct {
	NX, NY, NZ int
}

func (s GridShape) nz() int {
	if s.NZ <= 1 {
		return 1
	}
	return s.NZ
}

// Cells returns the total unknown count the shape implies.
func (s GridShape) Cells() int { return s.NX * s.NY * s.nz() }

// covers reports whether the shape describes exactly n unknowns.
func (s GridShape) covers(n int) bool { return s.NX > 0 && s.NY > 0 && s.Cells() == n }

// coarsen halves every axis (cell-centered: ceil(n/2)).
func (s GridShape) coarsen() GridShape {
	h := func(n int) int { return (n + 1) / 2 }
	return GridShape{NX: h(s.NX), NY: h(s.NY), NZ: h(s.nz())}
}

// Multigrid cycle parameters: a symmetric V(1,1) cycle with damped-Jacobi
// smoothing — equal pre/post smoothing and R = P^T keep the
// preconditioner SPD for SPD operators, which CG requires.
const (
	mgSweeps    = 1   // damped-Jacobi sweeps before, and again after, the coarse correction
	mgOmega     = 0.8 // Jacobi damping factor
	mgCoarsestN = 64  // coarsening stops at this many unknowns; dense LU solves that level
	mgMaxLevels = 16  // bound on the hierarchy depth
)

// mgLevel is one rung of the hierarchy. p maps the next-coarser level's
// correction up to this level; r (= p^T) maps this level's residual
// down. Both are nil on the coarsest level. The x/b/res buffers are
// sized at setup so Apply never allocates.
type mgLevel struct {
	a       *CSR
	invDiag []float64
	p, r    *CSR
	x, b    []float64
	res     []float64
}

// Multigrid is a geometric V-cycle preconditioner over a fixed operator
// discretized on a structured grid (NewGMG). Setup builds the full
// hierarchy — prolongations, Galerkin coarse operators A_c = P^T A P,
// inverse diagonals and a dense LU of the coarsest level — once; Apply
// then runs allocation-free V-cycles, so a Multigrid cached per operator
// (PDN grid, potential field) costs setup exactly once. Apply is not safe for concurrent use; SparseSolver
// serializes solves, which covers the intended use.
type Multigrid struct {
	levels []*mgLevel
	coarse *LU
}

// Levels reports the hierarchy depth, including the coarsest level.
func (m *Multigrid) Levels() int { return len(m.levels) }

// NewGMG builds a geometric multigrid hierarchy for a matrix discretized
// on the given structured grid: cell-centered bilinear (trilinear in 3D)
// prolongation, full-weighting restriction R = P^T, and Galerkin coarse
// operators, re-coarsening by 2 per axis until mgCoarsestN.
func NewGMG(a *CSR, shape GridShape) (*Multigrid, error) {
	if a.Rows != a.Cols {
		return nil, ErrShape
	}
	if !shape.covers(a.Rows) {
		return nil, fmt.Errorf("num: grid shape %dx%dx%d does not cover %d unknowns",
			shape.NX, shape.NY, shape.nz(), a.Rows)
	}
	m := &Multigrid{}
	cur := a
	curShape := shape
	for len(m.levels) < mgMaxLevels-1 && cur.Rows > mgCoarsestN {
		next := curShape.coarsen()
		if next.Cells() >= cur.Rows {
			break // coarsening stalled (grid already 1x1x1-ish)
		}
		p := interpolation(curShape, next)
		if err := m.pushLevel(cur, p); err != nil {
			return nil, err
		}
		cur = MatMul(m.levels[len(m.levels)-1].r, MatMul(cur, p))
		curShape = next
	}
	if err := m.finish(cur); err != nil {
		return nil, err
	}
	mgSetupsGMG.Inc()
	mgLevelsBuilt.Add(uint64(len(m.levels)))
	return m, nil
}

// pushLevel appends a non-coarsest level with prolongation p.
func (m *Multigrid) pushLevel(a *CSR, p *CSR) error {
	inv, err := invDiagOf(a)
	if err != nil {
		return err
	}
	a.EnsureFormat()
	m.levels = append(m.levels, &mgLevel{
		a: a, invDiag: inv, p: p, r: p.Transpose(),
		x: make([]float64, a.Rows), b: make([]float64, a.Rows), res: make([]float64, a.Rows),
	})
	return nil
}

// finish installs the coarsest level and its direct factorization.
func (m *Multigrid) finish(a *CSR) error {
	inv, err := invDiagOf(a)
	if err != nil {
		return err
	}
	a.EnsureFormat()
	m.levels = append(m.levels, &mgLevel{
		a: a, invDiag: inv,
		x: make([]float64, a.Rows), b: make([]float64, a.Rows), res: make([]float64, a.Rows),
	})
	lu, err := FactorLU(a.ToDense())
	if err != nil {
		// A singular coarse operator (e.g. a pure-Neumann network whose
		// null space survived coarsening) falls back to heavy smoothing
		// on that level instead of failing the whole hierarchy.
		m.coarse = nil
		return nil
	}
	m.coarse = lu
	return nil
}

func invDiagOf(a *CSR) ([]float64, error) {
	d := a.Diag()
	inv := make([]float64, len(d))
	for i, v := range d {
		if v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("num: multigrid needs a nonzero finite diagonal (row %d has %g)", i, v)
		}
		inv[i] = 1 / v
	}
	return inv, nil
}

// Apply runs one V-cycle on A z = r from a zero initial guess. It is
// allocation-free: every buffer was sized at setup.
func (m *Multigrid) Apply(r, z []float64) {
	f := m.levels[0]
	copy(f.b, r)
	Fill(f.x, 0)
	m.vcycle(0)
	copy(z, f.x)
	mgCycles.Inc()
}

func (m *Multigrid) vcycle(l int) {
	lev := m.levels[l]
	if l == len(m.levels)-1 {
		if m.coarse != nil {
			// LU never fails here: shapes were fixed at setup.
			//lint:ignore errignore SolveInto only errors on shape mismatch, pinned at setup
			_ = m.coarse.SolveInto(lev.x, lev.b)
		} else {
			mgCoarseHeavySmooths.Inc()
			jacobiSmooth(lev, 8*mgSweeps)
		}
		return
	}
	jacobiSmooth(lev, mgSweeps)
	lev.a.MulVec(lev.x, lev.res)
	for i := range lev.res {
		lev.res[i] = lev.b[i] - lev.res[i]
	}
	next := m.levels[l+1]
	lev.r.MulVec(lev.res, next.b)
	Fill(next.x, 0)
	m.vcycle(l + 1)
	lev.p.MulVec(next.x, lev.res)
	Axpy(1, lev.res, lev.x)
	jacobiSmooth(lev, mgSweeps)
}

// jacobiSmooth runs damped-Jacobi sweeps x += omega * D^{-1} (b - A x).
func jacobiSmooth(lev *mgLevel, sweeps int) {
	for s := 0; s < sweeps; s++ {
		lev.a.MulVec(lev.x, lev.res)
		for i, d := range lev.invDiag {
			lev.x[i] += mgOmega * d * (lev.b[i] - lev.res[i])
		}
	}
}

// interpolation builds the cell-centered bilinear/trilinear prolongation
// from the coarse shape to the fine shape as a CSR (fine rows x coarse
// cols). Each fine cell interpolates from its parent coarse cell and the
// axis neighbours its center leans toward, with 1D weights (3/4, 1/4)
// tensored across axes; at domain boundaries the stencil clamps to
// injection.
func interpolation(fine, coarse GridShape) *CSR {
	ax := axisWeights(fine.NX, coarse.NX)
	ay := axisWeights(fine.NY, coarse.NY)
	az := axisWeights(fine.nz(), coarse.nz())
	co := NewCOO(fine.Cells(), coarse.Cells())
	cIdx := func(i, j, k int) int { return (k*coarse.NY+j)*coarse.NX + i }
	row := 0
	for k := 0; k < fine.nz(); k++ {
		for j := 0; j < fine.NY; j++ {
			for i := 0; i < fine.NX; i++ {
				for _, wz := range az[k] {
					for _, wy := range ay[j] {
						for _, wx := range ax[i] {
							co.Add(row, cIdx(wx.i, wy.i, wz.i), wx.w*wy.w*wz.w)
						}
					}
				}
				row++
			}
		}
	}
	return co.ToCSR()
}

// axisEntry is one (coarse index, weight) contribution along an axis.
type axisEntry struct {
	i int
	w float64
}

// axisWeights returns, per fine cell, the 1D cell-centered linear
// interpolation stencil: parent coarse cell with weight 3/4 and the
// neighbour the fine center leans toward with 1/4, clamped to injection
// at the boundary.
func axisWeights(n, nc int) [][]axisEntry {
	out := make([][]axisEntry, n)
	for i := 0; i < n; i++ {
		c := i / 2
		if c >= nc {
			c = nc - 1
		}
		nb := c + 1
		if i%2 == 0 {
			nb = c - 1
		}
		if nb < 0 || nb >= nc {
			out[i] = []axisEntry{{i: c, w: 1}}
		} else {
			out[i] = []axisEntry{{i: c, w: 0.75}, {i: nb, w: 0.25}}
		}
	}
	return out
}
