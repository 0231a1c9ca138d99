// Package potential solves the charge-conservation equation of the
// paper (eq. (11), -div(sigma grad phi) = 0) on the channel
// cross-section: the ionic potential field between the two side-wall
// electrodes through the co-laminar electrolyte pair. It turns the
// lumped "gap / sigma" ohmic estimate used by the fast path into a
// proper field solution, capturing current constriction when the
// electrodes cover only part of the side walls and the series
// combination of two electrolytes with different conductivities.
package potential

import (
	"fmt"
	"sync"

	"bright/internal/mesh"
	"bright/internal/num"
)

// Problem is one cross-section potential solve. Coordinates: x spans
// the electrode gap (width), y the etch depth (height). The left
// electrode (x=0) is held at 0 V and the right (x=width) at 1 V; each
// covers the wall from y=0 up to coverage*height. All other boundaries
// are insulating.
type Problem struct {
	// Width is the electrode gap (m); Height the etch depth (m).
	Width, Height float64
	// CoverageLeft, CoverageRight are the electrode height fractions in
	// (0, 1].
	CoverageLeft, CoverageRight float64
	// SigmaFuel and SigmaOx are the conductivities (S/m) of the two
	// co-laminar streams; fuel occupies x < Width/2.
	SigmaFuel, SigmaOx float64
	// NX, NY are the grid resolution (defaults 48x48).
	NX, NY int
	// Warm optionally carries the potential field between solves of the
	// same cross-section at slowly varying parameters (e.g. conductivity
	// sweeps), seeding CG from the previous field instead of the flat
	// 0.5 V mid-gap guess. Auto-invalidates on a resolution change.
	Warm *num.WarmStart
}

// Validate reports whether the problem is well posed.
func (p *Problem) Validate() error {
	if p.Width <= 0 || p.Height <= 0 {
		return fmt.Errorf("potential: nonpositive domain %gx%g", p.Width, p.Height)
	}
	if p.CoverageLeft <= 0 || p.CoverageLeft > 1 || p.CoverageRight <= 0 || p.CoverageRight > 1 {
		return fmt.Errorf("potential: coverages (%g, %g) out of (0,1]", p.CoverageLeft, p.CoverageRight)
	}
	if p.SigmaFuel <= 0 || p.SigmaOx <= 0 {
		return fmt.Errorf("potential: nonpositive conductivity")
	}
	return nil
}

func (p *Problem) grid() *mesh.Grid2D {
	nx, ny := p.NX, p.NY
	if nx == 0 {
		nx = 48
	}
	if ny == 0 {
		ny = 48
	}
	return mesh.NewUniformGrid2D(p.Width, p.Height, nx, ny)
}

// Solution is the solved field and its integral quantities.
type Solution struct {
	// Phi is the potential field (V) for a 1 V terminal difference.
	Phi *mesh.Field2D
	// CurrentPerLength is the ionic current per unit channel length
	// (A/m) at the 1 V difference.
	CurrentPerLength float64
	// ResistancePerLength is the cross-section resistance-length
	// product (ohm.m): multiply by 1/channelLength for the channel's
	// ionic resistance.
	ResistancePerLength float64
	// ASR is the area-specific resistance (ohm.m2) referenced to the
	// full side-wall electrode area (height x length).
	ASR float64
	// ConstrictionFactor = ASR / ASR(full coverage, analytic): 1 for
	// full electrodes, > 1 when coverage constricts the current.
	ConstrictionFactor float64
}

// AnalyticASR returns the closed-form area-specific resistance
// (ohm.m2) for full-coverage electrodes: the series combination of the
// two electrolyte half-gaps.
func (p *Problem) AnalyticASR() float64 {
	return p.Width / 2 * (1/p.SigmaFuel + 1/p.SigmaOx)
}

// Solve computes the potential field with a cell-centered finite-volume
// discretization (harmonic-mean face conductivities at the co-laminar
// interface) and conjugate gradients.
func Solve(p *Problem) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := p.grid()
	nx, ny := g.NX(), g.NY()
	n := g.NumCells()
	sigmaAt := func(i int) float64 {
		if g.X.Centers[i] < p.Width/2 {
			return p.SigmaFuel
		}
		return p.SigmaOx
	}
	co := num.NewCOO(n, n)
	b := make([]float64, n)
	harm := func(s1, s2 float64) float64 { return 2 * s1 * s2 / (s1 + s2) }
	for j := 0; j < ny; j++ {
		y := g.Y.Centers[j]
		for i := 0; i < nx; i++ {
			row := g.Index(i, j)
			dx := g.X.Widths[i]
			dy := g.Y.Widths[j]
			s := sigmaAt(i)
			// Interior faces.
			if i < nx-1 {
				cond := harm(s, sigmaAt(i+1)) * dy / g.X.CenterSpacing(i)
				col := g.Index(i+1, j)
				co.Add(row, row, cond)
				co.Add(col, col, cond)
				co.Add(row, col, -cond)
				co.Add(col, row, -cond)
			}
			if j < ny-1 {
				cond := s * dx / g.Y.CenterSpacing(j)
				col := g.Index(i, j+1)
				co.Add(row, row, cond)
				co.Add(col, col, cond)
				co.Add(row, col, -cond)
				co.Add(col, row, -cond)
			}
			// Electrode boundaries (Dirichlet via half-cell ghost).
			if i == 0 && y <= p.CoverageLeft*p.Height {
				cond := s * dy / (dx / 2)
				co.Add(row, row, cond)
				// phi = 0: no RHS term.
			}
			if i == nx-1 && y <= p.CoverageRight*p.Height {
				cond := s * dy / (dx / 2)
				co.Add(row, row, cond)
				b[row] += cond * 1.0 // phi = 1 V
			}
		}
	}
	a := co.ToCSR()
	x := make([]float64, n)
	if !p.Warm.Seed(x) {
		num.Fill(x, 0.5)
	}
	// The FV diffusion stamps are symmetric by construction: CG. The
	// grid shape lets the preconditioner policy build geometric
	// multigrid at high resolutions (the default 48x48 stays below the
	// auto threshold and runs Jacobi).
	solver := num.NewSparseSolverSymmetric(a, true,
		num.IterOptions{Tol: 1e-11, Shape: &num.GridShape{NX: nx, NY: ny}})
	if _, err := solver.Solve(b, x); err != nil {
		return nil, fmt.Errorf("potential: field solve failed: %w", err)
	}
	p.Warm.Save(x)
	sol := &Solution{Phi: &mesh.Field2D{Grid: g, Data: x}}
	// Current through the left electrode per unit channel length.
	for j := 0; j < ny; j++ {
		y := g.Y.Centers[j]
		if y > p.CoverageLeft*p.Height {
			continue
		}
		dy := g.Y.Widths[j]
		dx := g.X.Widths[0]
		sol.CurrentPerLength += p.SigmaFuel * dy * (x[g.Index(0, j)] - 0) / (dx / 2)
	}
	if sol.CurrentPerLength <= 0 {
		return nil, fmt.Errorf("potential: nonpositive electrode current")
	}
	sol.ResistancePerLength = 1.0 / sol.CurrentPerLength
	sol.ASR = sol.ResistancePerLength * p.Height
	sol.ConstrictionFactor = sol.ASR / p.AnalyticASR()
	return sol, nil
}

// constrictionMemo caches ConstrictionFactor results process-wide. The
// factor is a ratio of two resistances through the same uniform-sigma
// medium, so it is invariant under sigma scaling and the key needs only
// the geometry and coverage. Sweeps and per-cell models that revisit
// the same cross-section (the flow-cell array evaluates it once per
// clogging state) then skip the 48x48 CG solve entirely.
var constrictionMemo sync.Map // [3]float64{width, height, coverage} -> float64

// ConstrictionFactor is a convenience wrapper returning only the factor
// for the given geometry and symmetric electrode coverage. Results are
// memoized process-wide: the factor does not depend on sigma (it
// cancels in the ASR ratio for a uniform medium), so the cache is keyed
// on (width, height, coverage) only.
func ConstrictionFactor(width, height, coverage, sigma float64) (float64, error) {
	key := [3]float64{width, height, coverage}
	if v, ok := constrictionMemo.Load(key); ok {
		return v.(float64), nil
	}
	sol, err := Solve(&Problem{
		Width: width, Height: height,
		CoverageLeft: coverage, CoverageRight: coverage,
		SigmaFuel: sigma, SigmaOx: sigma,
	})
	if err != nil {
		return 0, err
	}
	constrictionMemo.Store(key, sol.ConstrictionFactor)
	return sol.ConstrictionFactor, nil
}
