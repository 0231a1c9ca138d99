package thermal

import (
	"context"
	"fmt"
	"math"

	"bright/internal/mesh"
	"bright/internal/num"
)

// Problem is one thermal solve: a stack over a die with a power map.
// The coolant flows along the +Y axis (the paper's channels run along
// the 21.34 mm die dimension; Table II's 22 mm channel length).
type Problem struct {
	// DieWidth (X, across channels) and DieHeight (Y, along flow), m.
	DieWidth, DieHeight float64
	Stack               *Stack
	// Power is the heat-source density field (W/m2) on the solve grid
	// (rasterize the floorplan power map onto Grid()). In multi-tier
	// stacks every heat-source layer receives this map.
	Power *mesh.Field2D
	// ExtraFluidHeat is additional heat (W) deposited directly into the
	// coolant, distributed uniformly over all channels of all cavities
	// — the electrochemical loss heat of the flow cells in
	// co-simulation.
	ExtraFluidHeat float64
	// NX, NY are the lateral grid resolution (defaults 88 x 64: one
	// cell per channel pitch across, ~0.33 mm along flow).
	NX, NY int
	// NonlinearTempIterations enables temperature-dependent layer
	// conductivities (Material.TempExponent): the steady solve is
	// repeated with each layer's conductivity evaluated at its mean
	// temperature until the layer temperatures settle, up to this many
	// passes. 0 keeps the single linear solve at the 300 K reference.
	NonlinearTempIterations int
}

// Grid returns the lateral solve grid.
func (p *Problem) Grid() *mesh.Grid2D {
	nx, ny := p.NX, p.NY
	if nx == 0 {
		nx = 88
	}
	if ny == 0 {
		ny = 64
	}
	return mesh.NewUniformGrid2D(p.DieWidth, p.DieHeight, nx, ny)
}

// Validate reports whether the problem is well posed.
func (p *Problem) Validate() error {
	if p.DieWidth <= 0 || p.DieHeight <= 0 {
		return fmt.Errorf("thermal: nonpositive die %gx%g", p.DieWidth, p.DieHeight)
	}
	if p.Stack == nil {
		return fmt.Errorf("thermal: nil stack")
	}
	if err := p.Stack.Validate(); err != nil {
		return err
	}
	if p.Power == nil {
		return fmt.Errorf("thermal: nil power field")
	}
	if p.ExtraFluidHeat < 0 {
		return fmt.Errorf("thermal: negative extra fluid heat %g", p.ExtraFluidHeat)
	}
	return nil
}

// system is the assembled thermal network before matrix conversion.
type system struct {
	grid       *mesh.Grid2D
	co         *num.COO
	b          []float64 // baseline RHS (inlet advection), no chip power or fluid heat
	rhs        []float64 // reused full-RHS buffer of rhsWithPower
	cap        []float64 // heat capacity per node (J/K)
	n          int
	nx, ny, nz int
	activeKs   []int // heat-source layer indices
	cavKs      []int // cavity layer indices
	inletT     float64
	totalPower float64 // of the most recent rhsWithPower call
	// reversed reports whether column i flows in -Y (counterflow).
	reversed func(i int) bool
}

// rhsWithPower returns the full right-hand side for the given power
// field: the baseline (advection) plus the chip power deposited into
// every heat-source layer and extraFluidHeat (W) spread uniformly over
// all fluid nodes. It also records the integrated power in
// s.totalPower. The returned slice is an internal buffer, valid until
// the next rhsWithPower call — copy it to keep it.
func (s *system) rhsWithPower(power *mesh.Field2D, extraFluidHeat float64) ([]float64, error) {
	if power.Grid.NX() != s.nx || power.Grid.NY() != s.ny {
		return nil, fmt.Errorf("thermal: power grid %dx%d does not match solve grid %dx%d",
			power.Grid.NX(), power.Grid.NY(), s.nx, s.ny)
	}
	if s.rhs == nil {
		s.rhs = make([]float64, s.n)
	}
	b := s.rhs
	copy(b, s.b)
	nSolid := s.nx * s.ny * s.nz
	if extraFluidHeat != 0 {
		perCell := extraFluidHeat / float64(s.n-nSolid)
		for i := nSolid; i < s.n; i++ {
			b[i] += perCell
		}
	}
	s.totalPower = 0
	for _, k := range s.activeKs {
		for j := 0; j < s.ny; j++ {
			for i := 0; i < s.nx; i++ {
				q := power.At(i, j) * s.grid.X.Widths[i] * s.grid.Y.Widths[j]
				b[s.sIdx(i, j, k)] += q
				s.totalPower += q
			}
		}
	}
	return b, nil
}

func (s *system) sIdx(i, j, k int) int { return (k*s.ny+j)*s.nx + i }

// fIdx returns the fluid node of cavity c (index into cavKs) at (i, j).
func (s *system) fIdx(c, i, j int) int {
	return s.nx*s.ny*s.nz + (c*s.ny+j)*s.nx + i
}

// assemble builds the steady-state network (conductances, sources,
// advection) plus per-node heat capacities for the transient solver.
// layerT optionally supplies per-layer temperatures (K) at which the
// layer conductivities are evaluated; nil uses the 300 K reference.
func assemble(p *Problem, layerT []float64) (*system, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := p.Grid()
	nx, ny := g.NX(), g.NY()
	if p.Power.Grid.NX() != nx || p.Power.Grid.NY() != ny {
		return nil, fmt.Errorf("thermal: power grid %dx%d does not match solve grid %dx%d",
			p.Power.Grid.NX(), p.Power.Grid.NY(), nx, ny)
	}
	layers := p.Stack.Layers
	nz := len(layers)
	var cavKs, activeKs []int
	for k, l := range layers {
		if l.Kind == ChannelCavity {
			cavKs = append(cavKs, k)
		}
		if l.HeatSource {
			activeKs = append(activeKs, k)
		}
	}
	if len(cavKs) == 0 {
		return nil, fmt.Errorf("thermal: the stack needs a channel cavity layer (the only heat sink)")
	}
	nSolid := nx * ny * nz
	n := nSolid + len(cavKs)*nx*ny
	s := &system{
		grid: g, co: num.NewCOO(n, n),
		b: make([]float64, n), cap: make([]float64, n),
		n: n, nx: nx, ny: ny, nz: nz,
		activeKs: activeKs, cavKs: cavKs,
		inletT: p.Stack.Channels.InletTemperature,
	}
	spec := p.Stack.Channels
	phi := spec.FluidFraction()
	layerTempOf := func(k int) float64 {
		if layerT == nil || k >= len(layerT) {
			return 0 // reference
		}
		return layerT[k]
	}
	kEff := func(k int) float64 {
		l := layers[k]
		kc := l.Material.ConductivityAt(layerTempOf(k))
		if l.Kind == ChannelCavity {
			return kc*(1-phi) + spec.Fluid.ThermalConductivity*phi
		}
		return kc
	}
	stamp := func(a, c int, cond float64) {
		s.co.Add(a, a, cond)
		s.co.Add(a, c, -cond)
	}
	for k := 0; k < nz; k++ {
		t := layers[k].Thickness
		kc := kEff(k)
		cvol := layers[k].Material.VolHeatCapacity
		if layers[k].Kind == ChannelCavity {
			cvol *= 1 - phi // fluid capacity carried by the fluid nodes
		}
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				row := s.sIdx(i, j, k)
				dx := g.X.Widths[i]
				dy := g.Y.Widths[j]
				s.cap[row] = cvol * dx * dy * t
				if i < nx-1 {
					cond := kc * (dy * t) / g.X.CenterSpacing(i)
					stamp(row, s.sIdx(i+1, j, k), cond)
					stamp(s.sIdx(i+1, j, k), row, cond)
				}
				if j < ny-1 {
					cond := kc * (dx * t) / g.Y.CenterSpacing(j)
					stamp(row, s.sIdx(i, j+1, k), cond)
					stamp(s.sIdx(i, j+1, k), row, cond)
				}
				if k < nz-1 {
					up := s.sIdx(i, j, k+1)
					r := t/(2*kc) + layers[k+1].Thickness/(2*kEff(k+1))
					cond := (dx * dy) / r
					stamp(row, up, cond)
					stamp(up, row, cond)
				}
			}
		}
	}
	h := spec.WallHTC()
	perim := spec.ConvectivePerimeter()
	chanPerCell := float64(spec.NChannels) / float64(nx)
	fluidCapPerCell := spec.Fluid.HeatCapacityVol * spec.Channel.Area() * chanPerCell
	// Per-column flow share (clogging support): column i carries
	// weight_i/sum of the total heat capacity rate.
	weight := func(i int) float64 { return 1.0 / float64(nx) }
	if spec.FlowWeights != nil {
		if len(spec.FlowWeights) != nx {
			return nil, fmt.Errorf("thermal: %d flow weights for %d columns", len(spec.FlowWeights), nx)
		}
		sum := 0.0
		for _, w := range spec.FlowWeights {
			sum += w
		}
		weight = func(i int) float64 { return spec.FlowWeights[i] / sum }
	}
	s.reversed = func(i int) bool { return spec.CounterFlow && i%2 == 1 }
	for c, cavK := range cavKs {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				fRow := s.fIdx(c, i, j)
				sRow := s.sIdx(i, j, cavK)
				dy := g.Y.Widths[j]
				mcCell := spec.HeatCapacityRate() * weight(i)
				gConv := h * perim * dy * chanPerCell
				if mcCell == 0 {
					// Clogged column: stagnant fluid neither advects
					// nor convects meaningfully; couple it weakly to
					// the wall so its node stays well defined.
					gConv *= 1e-6
				}
				stamp(sRow, fRow, gConv)
				s.co.Add(fRow, fRow, gConv+mcCell)
				s.co.Add(fRow, sRow, -gConv)
				atInlet := j == 0
				upstream := j - 1
				if s.reversed(i) {
					atInlet = j == ny-1
					upstream = j + 1
				}
				if atInlet {
					s.b[fRow] += mcCell * spec.InletTemperature
				} else {
					s.co.Add(fRow, s.fIdx(c, i, upstream), -mcCell)
				}
				s.cap[fRow] = fluidCapPerCell * dy
			}
		}
	}
	return s, nil
}

// Solution is the solved temperature state.
type Solution struct {
	Grid *mesh.Grid2D
	// ActiveT is the hottest heat-source-plane temperature per cell (K);
	// for single-die stacks this is simply the active plane.
	ActiveT *mesh.Field2D
	// TierActiveT holds each heat-source layer's plane separately
	// (bottom-up), for multi-tier stacks.
	TierActiveT []*mesh.Field2D
	// WallT is the first cavity's solid (channel wall) temperature (K).
	WallT *mesh.Field2D
	// FluidT is the first cavity's coolant temperature (K) per cell.
	FluidT *mesh.Field2D
	// PeakT is the maximum active-plane temperature (K) over all tiers.
	PeakT float64
	// PeakX, PeakY locate the peak (m).
	PeakX, PeakY float64
	// OutletT is the mean coolant outlet temperature (K) over all
	// cavities.
	OutletT float64
	// MeanFluidT is the volume-mean coolant temperature (K) over all
	// cavities, the value the electrochemistry sees in co-simulation.
	MeanFluidT float64
	// MeanWallT is the mean channel-wall temperature (K) over all
	// cavities.
	MeanWallT float64
	// TotalPower is the integrated chip power (W, all tiers).
	TotalPower float64
}

func (s *system) extract(x []float64) *Solution {
	sol := &Solution{
		Grid:       s.grid,
		ActiveT:    mesh.NewField2D(s.grid),
		WallT:      mesh.NewField2D(s.grid),
		FluidT:     mesh.NewField2D(s.grid),
		PeakT:      -1,
		TotalPower: s.totalPower,
	}
	for range s.activeKs {
		sol.TierActiveT = append(sol.TierActiveT, mesh.NewField2D(s.grid))
	}
	nCav := len(s.cavKs)
	var fluidSum, wallSum float64
	for j := 0; j < s.ny; j++ {
		for i := 0; i < s.nx; i++ {
			hottest := -1.0
			for t, k := range s.activeKs {
				ta := x[s.sIdx(i, j, k)]
				sol.TierActiveT[t].Set(i, j, ta)
				if ta > hottest {
					hottest = ta
				}
			}
			sol.ActiveT.Set(i, j, hottest)
			if hottest > sol.PeakT {
				sol.PeakT = hottest
				sol.PeakX, sol.PeakY = s.grid.X.Centers[i], s.grid.Y.Centers[j]
			}
			sol.WallT.Set(i, j, x[s.sIdx(i, j, s.cavKs[0])])
			sol.FluidT.Set(i, j, x[s.fIdx(0, i, j)])
			for c := 0; c < nCav; c++ {
				tf := x[s.fIdx(c, i, j)]
				tw := x[s.sIdx(i, j, s.cavKs[c])]
				fluidSum += tf
				wallSum += tw
				outletJ := s.ny - 1
				if s.reversed != nil && s.reversed(i) {
					outletJ = 0
				}
				if j == outletJ {
					sol.OutletT += tf / float64(s.nx*nCav)
				}
			}
		}
	}
	sol.MeanFluidT = fluidSum / float64(s.nx*s.ny*nCav)
	sol.MeanWallT = wallSum / float64(s.nx*s.ny*nCav)
	return sol
}

// layerMeans returns the mean temperature of each solid layer from a
// raw solution vector.
func (s *system) layerMeans(x []float64) []float64 {
	out := make([]float64, s.nz)
	cells := float64(s.nx * s.ny)
	for k := 0; k < s.nz; k++ {
		sum := 0.0
		for j := 0; j < s.ny; j++ {
			for i := 0; i < s.nx; i++ {
				sum += x[s.sIdx(i, j, k)]
			}
		}
		out[k] = sum / cells
	}
	return out
}

// solveOnce assembles at the given layer temperatures and solves. x0,
// when sized to the system, seeds the Krylov iteration (warm start);
// otherwise the solve starts from the uniform inlet temperature. The
// advection coupling makes the network nonsymmetric, so the solver is
// pinned to BiCGSTAB.
func solveOnce(p *Problem, layerT, x0 []float64) (*system, []float64, error) {
	s, err := assemble(p, layerT)
	if err != nil {
		return nil, nil, err
	}
	b, err := s.rhsWithPower(p.Power, p.ExtraFluidHeat)
	if err != nil {
		return nil, nil, err
	}
	a := s.co.ToCSR()
	x := make([]float64, s.n)
	if len(x0) == s.n {
		copy(x, x0)
	} else {
		num.Fill(x, s.inletT)
	}
	// MaxIter rides the capped default: exhaustion now surfaces as
	// num.ErrMaxIter instead of burning 60*n iterations.
	solver := num.NewSparseSolverSymmetric(a, false, num.IterOptions{Tol: 1e-10})
	if _, err := solver.Solve(b, x); err != nil {
		return nil, nil, fmt.Errorf("thermal: steady solve failed: %w", err)
	}
	return s, x, nil
}

// Solve computes the steady-state temperature field, optionally with
// temperature-dependent layer conductivities (NonlinearTempIterations).
func Solve(p *Problem) (*Solution, error) {
	return SolveContext(context.Background(), p)
}

// SolveContext is Solve with cancellation: the context is checked before
// the initial linear solve and at every nonlinear conductivity update,
// so a canceled context aborts within one sparse solve.
func SolveContext(ctx context.Context, p *Problem) (*Solution, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s, x, err := solveOnce(p, nil, nil)
	if err != nil {
		return nil, err
	}
	for iter := 0; iter < p.NonlinearTempIterations; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		layerT := s.layerMeans(x)
		// Each conductivity update re-solves from the previous pass's
		// field — the matrices differ only by the temperature-dependent
		// conductivities, so the warm start is close.
		s2, x2, err := solveOnce(p, layerT, x)
		if err != nil {
			return nil, err
		}
		newT := s2.layerMeans(x2)
		maxD := 0.0
		for k := range newT {
			if d := math.Abs(newT[k] - layerT[k]); d > maxD {
				maxD = d
			}
		}
		s, x = s2, x2
		if maxD < 0.05 {
			break
		}
	}
	return s.extract(x), nil
}
