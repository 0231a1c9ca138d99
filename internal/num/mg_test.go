package num

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// laplacian3D builds the SPD 7-point stencil on an nx x ny x nz grid,
// row-major with X fastest (mesh.Grid3D order).
func laplacian3D(nx, ny, nz int) *CSR {
	c := NewCOO(nx*ny*nz, nx*ny*nz)
	idx := func(i, j, k int) int { return (k*ny+j)*nx + i }
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				row := idx(i, j, k)
				c.Add(row, row, 6)
				if i > 0 {
					c.Add(row, idx(i-1, j, k), -1)
				}
				if i < nx-1 {
					c.Add(row, idx(i+1, j, k), -1)
				}
				if j > 0 {
					c.Add(row, idx(i, j-1, k), -1)
				}
				if j < ny-1 {
					c.Add(row, idx(i, j+1, k), -1)
				}
				if k > 0 {
					c.Add(row, idx(i, j, k-1), -1)
				}
				if k < nz-1 {
					c.Add(row, idx(i, j, k+1), -1)
				}
			}
		}
	}
	return c.ToCSR()
}

func TestCSRTranspose(t *testing.T) {
	c := NewCOO(3, 4)
	c.Add(0, 1, 2)
	c.Add(0, 3, -1)
	c.Add(1, 0, 5)
	c.Add(2, 2, 7)
	c.Add(2, 3, 0.5)
	a := c.ToCSR()
	at := a.Transpose()
	if at.Rows != 4 || at.Cols != 3 {
		t.Fatalf("transpose shape %dx%d, want 4x3", at.Rows, at.Cols)
	}
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if a.At(i, j) != at.At(j, i) {
				t.Fatalf("At(%d,%d)=%g but transpose At(%d,%d)=%g", i, j, a.At(i, j), j, i, at.At(j, i))
			}
		}
	}
}

func TestCSRMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	randCSR := func(rows, cols int) *CSR {
		c := NewCOO(rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if rng.Float64() < 0.4 {
					c.Add(i, j, rng.NormFloat64())
				}
			}
		}
		return c.ToCSR()
	}
	a := randCSR(7, 5)
	b := randCSR(5, 6)
	p := MatMul(a, b)
	if p.Rows != 7 || p.Cols != 6 {
		t.Fatalf("product shape %dx%d, want 7x6", p.Rows, p.Cols)
	}
	for i := 0; i < 7; i++ {
		// Columns must come out sorted (determinism contract).
		for k := p.RowPtr[i] + 1; k < p.RowPtr[i+1]; k++ {
			if p.ColIdx[k-1] >= p.ColIdx[k] {
				t.Fatalf("row %d columns not strictly sorted", i)
			}
		}
		for j := 0; j < 6; j++ {
			want := 0.0
			for l := 0; l < 5; l++ {
				want += a.At(i, l) * b.At(l, j)
			}
			if math.Abs(p.At(i, j)-want) > 1e-12 {
				t.Fatalf("product At(%d,%d)=%g, want %g", i, j, p.At(i, j), want)
			}
		}
	}
}

// TestGMGBeatsJacobi pins the PR's headline acceptance bound: on the
// 128x128 Laplacian, geometric-multigrid-preconditioned CG must converge
// in at most half the iterations of Jacobi-preconditioned CG.
func TestGMGBeatsJacobi(t *testing.T) {
	const n = 128
	a := laplacian2D(n)
	mg, err := NewGMG(a, GridShape{NX: n, NY: n})
	if err != nil {
		t.Fatal(err)
	}
	if mg.Levels() < 3 {
		t.Fatalf("levels=%d, want >=3", mg.Levels())
	}
	rng := rand.New(rand.NewSource(5))
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	opt := IterOptions{Tol: 1e-8}
	x := make([]float64, a.Rows)
	opt.M = NewJacobi(a)
	jac, err := CG(a, b, x, opt)
	if err != nil {
		t.Fatal(err)
	}
	Fill(x, 0)
	opt.M = mg
	mgr, err := CG(a, b, x, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rn := residualNorm(a, b, x); rn > 1e-7 {
		t.Fatalf("MG-CG residual %g", rn)
	}
	if 2*mgr.Iterations > jac.Iterations {
		t.Fatalf("MG-CG took %d iterations vs Jacobi-CG %d, want >=2x fewer", mgr.Iterations, jac.Iterations)
	}
	t.Logf("128x128: jacobi=%d iters, gmg=%d iters (%.1fx)", jac.Iterations, mgr.Iterations,
		float64(jac.Iterations)/float64(mgr.Iterations))
}

func TestGMG3D(t *testing.T) {
	a := laplacian3D(24, 20, 8)
	mg, err := NewGMG(a, GridShape{NX: 24, NY: 20, NZ: 8})
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = float64(i%9) - 4
	}
	x := make([]float64, a.Rows)
	res, err := CG(a, b, x, IterOptions{Tol: 1e-9, M: mg})
	if err != nil {
		t.Fatal(err)
	}
	if rn := residualNorm(a, b, x); rn > 1e-8 {
		t.Fatalf("residual %g after %d iters", rn, res.Iterations)
	}
	Fill(x, 0)
	jac, err := CG(a, b, x, IterOptions{Tol: 1e-9, M: NewJacobi(a)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations >= jac.Iterations {
		t.Fatalf("3D MG-CG took %d iterations vs Jacobi %d, want fewer", res.Iterations, jac.Iterations)
	}
}

// TestGMGShapeMismatch: a shape that does not cover the matrix must be
// rejected at setup, not fail mysteriously later.
func TestGMGShapeMismatch(t *testing.T) {
	a := laplacian2D(16)
	if _, err := NewGMG(a, GridShape{NX: 16, NY: 17}); err == nil {
		t.Fatal("mismatched shape accepted")
	}
}

// TestMGApplyZeroAlloc is the per-cycle allocation contract: hierarchy
// setup may allocate, Apply must not.
func TestMGApplyZeroAlloc(t *testing.T) {
	a := laplacian2D(32)
	mg, err := NewGMG(a, GridShape{NX: 32, NY: 32})
	if err != nil {
		t.Fatal(err)
	}
	r := make([]float64, a.Rows)
	z := make([]float64, a.Rows)
	for i := range r {
		r[i] = float64(i%13) - 6
	}
	mg.Apply(r, z) // warm any lazy paths before counting
	if allocs := testing.AllocsPerRun(20, func() { mg.Apply(r, z) }); allocs != 0 {
		t.Fatalf("Apply allocates %.1f per cycle, want 0", allocs)
	}
}

// TestPrecondPolicy pins the preconditioner heuristic: geometric
// multigrid only for symmetric systems at or above MGAutoThreshold whose
// Shape covers the matrix, Jacobi everywhere else, and an explicit
// IterOptions.M always wins.
func TestPrecondPolicy(t *testing.T) {
	small := laplacian2D(16) // 256 unknowns < MGAutoThreshold
	large := laplacian2D(64) // 4096 unknowns == MGAutoThreshold
	kind := func(p Preconditioner) string {
		switch p.(type) {
		case *Multigrid:
			return "gmg"
		case *JacobiPreconditioner:
			return "jacobi"
		}
		return "other"
	}
	for _, tc := range []struct {
		name string
		a    *CSR
		sym  bool
		opt  IterOptions
		want string
	}{
		{"small symmetric", small, true, IterOptions{}, "jacobi"},
		{"small symmetric with shape", small, true, IterOptions{Shape: &GridShape{NX: 16, NY: 16}}, "jacobi"},
		{"large symmetric", large, true, IterOptions{}, "jacobi"},
		{"large symmetric with shape", large, true, IterOptions{Shape: &GridShape{NX: 64, NY: 64}}, "gmg"},
		{"large symmetric with mismatched shape", large, true, IterOptions{Shape: &GridShape{NX: 32, NY: 32}}, "jacobi"},
		{"large nonsymmetric", large, false, IterOptions{Shape: &GridShape{NX: 64, NY: 64}}, "jacobi"},
		{"explicit M", large, true, IterOptions{M: IdentityPreconditioner{}}, "other"},
	} {
		if got := kind(NewSparseSolverSymmetric(tc.a, tc.sym, tc.opt).Precond()); got != tc.want {
			t.Errorf("%s: preconditioner %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestMaxIterOutcome pins the budget-exhaustion contract: the error is
// ErrMaxIter (still matching ErrNoConvergence), the solver does NOT
// fall back from CG to BiCGSTAB on it, and the dedicated obs counter
// moves while the fallback counter does not.
func TestMaxIterOutcome(t *testing.T) {
	a := laplacian2D(32)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1
	}
	x := make([]float64, a.Rows)
	_, err := CG(a, b, x, IterOptions{Tol: 1e-14, MaxIter: 2, M: NewJacobi(a)})
	if !errors.Is(err, ErrMaxIter) || !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("budget exhaustion returned %v, want ErrMaxIter wrapping ErrNoConvergence", err)
	}

	m0, f0, fail0 := maxIterExhausted.Value(), cgFallbacks.Value(), solveFailures.Value()
	Fill(x, 0)
	s := NewSparseSolverSymmetric(a, true, IterOptions{Tol: 1e-14, MaxIter: 2, M: NewJacobi(a)})
	if _, err := s.Solve(b, x); !errors.Is(err, ErrMaxIter) {
		t.Fatalf("SparseSolver returned %v, want ErrMaxIter", err)
	}
	if d := maxIterExhausted.Value() - m0; d != 1 {
		t.Fatalf("maxiter counter moved by %d, want 1", d)
	}
	if d := cgFallbacks.Value() - f0; d != 0 {
		t.Fatalf("fallback counter moved by %d on budget exhaustion, want 0", d)
	}
	if d := solveFailures.Value() - fail0; d != 1 {
		t.Fatalf("failure counter moved by %d, want 1", d)
	}
}

// TestMaxIterDefaultCap: the derived 10*n default must clamp on large
// systems instead of masking non-convergence behind huge budgets.
func TestMaxIterDefaultCap(t *testing.T) {
	o := IterOptions{}.withDefaults(1 << 20)
	if o.MaxIter != defaultMaxIterCap {
		t.Fatalf("default MaxIter for n=1<<20 is %d, want cap %d", o.MaxIter, defaultMaxIterCap)
	}
	o = IterOptions{}.withDefaults(10)
	if o.MaxIter != 200 {
		t.Fatalf("default MaxIter for n=10 is %d, want floor 200", o.MaxIter)
	}
	o = IterOptions{MaxIter: 123456}.withDefaults(10)
	if o.MaxIter != 123456 {
		t.Fatalf("explicit MaxIter overridden to %d", o.MaxIter)
	}
}

// TestMGTelemetry: hierarchy setup and cycle counters move.
func TestMGTelemetry(t *testing.T) {
	s0, c0, l0 := mgSetupsGMG.Value(), mgCycles.Value(), mgLevelsBuilt.Value()
	a := laplacian2D(32)
	mg, err := NewGMG(a, GridShape{NX: 32, NY: 32})
	if err != nil {
		t.Fatal(err)
	}
	r := make([]float64, a.Rows)
	z := make([]float64, a.Rows)
	r[0] = 1
	mg.Apply(r, z)
	mg.Apply(r, z)
	if d := mgSetupsGMG.Value() - s0; d != 1 {
		t.Fatalf("gmg setup counter moved by %d, want 1", d)
	}
	if d := mgCycles.Value() - c0; d != 2 {
		t.Fatalf("cycle counter moved by %d, want 2", d)
	}
	if d := mgLevelsBuilt.Value() - l0; int(d) != mg.Levels() {
		t.Fatalf("levels counter moved by %d, want %d", d, mg.Levels())
	}
}
