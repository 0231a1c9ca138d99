package num

import (
	"math"
	"math/rand"
	"testing"
)

// laplacian1D builds the standard SPD tridiagonal -u” stencil of size n.
func laplacian1D(n int) *CSR {
	c := NewCOO(n, n)
	for i := 0; i < n; i++ {
		c.Add(i, i, 2)
		if i > 0 {
			c.Add(i, i-1, -1)
		}
		if i < n-1 {
			c.Add(i, i+1, -1)
		}
	}
	return c.ToCSR()
}

func residual(a *CSR, x, b []float64) float64 {
	r := make([]float64, len(b))
	a.MulVec(x, r)
	Axpy(-1, b, r)
	return Norm2(r) / (1 + Norm2(b))
}

func TestCGLaplacian(t *testing.T) {
	const n = 200
	a := laplacian1D(n)
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Sin(float64(i) * 0.1)
	}
	x := make([]float64, n)
	res, err := CG(a, b, x, IterOptions{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if r := residual(a, x, b); r > 1e-10 {
		t.Fatalf("residual %g after %d iters", r, res.Iterations)
	}
}

func TestCGWithJacobiFewerIterations(t *testing.T) {
	// Badly scaled SPD matrix: Jacobi should help markedly.
	const n = 150
	c := NewCOO(n, n)
	for i := 0; i < n; i++ {
		scale := math.Pow(10, float64(i%4))
		c.Add(i, i, 2*scale)
		if i > 0 {
			c.Add(i, i-1, -0.5)
			c.Add(i-1, i, -0.5)
		}
	}
	a := c.ToCSR()
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	xPlain := make([]float64, n)
	resPlain, errPlain := CG(a, b, xPlain, IterOptions{Tol: 1e-10, MaxIter: 5000})
	xJac := make([]float64, n)
	resJac, errJac := CG(a, b, xJac, IterOptions{Tol: 1e-10, MaxIter: 5000, M: NewJacobi(a)})
	if errPlain != nil || errJac != nil {
		t.Fatalf("plain err=%v jacobi err=%v", errPlain, errJac)
	}
	if resJac.Iterations > resPlain.Iterations {
		t.Fatalf("Jacobi (%d iters) should not be slower than plain (%d iters)",
			resJac.Iterations, resPlain.Iterations)
	}
}

func TestCGZeroRHS(t *testing.T) {
	a := laplacian1D(5)
	x := []float64{1, 2, 3, 4, 5}
	res, err := CG(a, make([]float64, 5), x, IterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Residual != 0 || Norm2(x) != 0 {
		t.Fatal("zero RHS must give zero solution")
	}
}

func TestBiCGSTABNonsymmetric(t *testing.T) {
	// Convection-diffusion style nonsymmetric matrix.
	const n = 120
	c := NewCOO(n, n)
	pe := 0.8 // upwind-biased
	for i := 0; i < n; i++ {
		c.Add(i, i, 2+pe)
		if i > 0 {
			c.Add(i, i-1, -1-pe)
		}
		if i < n-1 {
			c.Add(i, i+1, -1)
		}
	}
	a := c.ToCSR()
	b := make([]float64, n)
	rng := rand.New(rand.NewSource(3))
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x := make([]float64, n)
	_, err := BiCGSTAB(a, b, x, IterOptions{Tol: 1e-11, M: NewJacobi(a)})
	if err != nil {
		t.Fatal(err)
	}
	if r := residual(a, x, b); r > 1e-9 {
		t.Fatalf("residual %g", r)
	}
}

func TestCGAgainstDirectSolve(t *testing.T) {
	// Random SPD matrix: CG and dense LU must agree.
	rng := rand.New(rand.NewSource(11))
	const n = 30
	d := NewDense(n, n)
	c := NewCOO(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := rng.NormFloat64() * 0.1
			if i == j {
				v = 3 + rng.Float64()
			}
			d.Add(i, j, v)
			c.Add(i, j, v)
			if i != j {
				d.Add(j, i, v)
				c.Add(j, i, v)
			}
		}
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	xDirect, err := SolveDense(d, b)
	if err != nil {
		t.Fatal(err)
	}
	xCG := make([]float64, n)
	if _, err := CG(c.ToCSR(), b, xCG, IterOptions{Tol: 1e-13}); err != nil {
		t.Fatal(err)
	}
	for i := range xCG {
		if math.Abs(xCG[i]-xDirect[i]) > 1e-8*(1+math.Abs(xDirect[i])) {
			t.Fatalf("row %d: CG %g vs LU %g", i, xCG[i], xDirect[i])
		}
	}
}

func TestIterShapeErrors(t *testing.T) {
	a := laplacian1D(4)
	if _, err := CG(a, make([]float64, 3), make([]float64, 4), IterOptions{}); err == nil {
		t.Fatal("CG must reject shape mismatch")
	}
	if _, err := BiCGSTAB(a, make([]float64, 4), make([]float64, 3), IterOptions{}); err == nil {
		t.Fatal("BiCGSTAB must reject shape mismatch")
	}
}
