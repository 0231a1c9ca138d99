package num

import (
	"math"
	"math/rand"
	"testing"
)

func TestSolveTridiagKnown(t *testing.T) {
	// System: [2 -1 0; -1 2 -1; 0 -1 2] x = [1 0 1] => x = [1 1 1].
	a := []float64{0, -1, -1}
	b := []float64{2, 2, 2}
	c := []float64{-1, -1, 0}
	d := []float64{1, 0, 1}
	x, err := SolveTridiag(a, b, c, d)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(x[i]-1) > 1e-13 {
			t.Fatalf("x = %v", x)
		}
	}
}

func TestSolveTridiagAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(40)
		a := make([]float64, n)
		b := make([]float64, n)
		c := make([]float64, n)
		d := make([]float64, n)
		dm := NewDense(n, n)
		for i := 0; i < n; i++ {
			b[i] = 4 + rng.Float64()
			dm.Set(i, i, b[i])
			if i > 0 {
				a[i] = rng.NormFloat64()
				dm.Set(i, i-1, a[i])
			}
			if i < n-1 {
				c[i] = rng.NormFloat64()
				dm.Set(i, i+1, c[i])
			}
			d[i] = rng.NormFloat64()
		}
		x1, err := SolveTridiag(a, b, c, d)
		if err != nil {
			t.Fatal(err)
		}
		x2, err := SolveDense(dm, d)
		if err != nil {
			t.Fatal(err)
		}
		for i := range x1 {
			if math.Abs(x1[i]-x2[i]) > 1e-10*(1+math.Abs(x2[i])) {
				t.Fatalf("trial %d row %d: thomas %g vs LU %g", trial, i, x1[i], x2[i])
			}
		}
	}
}

func TestSolveTridiagEdge(t *testing.T) {
	x, err := SolveTridiag([]float64{0}, []float64{5}, []float64{0}, []float64{10})
	if err != nil || x[0] != 2 {
		t.Fatalf("1x1 solve: x=%v err=%v", x, err)
	}
	if _, err := SolveTridiag([]float64{0}, []float64{0}, []float64{0}, []float64{1}); err == nil {
		t.Fatal("singular 1x1 must error")
	}
	if _, err := SolveTridiag(nil, nil, nil, nil); err != nil {
		t.Fatal("empty system should be a no-op")
	}
	if _, err := SolveTridiag([]float64{0, 0}, []float64{1}, []float64{0}, []float64{1}); err == nil {
		t.Fatal("shape mismatch must error")
	}
}

func TestBrentPolynomial(t *testing.T) {
	// Root of x^3 - 2x - 5 near 2.0945514815.
	f := func(x float64) float64 { return x*x*x - 2*x - 5 }
	x, err := Brent(f, 2, 3, 1e-14)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x-2.0945514815423265) > 1e-10 {
		t.Fatalf("x = %.12f", x)
	}
}

func TestBrentEndpointRoot(t *testing.T) {
	f := func(x float64) float64 { return x }
	if x, err := Brent(f, 0, 1, 1e-14); err != nil || x != 0 {
		t.Fatalf("endpoint root: x=%g err=%v", x, err)
	}
}

func TestBrentNoBracket(t *testing.T) {
	f := func(x float64) float64 { return x*x + 1 }
	if _, err := Brent(f, -1, 1, 1e-12); err == nil {
		t.Fatal("must report missing bracket")
	}
}

func TestBrentTranscendental(t *testing.T) {
	// cos(x) = x at 0.7390851332.
	f := func(x float64) float64 { return math.Cos(x) - x }
	x, err := Brent(f, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x-0.7390851332151607) > 1e-9 {
		t.Fatalf("x = %.12f", x)
	}
}

func TestExpandBracket(t *testing.T) {
	f := func(x float64) float64 { return x - 100 }
	a, b, err := ExpandBracket(f, 0, 1, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !(f(a) <= 0 && f(b) >= 0) {
		t.Fatalf("bracket [%g,%g] does not straddle root", a, b)
	}
	if _, _, err := ExpandBracket(func(float64) float64 { return 1 }, 0, 1, 5); err == nil {
		t.Fatal("rootless function must fail to bracket")
	}
}
