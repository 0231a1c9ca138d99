package num

import (
	"math"
	"testing"
)

func TestRK4ExponentialDecay(t *testing.T) {
	// y' = -y, y(0) = 1 -> y(2) = e^-2.
	f := func(t float64, y, dydt []float64) { dydt[0] = -y[0] }
	y, err := RK4(f, []float64{1}, 0, 2, 200)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(y[0]-math.Exp(-2)) > 1e-8 {
		t.Fatalf("y(2) = %.10f, want %.10f", y[0], math.Exp(-2))
	}
}

func TestRK4FourthOrderConvergence(t *testing.T) {
	f := func(t float64, y, dydt []float64) { dydt[0] = math.Cos(t) * y[0] }
	exact := math.Exp(math.Sin(2))
	errAt := func(n int) float64 {
		y, err := RK4(f, []float64{1}, 0, 2, n)
		if err != nil {
			t.Fatal(err)
		}
		return math.Abs(y[0] - exact)
	}
	e1, e2 := errAt(40), errAt(80)
	order := math.Log2(e1 / e2)
	if order < 3.7 || order > 4.3 {
		t.Fatalf("observed order %.2f, want ~4", order)
	}
}

func TestRK4Harmonic(t *testing.T) {
	// y'' = -y as a system; energy conserved over one period.
	f := func(t float64, y, dydt []float64) {
		dydt[0] = y[1]
		dydt[1] = -y[0]
	}
	y, err := RK4(f, []float64{1, 0}, 0, 2*math.Pi, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(y[0]-1) > 1e-8 || math.Abs(y[1]) > 1e-8 {
		t.Fatalf("one period: %v", y)
	}
}

func TestRK4Args(t *testing.T) {
	f := func(t float64, y, dydt []float64) { dydt[0] = 0 }
	if _, err := RK4(f, []float64{1}, 0, 1, 0); err == nil {
		t.Fatal("zero steps accepted")
	}
	if _, err := RK4(f, []float64{1}, 1, 0, 10); err == nil {
		t.Fatal("reversed interval accepted")
	}
}

func TestRK4DoesNotMutateInitialState(t *testing.T) {
	f := func(t float64, y, dydt []float64) { dydt[0] = 1 }
	y0 := []float64{5}
	if _, err := RK4(f, y0, 0, 1, 10); err != nil {
		t.Fatal(err)
	}
	if y0[0] != 5 {
		t.Fatal("RK4 mutated y0")
	}
}
