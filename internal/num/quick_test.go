package num

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// quickConfig returns a generator seeded deterministically.
func quickConfig(seed int64, max int) *quick.Config {
	return &quick.Config{
		MaxCount: max,
		Rand:     rand.New(rand.NewSource(seed)),
	}
}

// TestQuickCOOMatchesDense: random stamping sequences into COO/CSR and a
// dense matrix produce identical matrix-vector products.
func TestQuickCOOMatchesDense(t *testing.T) {
	f := func(stamps [30][3]uint8, xs [6]float64) bool {
		const n = 6
		d := NewDense(n, n)
		c := NewCOO(n, n)
		for _, s := range stamps {
			i, j := int(s[0])%n, int(s[1])%n
			v := float64(int(s[2])) - 127.5
			d.Add(i, j, v)
			c.Add(i, j, v)
		}
		x := xs[:]
		for k := range x {
			if math.IsNaN(x[k]) || math.IsInf(x[k], 0) || math.Abs(x[k]) > 1e100 {
				return true
			}
		}
		y1 := make([]float64, n)
		y2 := make([]float64, n)
		d.MulVec(x, y1)
		c.ToCSR().MulVec(x, y2)
		for k := range y1 {
			if math.Abs(y1[k]-y2[k]) > 1e-9*(1+math.Abs(y1[k])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickConfig(1, 200)); err != nil {
		t.Error(err)
	}
}

// TestQuickLUSolveInverts: for random diagonally dominant systems,
// solving then multiplying recovers the RHS.
func TestQuickLUSolveInverts(t *testing.T) {
	f := func(raw [4][4]int8, rhs [4]int8) bool {
		const n = 4
		a := NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, float64(raw[i][j])/16)
			}
			a.Add(i, i, 20) // dominance
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = float64(rhs[i])
		}
		x, err := SolveDense(a, b)
		if err != nil {
			return false
		}
		y := make([]float64, n)
		a.MulVec(x, y)
		for i := range y {
			if math.Abs(y[i]-b[i]) > 1e-8*(1+math.Abs(b[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickConfig(2, 200)); err != nil {
		t.Error(err)
	}
}

// TestQuickBrentFindsBracketedRoot: for random monotone cubics with a
// sign change, Brent returns a point where |f| is tiny.
func TestQuickBrentFindsBracketedRoot(t *testing.T) {
	f := func(a1, a3 uint8, shift int8) bool {
		// f(x) = c3 x^3 + c1 x + c0 with c1, c3 > 0: strictly monotone.
		c3 := 0.1 + float64(a3)/64
		c1 := 0.1 + float64(a1)/64
		c0 := float64(shift) / 8
		fn := func(x float64) float64 { return c3*x*x*x + c1*x + c0 }
		lo, hi := -100.0, 100.0
		root, err := Brent(fn, lo, hi, 1e-12)
		if err != nil {
			return false
		}
		return math.Abs(fn(root)) < 1e-6
	}
	if err := quick.Check(f, quickConfig(3, 300)); err != nil {
		t.Error(err)
	}
}

// TestQuickTridiagMatchesDense on random dominant tridiagonal systems.
func TestQuickTridiagMatchesDense(t *testing.T) {
	f := func(sub, diag, sup, rhs [5]int8) bool {
		const n = 5
		a := make([]float64, n)
		b := make([]float64, n)
		c := make([]float64, n)
		d := make([]float64, n)
		dm := NewDense(n, n)
		for i := 0; i < n; i++ {
			b[i] = 10 + math.Abs(float64(diag[i]))
			d[i] = float64(rhs[i])
			dm.Set(i, i, b[i])
			if i > 0 {
				a[i] = float64(sub[i]) / 32
				dm.Set(i, i-1, a[i])
			}
			if i < n-1 {
				c[i] = float64(sup[i]) / 32
				dm.Set(i, i+1, c[i])
			}
		}
		x1, err := SolveTridiag(a, b, c, d)
		if err != nil {
			return false
		}
		x2, err := SolveDense(dm, d)
		if err != nil {
			return false
		}
		for i := range x1 {
			if math.Abs(x1[i]-x2[i]) > 1e-9*(1+math.Abs(x2[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickConfig(4, 200)); err != nil {
		t.Error(err)
	}
}
