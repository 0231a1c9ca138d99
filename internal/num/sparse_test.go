package num

import (
	"math"
	"math/rand"
	"testing"
)

func TestCOOToCSR(t *testing.T) {
	c := NewCOO(3, 3)
	c.Add(0, 0, 1)
	c.Add(1, 1, 2)
	c.Add(1, 1, 3) // duplicate: must merge to 5
	c.Add(2, 0, 4)
	c.Add(0, 2, 6)
	c.Add(1, 0, 0) // explicit zero: dropped
	m := c.ToCSR()
	if m.NNZ() != 4 {
		t.Fatalf("nnz = %d, want 4", m.NNZ())
	}
	if m.At(1, 1) != 5 {
		t.Fatalf("merged entry = %g, want 5", m.At(1, 1))
	}
	if m.At(0, 2) != 6 || m.At(2, 0) != 4 || m.At(0, 0) != 1 {
		t.Fatal("entries misplaced")
	}
	if m.At(2, 2) != 0 {
		t.Fatal("missing entry should read 0")
	}
}

func TestCSRColumnOrderWithinRow(t *testing.T) {
	c := NewCOO(1, 5)
	c.Add(0, 4, 1)
	c.Add(0, 1, 2)
	c.Add(0, 3, 3)
	m := c.ToCSR()
	for k := 1; k < m.NNZ(); k++ {
		if m.ColIdx[k] <= m.ColIdx[k-1] {
			t.Fatalf("column indices not sorted: %v", m.ColIdx)
		}
	}
}

func TestCSRMulVecAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n, m = 17, 13
	d := NewDense(n, m)
	c := NewCOO(n, m)
	for k := 0; k < 60; k++ {
		i, j := rng.Intn(n), rng.Intn(m)
		v := rng.NormFloat64()
		d.Add(i, j, v)
		c.Add(i, j, v)
	}
	s := c.ToCSR()
	x := make([]float64, m)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y1 := make([]float64, n)
	y2 := make([]float64, n)
	d.MulVec(x, y1)
	s.MulVec(x, y2)
	for i := range y1 {
		if math.Abs(y1[i]-y2[i]) > 1e-12 {
			t.Fatalf("row %d: dense %g vs sparse %g", i, y1[i], y2[i])
		}
	}
}

func TestCSRDiag(t *testing.T) {
	c := NewCOO(3, 3)
	c.Add(0, 0, 2)
	c.Add(2, 2, -1)
	c.Add(1, 0, 9) // off-diagonal
	d := c.ToCSR().Diag()
	if d[0] != 2 || d[1] != 0 || d[2] != -1 {
		t.Fatalf("Diag = %v", d)
	}
}

func TestCOOOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range stamp")
		}
	}()
	NewCOO(2, 2).Add(2, 0, 1)
}
