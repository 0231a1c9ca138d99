// Package num is the numerical kernel of the repository: dense and sparse
// linear algebra, iterative Krylov solvers with multigrid
// preconditioning, tridiagonal systems, scalar root finding, fixed-step
// ODE integration and box-constrained minimization. It is deliberately
// small, allocation-conscious and dependency-free; it stands in for the
// numerics that the paper obtained from COMSOL.
package num

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a factorization or solve encounters a
// (numerically) singular matrix.
var ErrSingular = errors.New("num: singular matrix")

// ErrShape is returned when operand dimensions are incompatible.
var ErrShape = errors.New("num: dimension mismatch")

// Dense is a row-major dense matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, row-major
}

// NewDense allocates a zeroed Rows x Cols matrix.
func NewDense(rows, cols int) *Dense {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("num: invalid dense shape %dx%d", rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns the element at (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add accumulates v into the element at (i, j).
func (m *Dense) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// MulVec computes y = m*x. y must have length m.Rows and x length m.Cols.
func (m *Dense) MulVec(x, y []float64) {
	if len(x) != m.Cols || len(y) != m.Rows {
		panic(ErrShape)
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		s := 0.0
		for j, a := range row {
			s += a * x[j]
		}
		y[i] = s
	}
}

// LU is an LU factorization with partial pivoting of a square matrix.
type LU struct {
	n   int
	lu  []float64
	piv []int
}

// FactorLU computes the LU factorization of the square matrix a with
// partial pivoting. The input matrix is not modified.
func FactorLU(a *Dense) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, ErrShape
	}
	n := a.Rows
	f := &LU{n: n, lu: make([]float64, n*n), piv: make([]int, n)}
	copy(f.lu, a.Data)
	for i := range f.piv {
		f.piv[i] = i
	}
	for k := 0; k < n; k++ {
		// Partial pivot: find the largest magnitude in column k.
		p, maxv := k, math.Abs(f.lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(f.lu[i*n+k]); v > maxv {
				p, maxv = i, v
			}
		}
		if maxv == 0 {
			return nil, ErrSingular
		}
		if p != k {
			for j := 0; j < n; j++ {
				f.lu[p*n+j], f.lu[k*n+j] = f.lu[k*n+j], f.lu[p*n+j]
			}
			f.piv[p], f.piv[k] = f.piv[k], f.piv[p]
		}
		pivot := f.lu[k*n+k]
		for i := k + 1; i < n; i++ {
			l := f.lu[i*n+k] / pivot
			f.lu[i*n+k] = l
			if l == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				f.lu[i*n+j] -= l * f.lu[k*n+j]
			}
		}
	}
	return f, nil
}

// Solve solves A x = b using the factorization. b is not modified; the
// solution is returned as a fresh slice.
func (f *LU) Solve(b []float64) ([]float64, error) {
	x := make([]float64, f.n)
	if err := f.SolveInto(x, b); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveInto solves A x = b into the caller-provided x without
// allocating — the coarse-grid solve inside a multigrid cycle runs once
// per V-cycle and must stay off the heap. x and b must not alias.
func (f *LU) SolveInto(x, b []float64) error {
	if len(b) != f.n || len(x) != f.n {
		return ErrShape
	}
	n := f.n
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution with unit lower triangle.
	for i := 1; i < n; i++ {
		s := x[i]
		for j := 0; j < i; j++ {
			s -= f.lu[i*n+j] * x[j]
		}
		x[i] = s
	}
	// Back substitution with upper triangle.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= f.lu[i*n+j] * x[j]
		}
		d := f.lu[i*n+i]
		if d == 0 {
			return ErrSingular
		}
		x[i] = s / d
	}
	return nil
}

// SolveDense solves the square dense system A x = b.
func SolveDense(a *Dense, b []float64) ([]float64, error) {
	f, err := FactorLU(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}

// Dot returns the inner product of x and y.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(ErrShape)
	}
	return dotRange(x, y, 0, len(x))
}

// Norm2 returns the Euclidean norm of x, scaled to avoid overflow for
// extreme inputs.
func Norm2(x []float64) float64 {
	maxv, s := norm2Range(x, 0, len(x))
	return maxv * math.Sqrt(s)
}

// Axpy computes y += alpha*x in place.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(ErrShape)
	}
	axpyRange(alpha, x, y, 0, len(x))
}

// Fill sets every element of x to v.
func Fill(x []float64, v float64) {
	for i := range x {
		x[i] = v
	}
}

// MinSlice returns the minimum value in x; it panics on empty input.
func MinSlice(x []float64) float64 {
	if len(x) == 0 {
		panic("num: MinSlice of empty slice")
	}
	m := x[0]
	for _, v := range x[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Linspace returns n points evenly spaced over [a, b] inclusive.
// n must be >= 2.
func Linspace(a, b float64, n int) []float64 {
	if n < 2 {
		panic("num: Linspace needs n >= 2")
	}
	out := make([]float64, n)
	d := (b - a) / float64(n-1)
	for i := range out {
		out[i] = a + float64(i)*d
	}
	out[n-1] = b
	return out
}
