package num

import "math"

// Serial kernel ranges behind Dot, Norm2, Axpy, CSR.MulVec,
// CSR.MulVecBlock and blockAp. Each kernel runs on the calling
// goroutine: requests already run in parallel across the sim workers,
// sweep segments and stream sessions, and a fork–join split inside one
// SpMV or dot measured no faster end to end (DESIGN §7.1).

func mulVecRange(m *CSR, x, y []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		s := 0.0
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			s += m.Val[k] * x[m.ColIdx[k]]
		}
		y[i] = s
	}
}

func dotRange(x, y []float64, lo, hi int) float64 {
	s := 0.0
	for i := lo; i < hi; i++ {
		s += x[i] * y[i]
	}
	return s
}

// norm2Range returns the range's maximum magnitude m and the sum of
// (v/m)^2 over the range (0 if the range is all zero), so the norm
// m*sqrt(sum) cannot overflow for extreme entries.
func norm2Range(x []float64, lo, hi int) (maxv, sumsq float64) {
	for i := lo; i < hi; i++ {
		if a := math.Abs(x[i]); a > maxv {
			maxv = a
		}
	}
	if maxv == 0 {
		return 0, 0
	}
	for i := lo; i < hi; i++ {
		r := x[i] / maxv
		sumsq += r * r
	}
	return maxv, sumsq
}

func axpyRange(alpha float64, x, y []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		y[i] += alpha * x[i]
	}
}

// blockRowTile is the row-tile size of the multi-RHS SpMV kernels: the
// tile's matrix entries (Val/ColIdx for ~tile rows) are replayed from
// cache for every column instead of re-streaming the whole matrix, while
// each column's x window inside a tile stays a few tens of KB. Rows are
// still visited in ascending order per column, so tiling never changes
// the per-column arithmetic.
const blockRowTile = 2048

// mulVecBlockDotRange is mulVecBlockRange restricted to active columns,
// with the per-column <x_j, y_j> reduction folded into the traversal.
// Each pap[j] accumulates in ascending row order, so for a full serial
// range the reduction is bitwise identical to Dot(x_j, y_j) run after a
// separate SpMV. Inactive columns keep y stale and pap zero.
func mulVecBlockDotRange(m *CSR, x, y []float64, kw int, active []bool, pap []float64, lo, hi int) {
	n := m.Cols
	for j := 0; j < kw; j++ {
		pap[j] = 0
	}
	for t := lo; t < hi; t += blockRowTile {
		tEnd := t + blockRowTile
		if tEnd > hi {
			tEnd = hi
		}
		for j := 0; j < kw; j++ {
			if !active[j] {
				continue
			}
			xs := x[j*n : (j+1)*n]
			ys := y[j*m.Rows : (j+1)*m.Rows]
			s := pap[j]
			for i := t; i < tEnd; i++ {
				v := 0.0
				for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
					v += m.Val[k] * xs[m.ColIdx[k]]
				}
				ys[i] = v
				s += xs[i] * v
			}
			pap[j] = s
		}
	}
}

// mulVecBlockRange is the multi-RHS SpMV row range: x and y hold k
// right-hand sides column-major (column j occupies x[j*n : (j+1)*n]).
// The row's index/value entries are read once into cache and then
// reused across all k columns, so the matrix stream is amortized while
// each column keeps the access pattern (and summation order) of the
// single-vector MulVec.
func mulVecBlockRange(m *CSR, x, y []float64, kw, lo, hi int) {
	n := m.Cols
	for t := lo; t < hi; t += blockRowTile {
		tEnd := t + blockRowTile
		if tEnd > hi {
			tEnd = hi
		}
		for j := 0; j < kw; j++ {
			xs := x[j*n : (j+1)*n]
			ys := y[j*m.Rows : (j+1)*m.Rows]
			for i := t; i < tEnd; i++ {
				s := 0.0
				for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
					s += m.Val[k] * xs[m.ColIdx[k]]
				}
				ys[i] = s
			}
		}
	}
}
