package num

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// forceParallel shrinks the fork thresholds and raises the thread count
// so the parallel path runs even for tiny operands, restoring the
// defaults on cleanup.
func forceParallel(t *testing.T, threads int) {
	t.Helper()
	oldMin, oldChunk := parallelMinWork, parallelChunkWork
	setKernelThreads(threads)
	parallelMinWork = 8
	parallelChunkWork = 4
	t.Cleanup(func() {
		parallelMinWork, parallelChunkWork = oldMin, oldChunk
		setKernelThreads(0)
	})
}

func relErr(got, want float64) float64 {
	d := math.Abs(got - want)
	if m := math.Abs(want); m > 1 {
		return d / m
	}
	return d
}

// randomCSR builds an n x n sparse matrix with a banded random pattern.
func randomCSR(rng *rand.Rand, n int) *CSR {
	c := NewCOO(n, n)
	for i := 0; i < n; i++ {
		c.Add(i, i, 4+rng.Float64())
		for off := 1; off <= 3; off++ {
			if j := i - off; j >= 0 && rng.Float64() < 0.7 {
				c.Add(i, j, rng.NormFloat64())
			}
			if j := i + off; j < n && rng.Float64() < 0.7 {
				c.Add(i, j, rng.NormFloat64())
			}
		}
	}
	return c.ToCSR()
}

// TestParallelKernelsMatchSerial is the property test of the kernel
// layer: for random operands across sizes spanning both sides of the
// fork threshold, the parallel kernels must agree with the serial
// ranges to within 1e-13 relative error.
func TestParallelKernelsMatchSerial(t *testing.T) {
	forceParallel(t, 4)
	rng := rand.New(rand.NewSource(42))
	sizes := []int{1, 2, 3, 5, 7, 16, 63, 64, 65, 100, 257, 1000, 4096, 12345}
	for _, n := range sizes {
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64() * math.Exp(4*rng.Float64())
			y[i] = rng.NormFloat64()
		}

		if got, want := Dot(x, y), dotRange(x, y, 0, n); relErr(got, want) > 1e-13 {
			t.Errorf("n=%d: Dot parallel %g vs serial %g", n, got, want)
		}

		wantNorm := 0.0
		if m, s := norm2Range(x, 0, n); m > 0 {
			wantNorm = m * math.Sqrt(s)
		}
		if got := Norm2(x); relErr(got, wantNorm) > 1e-13 {
			t.Errorf("n=%d: Norm2 parallel %g vs serial %g", n, got, wantNorm)
		}

		ySerial := append([]float64(nil), y...)
		axpyRange(1.7, x, ySerial, 0, n)
		yPar := append([]float64(nil), y...)
		Axpy(1.7, x, yPar)
		for i := range yPar {
			if relErr(yPar[i], ySerial[i]) > 1e-13 {
				t.Errorf("n=%d: Axpy mismatch at %d: %g vs %g", n, i, yPar[i], ySerial[i])
				break
			}
		}

		a := randomCSR(rng, n)
		got := make([]float64, n)
		want := make([]float64, n)
		a.MulVec(x, got)
		mulVecRange(a, x, want, 0, n)
		for i := range got {
			if relErr(got[i], want[i]) > 1e-13 {
				t.Errorf("n=%d: MulVec mismatch at row %d: %g vs %g", n, i, got[i], want[i])
				break
			}
		}
	}
}

// TestParallelNorm2EdgeCases covers the all-zero vector and extreme
// magnitudes where the overflow-safe scaling matters.
func TestParallelNorm2EdgeCases(t *testing.T) {
	forceParallel(t, 4)
	zero := make([]float64, 1000)
	if got := Norm2(zero); got != 0 {
		t.Fatalf("Norm2(zero) = %g", got)
	}
	// One huge entry among zeros: no overflow, exact answer.
	big := make([]float64, 1000)
	big[777] = 1e300
	if got := Norm2(big); relErr(got, 1e300) > 1e-13 {
		t.Fatalf("Norm2(huge) = %g", got)
	}
}

// TestKernelThreadsConfig: the kernel pool follows GOMAXPROCS, the
// count /v1/stats reports.
func TestKernelThreadsConfig(t *testing.T) {
	if got := KernelThreads(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("KernelThreads = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
}

// TestSerialFallbackBelowThreshold pins the fork gate: operands below
// parallelMinWork must not spawn kernel workers.
func TestSerialFallbackBelowThreshold(t *testing.T) {
	setKernelThreads(8)
	t.Cleanup(func() { setKernelThreads(0) })
	if c := kernelChunks(parallelMinWork - 1); c != 1 {
		t.Fatalf("kernelChunks(minWork-1) = %d, want 1", c)
	}
	if c := kernelChunks(parallelMinWork * 4); c < 2 {
		t.Fatalf("kernelChunks(4*minWork) = %d, want >= 2", c)
	}
	if c := kernelChunks(1 << 30); c > maxKernelChunks {
		t.Fatalf("kernelChunks(huge) = %d exceeds cap %d", c, maxKernelChunks)
	}
}

// TestParallelCGMatchesSerial runs a full Krylov solve both ways: the
// solutions must agree to solver tolerance.
func TestParallelCGMatchesSerial(t *testing.T) {
	a := laplacian2D(48)
	n := a.Rows
	rng := rand.New(rand.NewSource(7))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	opt := IterOptions{Tol: 1e-12, M: NewJacobi(a)}

	setKernelThreads(1)
	xSerial := make([]float64, n)
	if _, err := CG(a, b, xSerial, opt); err != nil {
		t.Fatal(err)
	}

	forceParallel(t, 4)
	xPar := make([]float64, n)
	if _, err := CG(a, b, xPar, opt); err != nil {
		t.Fatal(err)
	}
	for i := range xPar {
		if relErr(xPar[i], xSerial[i]) > 1e-9 {
			t.Fatalf("solution mismatch at %d: %g vs %g", i, xPar[i], xSerial[i])
		}
	}
}
