package num

import (
	"math"
	"math/rand"
	"testing"
)

// skewedCSR builds a deterministic random sparse matrix with skewed row
// lengths: most rows short, occasional long rows, some empty — the
// shape that stresses the σ-window sort and the prefix kernel.
func skewedCSR(rng *rand.Rand, rows, cols int) *CSR {
	c := NewCOO(rows, cols)
	for i := 0; i < rows; i++ {
		nnz := rng.Intn(6)
		if rng.Intn(10) == 0 {
			nnz = rng.Intn(cols) // occasional near-dense row
		}
		for k := 0; k < nnz; k++ {
			// Duplicates are fine: COO merges them.
			c.Add(i, rng.Intn(cols), rng.NormFloat64())
		}
	}
	return c.ToCSR()
}

// TestSELLMatchesCSRBitwise pins the format's core contract: for any
// matrix, SELL-C-σ MulVec produces bit-for-bit the serial CSR result —
// same per-row summation order, padding never touched.
func TestSELLMatchesCSRBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	shapes := [][2]int{
		{1, 1}, {7, 5}, {31, 31}, {32, 32}, {33, 17}, // partial / exact / spill slices
		{256, 256}, {1000, 300},
	}
	for _, sh := range shapes {
		rows, cols := sh[0], sh[1]
		a := skewedCSR(rng, rows, cols)
		s := NewSELLCS(a)
		if s == nil {
			t.Fatalf("%dx%d: NewSELLCS returned nil", rows, cols)
		}
		x := make([]float64, cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := make([]float64, rows)
		mulVecRange(a, x, want, 0, rows)
		got := make([]float64, rows)
		for i := range got {
			got[i] = math.NaN() // every slot must be written, even empty rows
		}
		s.MulVec(x, got)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%dx%d row %d: SELL %v != CSR %v", rows, cols, i, got[i], want[i])
			}
		}
		if s.NNZ() != a.NNZ() {
			t.Fatalf("%dx%d: NNZ %d != %d", rows, cols, s.NNZ(), a.NNZ())
		}
		if pr := s.PaddingRatio(); pr < 1 && a.NNZ() > 0 {
			t.Fatalf("%dx%d: padding ratio %v < 1", rows, cols, pr)
		}
	}
}

// TestSELLStructure checks the layout invariants the kernel relies on:
// Perm is a permutation local to each σ window, and RowLen is
// non-increasing within every slice.
func TestSELLStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := skewedCSR(rng, 700, 80)
	s := NewSELLCS(a)
	seen := make([]bool, a.Rows)
	for pos, row := range s.Perm {
		if seen[row] {
			t.Fatalf("row %d appears twice in Perm", row)
		}
		seen[row] = true
		if w := pos / sellSigma; int(row)/sellSigma != w {
			t.Fatalf("Perm[%d]=%d escaped its σ window %d", pos, row, w)
		}
	}
	for pos := 1; pos < a.Rows; pos++ {
		if pos%SellC == 0 {
			continue // slice boundary: no ordering constraint across it
		}
		if s.RowLen[pos] > s.RowLen[pos-1] {
			t.Fatalf("RowLen not non-increasing inside slice at pos %d: %d > %d",
				pos, s.RowLen[pos], s.RowLen[pos-1])
		}
	}
}

// TestEnsureFormatPolicy pins the format heuristic: SELL-C-σ at and
// above sellMinRows rows, CSR below it, CSR again when the conversion
// pads past sellMaxPadding (counted), and one conversion per matrix.
// sellMinRows is lowered to exercise both sides on small operators.
func TestEnsureFormatPolicy(t *testing.T) {
	oldMin := sellMinRows
	t.Cleanup(func() { sellMinRows = oldMin })

	big := laplacian2D(70) // 4900 rows, above the default sellMinRows
	big.EnsureFormat()
	if big.sell.Load() == nil {
		t.Fatal("heuristic did not attach SELL above sellMinRows")
	}

	small := laplacian2D(8) // 64 rows
	sellMinRows = small.Rows + 1
	small.EnsureFormat()
	if small.sell.Load() != nil {
		t.Fatal("heuristic attached SELL below sellMinRows")
	}
	sellMinRows = small.Rows
	c0 := sellConversions.Value()
	small.EnsureFormat()
	small.EnsureFormat() // idempotent: the attached mirror is kept
	if small.sell.Load() == nil {
		t.Fatal("heuristic did not attach SELL at sellMinRows")
	}
	if d := sellConversions.Value() - c0; d != 1 {
		t.Fatalf("conversion counter moved by %d, want 1", d)
	}

	// One dense row among empties: padding ratio far beyond the
	// threshold, so the conversion must be discarded and counted.
	skew := NewCOO(SellC, 256)
	for j := 0; j < 256; j++ {
		skew.Add(0, j, 1)
	}
	padded := skew.ToCSR()
	sellMinRows = padded.Rows
	fb0 := sellFallbacks.Value()
	padded.EnsureFormat()
	if padded.sell.Load() != nil {
		t.Fatalf("padding ratio %v should have fallen back to CSR",
			NewSELLCS(padded).PaddingRatio())
	}
	if sellFallbacks.Value() != fb0+1 {
		t.Fatal("fallback not counted")
	}
}

// FuzzSELLRoundTrip throws arbitrary sparse structures (empty rows,
// dense rows, duplicates, single-slice shapes) at the CSR -> SELL-C-σ
// conversion and checks MulVec agrees with the serial CSR kernel within
// 1e-15 relative — in fact bit-for-bit, which is the stronger contract
// the solvers' warm-start determinism rides on.
func FuzzSELLRoundTrip(f *testing.F) {
	f.Add(uint8(1), uint8(1), []byte{})                            // minimal, all-empty
	f.Add(uint8(40), uint8(3), []byte{0, 0, 1, 5, 2, 200})         // empty + short rows, two slices
	f.Add(uint8(5), uint8(5), []byte{0, 0, 1, 0, 1, 2, 0, 2, 3})   // single slice
	f.Add(uint8(200), uint8(200), []byte{9, 9, 9, 9, 8, 7, 1, 2})  // spill shape
	f.Add(uint8(33), uint8(2), []byte{1, 0, 1, 1, 1, 0, 32, 1, 9}) // dense row + duplicate
	f.Fuzz(func(t *testing.T, rows, cols uint8, data []byte) {
		r := int(rows)%300 + 1
		c := int(cols)%300 + 1
		coo := NewCOO(r, c)
		for k := 0; k+2 < len(data); k += 3 {
			i := int(data[k]) % r
			j := int(data[k+1]) % c
			v := float64(int8(data[k+2]))
			if v == 0 {
				v = 1
			}
			coo.Add(i, j, v/3)
		}
		a := coo.ToCSR()
		s := NewSELLCS(a)
		if s == nil {
			t.Fatal("NewSELLCS returned nil for a small matrix")
		}
		if s.NNZ() != a.NNZ() {
			t.Fatalf("NNZ %d != %d", s.NNZ(), a.NNZ())
		}
		x := make([]float64, c)
		for i := range x {
			x[i] = float64((i*7)%13) - 6.5
		}
		want := make([]float64, r)
		mulVecRange(a, x, want, 0, r)
		got := make([]float64, r)
		for i := range got {
			got[i] = math.NaN()
		}
		s.MulVec(x, got)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("row %d: SELL %v != CSR %v", i, got[i], want[i])
			}
		}
	})
}
