package num

import "bright/internal/obs"

// MGAutoThreshold is the unknown count at and above which SparseSolver
// preconditions symmetric systems with multigrid instead of Jacobi.
// Below it, Jacobi solves finish before MG setup would pay for itself.
const MGAutoThreshold = 4096

var mgSetupFallbacks = obs.Default.Counter("bright_mg_setup_fallbacks_total",
	"Multigrid setups that failed and fell back to Jacobi.")

// buildPrecond picks the preconditioner for a: multigrid for symmetric
// systems of at least MGAutoThreshold unknowns, Jacobi otherwise.
// Multigrid setup failure degrades to Jacobi rather than failing the
// solver build: the result is always usable, just possibly slower.
func buildPrecond(a *CSR, symmetric bool, opt IterOptions) Preconditioner {
	if symmetric && a.Rows >= MGAutoThreshold {
		if m, err := newMGFor(a, opt); err == nil {
			return m
		}
		mgSetupFallbacks.Inc()
	}
	return NewJacobi(a)
}

// newMGFor builds geometric multigrid when the options carry a matching
// grid shape, aggregation AMG otherwise.
func newMGFor(a *CSR, opt IterOptions) (*Multigrid, error) {
	if opt.Shape != nil && opt.Shape.NX > 0 && opt.Shape.NY > 0 && opt.Shape.Cells() == a.Rows {
		return NewGMG(a, *opt.Shape, opt.MG)
	}
	return NewAMG(a, opt.MG)
}

// Format-heuristic thresholds. Variables so tests can exercise both
// sides without building huge operators.
var (
	// sellMinRows is the row count at and above which EnsureFormat
	// converts to SELL-C-σ: below it the operator fits cache and the CSR
	// gather is already fast, while the conversion would still cost a
	// pass over the matrix at every solver setup.
	sellMinRows = 4096
	// sellMaxPadding is the PaddingRatio above which a SELL conversion
	// is discarded and the operator stays CSR: past it the padded
	// column-major stream reads more memory than the CSR gather saves.
	sellMaxPadding = 1.25
)

var (
	sellConversions = obs.Default.Counter("bright_sparse_conversions_total",
		"Operators converted to the SELL-C-σ layout at solver setup.",
		obs.L("format", "sell"))
	sellFallbacks = obs.Default.Counter("bright_sparse_sell_fallbacks_total",
		"SELL-C-σ conversions discarded for excess padding (operator stayed CSR).")
)

// EnsureFormat attaches the SELL-C-σ mirror to a matrix of at least
// sellMinRows rows, unless the conversion pads past sellMaxPadding. It
// is idempotent, cheap for small matrices, and safe to call
// concurrently with MulVec. Conversion happens here — at
// solver/hierarchy setup — never on the multiply path, so the zero-alloc
// steady-state contract holds.
func (m *CSR) EnsureFormat() {
	if m.sell.Load() != nil || m.Rows < sellMinRows {
		return
	}
	s := NewSELLCS(m)
	if s == nil || s.PaddingRatio() > sellMaxPadding {
		sellFallbacks.Inc()
		return
	}
	sellConversions.Inc()
	m.sell.Store(s)
}
