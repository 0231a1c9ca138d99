package num

// Workspace holds the scratch vectors of the Krylov solvers so that
// repeated solves against same-sized systems do not reallocate. A zero
// Workspace is ready to use: the first solve sizes the buffers, later
// solves of the same dimension reuse them (growing only if the system
// grows). A Workspace is not safe for concurrent use; give each
// goroutine its own, or use SparseSolver which serializes internally.
type Workspace struct {
	scratch [8][]float64
}

// Scratch-vector slots. CG uses the first four; BiCGSTAB uses all
// eight. The names document the mapping only — slots are interchangeable
// same-length buffers.
const (
	wsR    = iota // residual
	wsZ           // preconditioned residual / rhat
	wsP           // search direction
	wsAP          // A*p / v
	wsS           // BiCGSTAB s
	wsT           // BiCGSTAB t
	wsPhat        // BiCGSTAB preconditioned p
	wsShat        // BiCGSTAB preconditioned s
)

// vec returns slot's buffer with length n, reallocating only when the
// current capacity is too small. Contents are unspecified on return;
// the solvers fully initialize every vector they use.
func (w *Workspace) vec(slot, n int) []float64 {
	if cap(w.scratch[slot]) < n {
		w.scratch[slot] = make([]float64, n)
	}
	return w.scratch[slot][:n]
}
