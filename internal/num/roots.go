package num

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoBracket is returned when a bracketing root finder is given an
// interval whose endpoints do not straddle a sign change.
var ErrNoBracket = errors.New("num: root is not bracketed")

// Brent finds a root of f in [a, b] using Brent's method (inverse
// quadratic interpolation safeguarded by bisection). f(a) and f(b) must
// have opposite signs. tol is the absolute tolerance on the root
// location; if tol <= 0 a machine-level default is used.
func Brent(f func(float64) float64, a, b, tol float64) (float64, error) {
	if tol <= 0 {
		tol = 1e-12
	}
	fa, fb := f(a), f(b)
	if fa == 0 {
		return a, nil
	}
	if fb == 0 {
		return b, nil
	}
	if (fa > 0) == (fb > 0) {
		return 0, fmt.Errorf("%w: f(%g)=%g, f(%g)=%g", ErrNoBracket, a, fa, b, fb)
	}
	c, fc := a, fa
	d, e := b-a, b-a
	const maxIter = 200
	for i := 0; i < maxIter; i++ {
		if (fb > 0) == (fc > 0) {
			c, fc = a, fa
			d, e = b-a, b-a
		}
		if math.Abs(fc) < math.Abs(fb) {
			a, b, c = b, c, b
			fa, fb, fc = fb, fc, fb
		}
		tol1 := 2*math.SmallestNonzeroFloat64*math.Abs(b) + 0.5*tol
		xm := 0.5 * (c - b)
		if math.Abs(xm) <= tol1 || fb == 0 {
			return b, nil
		}
		if math.Abs(e) >= tol1 && math.Abs(fa) > math.Abs(fb) {
			// Attempt inverse quadratic interpolation.
			s := fb / fa
			var p, q float64
			if a == c {
				p = 2 * xm * s
				q = 1 - s
			} else {
				q = fa / fc
				r := fb / fc
				p = s * (2*xm*q*(q-r) - (b-a)*(r-1))
				q = (q - 1) * (r - 1) * (s - 1)
			}
			if p > 0 {
				q = -q
			}
			p = math.Abs(p)
			min1 := 3*xm*q - math.Abs(tol1*q)
			min2 := math.Abs(e * q)
			if 2*p < math.Min(min1, min2) {
				e, d = d, p/q
			} else {
				d, e = xm, xm
			}
		} else {
			d, e = xm, xm
		}
		a, fa = b, fb
		if math.Abs(d) > tol1 {
			b += d
		} else if xm > 0 {
			b += tol1
		} else {
			b -= tol1
		}
		fb = f(b)
	}
	return b, fmt.Errorf("%w: Brent exceeded iteration budget", ErrNoConvergence)
}

// ExpandBracket grows the interval [a, b] geometrically around its
// initial extent until f changes sign across it, up to maxExpand
// doublings. It returns the bracketing interval. This helps callers that
// know a root exists but only have a rough initial window.
func ExpandBracket(f func(float64) float64, a, b float64, maxExpand int) (float64, float64, error) {
	if a >= b {
		return 0, 0, fmt.Errorf("num: ExpandBracket requires a < b (got %g, %g)", a, b)
	}
	fa, fb := f(a), f(b)
	for i := 0; i < maxExpand; i++ {
		if (fa > 0) != (fb > 0) || fa == 0 || fb == 0 {
			return a, b, nil
		}
		w := b - a
		if math.Abs(fa) < math.Abs(fb) {
			a -= w
			fa = f(a)
		} else {
			b += w
			fb = f(b)
		}
	}
	if (fa > 0) != (fb > 0) {
		return a, b, nil
	}
	return 0, 0, ErrNoBracket
}
