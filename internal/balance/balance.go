// Package balance computes the Lyapunov gramians and Hankel singular
// values of a stable linear system. The paper's §4 (first bullet) points
// out that, because the associated transforms are ordinary single-s
// transfer functions, "automatic selection of moment numbers in H1(s),
// H2(s), H3(s) etc. can utilize the Hankel singular values or similar
// measure inherent to linear MOR" — core.SuggestOrders builds on this
// package to do exactly that.
package balance

import (
	"math"
	"sort"

	"avtmor/internal/mat"
	"avtmor/internal/schur"
	"avtmor/internal/sylv"
)

// Gramians solves the controllability and observability Lyapunov
// equations of a stable linear system (A, B, C):
//
//	A·P + P·Aᵀ + B·Bᵀ = 0,    Aᵀ·Q + Q·A + Cᵀ·C = 0.
func Gramians(a, b, c *mat.Dense) (p, q *mat.Dense, err error) {
	sa, err := schur.Decompose(a)
	if err != nil {
		return nil, nil, err
	}
	bbT := b.Mul(b.T()).Scale(-1)
	p, err = sylv.SolveTFactored(sa, sa, bbT)
	if err != nil {
		return nil, nil, err
	}
	sat, err := schur.Decompose(a.T())
	if err != nil {
		return nil, nil, err
	}
	cTc := c.T().Mul(c).Scale(-1)
	q, err = sylv.SolveTFactored(sat, sat, cTc)
	if err != nil {
		return nil, nil, err
	}
	symmetrize(p)
	symmetrize(q)
	return p, q, nil
}

func symmetrize(m *mat.Dense) {
	for i := 0; i < m.R; i++ {
		for j := i + 1; j < m.C; j++ {
			v := 0.5 * (m.At(i, j) + m.At(j, i))
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
}

// HSV returns the Hankel singular values of (A, B, C) in decreasing
// order: σ_i = sqrt(λ_i(P·Q)).
func HSV(a, b, c *mat.Dense) ([]float64, error) {
	p, q, err := Gramians(a, b, c)
	if err != nil {
		return nil, err
	}
	eigs, err := schur.Eigenvalues(p.Mul(q))
	if err != nil {
		return nil, err
	}
	out := make([]float64, 0, len(eigs))
	for _, e := range eigs {
		// P·Q is similar to a PSD matrix: eigenvalues are real ≥ 0 up to
		// rounding.
		out = append(out, math.Sqrt(math.Max(0, real(e))))
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(out)))
	return out, nil
}

// SuggestOrder returns the number of Hankel singular values above
// tol·σ_max (at least 1 for a nonzero system).
func SuggestOrder(hsv []float64, tol float64) int {
	if len(hsv) == 0 || hsv[0] == 0 {
		return 0
	}
	k := 0
	for _, s := range hsv {
		if s > tol*hsv[0] {
			k++
		}
	}
	if k == 0 {
		k = 1
	}
	return k
}
