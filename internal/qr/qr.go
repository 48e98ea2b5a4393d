// Package qr provides Householder QR factorization and the
// orthonormalization primitives used to assemble projection matrices from
// unions of Krylov/moment subspaces (paper §2.3).
package qr

import (
	"math"

	"avtmor/internal/mat"
)

// QR holds a thin Householder factorization A = Q·R with Q m×n
// column-orthonormal and R n×n upper triangular (requires m ≥ n).
type QR struct {
	Q *mat.Dense
	R *mat.Dense
}

// Factor computes the thin QR factorization of a (m ≥ n).
func Factor(a *mat.Dense) *QR {
	m, n := a.R, a.C
	if m < n {
		panic("qr: Factor requires rows >= cols")
	}
	r := a.Clone()
	// Store Householder vectors.
	vs := make([][]float64, 0, n)
	for k := 0; k < n; k++ {
		// Build the reflector for column k below the diagonal.
		x := make([]float64, m-k)
		for i := k; i < m; i++ {
			x[i-k] = r.At(i, k)
		}
		alpha := mat.Norm2(x)
		if x[0] > 0 {
			alpha = -alpha
		}
		v := mat.CopyVec(x)
		v[0] -= alpha
		vn := mat.Norm2(v)
		if vn > 0 {
			mat.ScaleVec(1/vn, v)
			applyReflector(r, v, k)
		}
		vs = append(vs, v)
	}
	// Accumulate Q by applying the reflectors to the first n columns of I.
	q := mat.NewDense(m, n)
	for j := 0; j < n; j++ {
		q.Set(j, j, 1)
	}
	for k := n - 1; k >= 0; k-- {
		if mat.Norm2(vs[k]) > 0 {
			applyReflector(q, vs[k], k)
		}
	}
	// Zero out the strictly-lower part of R and truncate to n×n.
	rr := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			rr.Set(i, j, r.At(i, j))
		}
	}
	return &QR{Q: q, R: rr}
}

// applyReflector applies H = I - 2 v vᵀ (v unit, living in rows k..m-1) to
// the rows k..m-1 of a, for all columns.
func applyReflector(a *mat.Dense, v []float64, k int) {
	m, n := a.R, a.C
	for j := 0; j < n; j++ {
		s := 0.0
		for i := k; i < m; i++ {
			s += v[i-k] * a.At(i, j)
		}
		s *= 2
		if s == 0 {
			continue
		}
		for i := k; i < m; i++ {
			a.Add(i, j, -s*v[i-k])
		}
	}
}

// Orthonormalize builds an orthonormal basis for the span of the given
// column vectors by modified Gram–Schmidt with one reorthogonalization
// pass. Columns whose remainder after projection is below dropTol times
// their original norm are deflated (skipped). Zero columns are skipped.
// The returned matrix has one column per surviving vector; it may be nil
// if everything deflates.
func Orthonormalize(cols [][]float64, dropTol float64) *mat.Dense {
	if len(cols) == 0 {
		return nil
	}
	n := len(cols[0])
	basis := make([][]float64, 0, len(cols))
	for _, c := range cols {
		if len(c) != n {
			panic("qr: Orthonormalize ragged columns")
		}
		orig := mat.Norm2(c)
		if orig == 0 {
			continue
		}
		w := mat.CopyVec(c)
		for pass := 0; pass < 2; pass++ {
			for _, q := range basis {
				mat.Axpy(-mat.Dot(q, w), q, w)
			}
		}
		if rem := mat.Norm2(w); rem > dropTol*orig {
			mat.ScaleVec(1/rem, w)
			basis = append(basis, w)
		}
	}
	if len(basis) == 0 {
		return nil
	}
	v := mat.NewDense(n, len(basis))
	for j, q := range basis {
		v.SetCol(j, q)
	}
	return v
}

// OrthoError returns max |QᵀQ - I|, a quick orthonormality diagnostic.
func OrthoError(q *mat.Dense) float64 {
	g := q.T().Mul(q)
	worst := 0.0
	for i := 0; i < g.R; i++ {
		for j := 0; j < g.C; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if d := math.Abs(g.At(i, j) - want); d > worst {
				worst = d
			}
		}
	}
	return worst
}
