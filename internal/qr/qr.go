// Package qr builds orthonormal bases by modified Gram–Schmidt (MGS):
// of the union of candidate sets that becomes a projection matrix, and
// of the block Krylov subspaces the moment chains span (paper §2.3).
package qr

import (
	"math"

	"avtmor/internal/mat"
)

// tailCutExp places the basis cut: cutTail zeroes every entry of a
// vector below 2^tailCutExp times its largest |entry|. A moment vector
// of a long line decays along it, and most products of its tail
// underflow; on x86 each one costs a microcode assist, in MGS, in the
// projection and in every ROM evaluation. After the cut every basis
// entry is 0 or within 2^200 of its column's largest, so a product of
// up to five of them (Vᵀ·G3·(V⊗V⊗V) multiplies four and a coefficient)
// stays far inside the normal range: 5·200 < 1022. A unit column loses
// at most √n·2^−200 of its norm.
const tailCutExp = -200

// cutTail zeroes, in place, every nonzero entry of w whose magnitude is
// below 2^tailCutExp times w's largest. The comparison is exact; zeros
// keep their sign and NaNs stay, so a NaN vector still deflates.
func cutTail(w []float64) {
	floor := math.Ldexp(mat.NormInf(w), tailCutExp)
	for i, x := range w {
		if x != 0 && math.Abs(x) < floor {
			w[i] = 0
		}
	}
}

// orthogonalize removes from w, in place, its components along the
// orthonormal basis by two MGS passes and normalizes the remainder,
// cutting w's tail (cutTail) before the passes and after normalizing.
// It reports false when w deflates: when w is zero or its remainder is
// not above dropTol times its original norm, which a NaN remainder
// never is.
func orthogonalize(basis [][]float64, w []float64, dropTol float64) bool {
	cutTail(w)
	orig := mat.Norm2(w)
	if orig == 0 {
		return false
	}
	for pass := 0; pass < 2; pass++ {
		for _, q := range basis {
			mat.Axpy(-mat.Dot(q, w), q, w)
		}
	}
	rem := mat.Norm2(w)
	if !(rem > dropTol*orig) {
		return false
	}
	mat.ScaleVec(1/rem, w)
	cutTail(w)
	return true
}

// Orthonormalize builds an orthonormal basis for the span of the given
// column vectors, one column at a time in order. Columns that deflate
// (see orthogonalize) are skipped. The returned matrix has one column
// per surviving vector; it is nil if everything deflates.
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
		if w := mat.CopyVec(c); orthogonalize(basis, w, dropTol) {
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

// Krylov returns an orthonormal basis of the block Krylov subspace
// span{S, A·S, …, A^{steps−1}·S} of the start columns S. apply computes
// dst[c] = A·src[c] for a whole frontier at once, into fresh dst
// columns. The basis holds the start columns first, then each step's
// images in frontier order, each orthogonalized against all before it;
// a column that deflates (as in Orthonormalize) leaves the frontier.
// The start columns are not modified.
func Krylov(apply func(dst, src [][]float64), start [][]float64, steps int, dropTol float64) [][]float64 {
	var basis, frontier [][]float64
	for _, s := range start {
		if w := mat.CopyVec(s); orthogonalize(basis, w, dropTol) {
			basis = append(basis, w)
			frontier = append(frontier, w)
		}
	}
	for step := 1; step < steps && len(frontier) > 0; step++ {
		images := make([][]float64, len(frontier))
		for i, f := range frontier {
			images[i] = make([]float64, len(f))
		}
		apply(images, frontier)
		frontier = frontier[:0]
		for _, w := range images {
			if orthogonalize(basis, w, dropTol) {
				basis = append(basis, w)
				frontier = append(frontier, w)
			}
		}
	}
	return basis
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
