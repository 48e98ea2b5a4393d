package qr

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"avtmor/internal/mat"
	"avtmor/internal/solver"
)

// mulApply is the block apply of a dense matrix.
func mulApply(a *mat.Dense) func(dst, src [][]float64) {
	return func(dst, src [][]float64) {
		for c := range dst {
			a.MulVec(dst[c], src[c])
		}
	}
}

// chain returns {x, op(x), …, op^{k−1}(x)}.
func chain(op func(dst, src []float64), x []float64, k int) [][]float64 {
	out := [][]float64{x}
	for len(out) < k {
		next := make([]float64, len(x))
		op(next, out[len(out)-1])
		out = append(out, next)
	}
	return out
}

// basisDense packs a Krylov basis as columns.
func basisDense(basis [][]float64) *mat.Dense {
	v := mat.NewDense(len(basis[0]), len(basis))
	for j, q := range basis {
		v.SetCol(j, q)
	}
	return v
}

// inSpan reports whether x lies in the column span of the orthonormal v.
func inSpan(v *mat.Dense, x []float64, tol float64) bool {
	coef := make([]float64, v.C)
	v.MulVecT(coef, x)
	rec := make([]float64, v.R)
	v.MulVec(rec, coef)
	mat.Axpy(-1, x, rec)
	return mat.Norm2(rec) <= tol*mat.Norm2(x)
}

func TestKrylov(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := mat.RandDense(rng, 12, 12)
	b := mat.RandVec(rng, 12)

	ab := mat.RandDense(rng, 10, 10)
	b1, b2 := mat.RandVec(rng, 10), mat.RandVec(rng, 10)
	ab2 := make([]float64, 10)
	ab.MulVec(ab2, b2)

	e3 := make([]float64, 8)
	e3[3] = 2

	// Moments of (sI−A)⁻¹b at s = 0 span {A⁻¹b, A⁻²b, …}: the chain
	// is driven through a solver.Factorization's batched solve, as the
	// shift-inverted moment chains are.
	as := mat.RandStable(rng, 9, 0.3)
	f, err := solver.Dense{}.FactorCtx(context.Background(), solver.FromDense(as))
	if err != nil {
		t.Fatal(err)
	}
	solve := func(dst, src [][]float64) {
		for c := range dst {
			copy(dst[c], src[c])
		}
		f.SolveBatch(dst)
	}
	inv0 := make([]float64, 9)
	f.Solve(inv0, mat.RandVec(rng, 9))

	// An apply that returns NaN for one image must not poison the
	// basis: the NaN image deflates, and the chain keeps growing from
	// the other frontier vector. A is block diagonal and each start
	// column lives in one block, so the chains never mix and c1's must
	// come out whole.
	const h = 5
	ad := mat.NewDense(2*h, 2*h)
	c1, c2 := make([]float64, 2*h), make([]float64, 2*h)
	for i := 0; i < h; i++ {
		for j := 0; j < h; j++ {
			ad.Set(i, j, rng.NormFloat64())
			ad.Set(h+i, h+j, rng.NormFloat64())
		}
		c1[i], c2[h+i] = rng.NormFloat64(), rng.NormFloat64()
	}
	nanOnce := func(dst, src [][]float64) {
		mulApply(ad)(dst, src)
		if len(dst) == 2 {
			dst[1][h+2] = math.NaN()
		}
	}

	for _, tc := range []struct {
		name   string
		apply  func(dst, src [][]float64)
		start  [][]float64
		steps  int
		want   int         // basis size
		inSpan [][]float64 // vectors the basis must span
		tol    float64
	}{
		{"spans-powers", mulApply(a), [][]float64{b}, 5, 5, chain(a.MulVec, b, 5), 1e-9},
		// A = I: the Krylov space is one-dimensional whatever the steps.
		{"deflates-invariant-subspace", mulApply(mat.Eye(8)), [][]float64{e3}, 5, 1, [][]float64{e3}, 1e-15},
		{"block", mulApply(ab), [][]float64{b1, b2}, 3, 6, [][]float64{b1, b2, ab2}, 1e-10},
		{"zero-start", mulApply(mat.Eye(3)), [][]float64{{0, 0, 0}}, 3, 0, nil, 0},
		{"shift-inverted", solve, [][]float64{inv0}, 4, 4, chain(f.Solve, inv0, 4), 1e-8},
		// Two start columns, then one image per step: c2's chain ends
		// at its NaN image.
		{"nan-image-deflates", nanOnce, [][]float64{c1, c2}, 4, 5, append(chain(ad.MulVec, c1, 4), c2), 1e-9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			start := make([][]float64, len(tc.start))
			for i, s := range tc.start {
				start[i] = mat.CopyVec(s)
			}
			basis := Krylov(tc.apply, start, tc.steps, 1e-10)
			if len(basis) != tc.want {
				t.Fatalf("basis has %d columns, want %d", len(basis), tc.want)
			}
			for i := range start {
				if !slices.Equal(start[i], tc.start[i]) {
					t.Fatalf("start column %d modified", i)
				}
			}
			if tc.want == 0 {
				return
			}
			v := basisDense(basis)
			if e := OrthoError(v); e > 1e-12 {
				t.Fatalf("basis not orthonormal: %g", e)
			}
			for p, x := range tc.inSpan {
				if !inSpan(v, x, tc.tol) {
					t.Fatalf("vector %d not in span", p)
				}
			}
		})
	}
}
