// Package kron provides Kronecker-product/sum utilities and structured
// solvers for the shifted Kronecker-sum resolvents
//
//	(⊕²A − σI)⁻¹ ∈ R^{n²×n²}   and   (⊕³A − σI)⁻¹ ∈ R^{n³×n³},
//
// which by Theorem 1 / Corollary 1 of the paper are exactly the associated
// transforms of Kronecker products of resolvents. The solvers never form
// the big operators: order 2 reduces to a quasi-triangular Sylvester
// equation over one cached real Schur form A = Q·R·Qᵀ, and order 3 to a
// Bartels–Stewart recurrence over R whose inner solves are order-2
// quasi-triangular solves (complexified across 2×2 Schur blocks). The
// order-3 recurrence runs in Schur coordinates, so a chain of resolvent
// powers applies Q once at each end rather than once per power.
//
// Conventions (column-stacking): vec(X)[j·rows+i] = X[i][j], so
// (A⊗B)·vec(X) = vec(B·X·Aᵀ) and (x⊗y)[p·len(y)+q] = x[p]·y[q].
package kron

import (
	"avtmor/internal/mat"
)

// Vec column-stacks a matrix.
func Vec(x *mat.Dense) []float64 {
	v := make([]float64, x.R*x.C)
	for j := 0; j < x.C; j++ {
		for i := 0; i < x.R; i++ {
			v[j*x.R+i] = x.At(i, j)
		}
	}
	return v
}

// Unvec reshapes a column-stacked vector into rows×cols.
func Unvec(v []float64, rows, cols int) *mat.Dense {
	if len(v) != rows*cols {
		panic("kron: Unvec length mismatch")
	}
	x := mat.NewDense(rows, cols)
	for j := 0; j < cols; j++ {
		for i := 0; i < rows; i++ {
			x.Set(i, j, v[j*rows+i])
		}
	}
	return x
}

// VecC and UnvecC are the complex counterparts.
func VecC(x *mat.CDense) []complex128 {
	v := make([]complex128, x.R*x.C)
	for j := 0; j < x.C; j++ {
		for i := 0; i < x.R; i++ {
			v[j*x.R+i] = x.At(i, j)
		}
	}
	return v
}

// UnvecC reshapes a column-stacked complex vector into rows×cols.
func UnvecC(v []complex128, rows, cols int) *mat.CDense {
	if len(v) != rows*cols {
		panic("kron: UnvecC length mismatch")
	}
	x := mat.NewCDense(rows, cols)
	for j := 0; j < cols; j++ {
		for i := 0; i < rows; i++ {
			x.Set(i, j, v[j*rows+i])
		}
	}
	return x
}

// VecKron returns x⊗y.
func VecKron(x, y []float64) []float64 {
	out := make([]float64, len(x)*len(y))
	for p, xp := range x {
		if xp == 0 {
			continue
		}
		base := p * len(y)
		for q, yq := range y {
			out[base+q] = xp * yq
		}
	}
	return out
}

// VecKronC returns x⊗y for complex vectors.
func VecKronC(x, y []complex128) []complex128 {
	out := make([]complex128, len(x)*len(y))
	for p, xp := range x {
		if xp == 0 {
			continue
		}
		base := p * len(y)
		for q, yq := range y {
			out[base+q] = xp * yq
		}
	}
	return out
}

// Dense returns A⊗B explicitly (test/diagnostic use; O((mn)²) storage).
func Dense(a, b *mat.Dense) *mat.Dense {
	out := mat.NewDense(a.R*b.R, a.C*b.C)
	for i := 0; i < a.R; i++ {
		for j := 0; j < a.C; j++ {
			aij := a.At(i, j)
			if aij == 0 {
				continue
			}
			for p := 0; p < b.R; p++ {
				for q := 0; q < b.C; q++ {
					out.Set(i*b.R+p, j*b.C+q, aij*b.At(p, q))
				}
			}
		}
	}
	return out
}

// SumDense returns A⊕B = A⊗I + I⊗B explicitly (test/diagnostic use).
func SumDense(a, b *mat.Dense) *mat.Dense {
	if a.R != a.C || b.R != b.C {
		panic("kron: SumDense needs square matrices")
	}
	out := Dense(a, mat.Eye(b.R))
	ib := Dense(mat.Eye(a.R), b)
	return out.AddScaled(1, ib)
}

// SumApply2 computes dst = (⊕²A)·z for z of length n², without forming
// the operator: unvec, A·X + X·Aᵀ, re-vec.
func SumApply2(a *mat.Dense, dst, z []float64) {
	n := a.R
	if len(z) != n*n || len(dst) != n*n {
		panic("kron: SumApply2 length mismatch")
	}
	x := Unvec(z, n, n)
	r := a.Mul(x).Plus(x.Mul(a.T()))
	copy(dst, Vec(r))
}

// SumApply3 computes dst = (⊕³A)·z for z of length n³, viewing z as an
// n²×n matrix X with (⊕³A)vec(X) = vec((⊕²A)X + X·Aᵀ).
func SumApply3(a *mat.Dense, dst, z []float64) {
	n := a.R
	n2 := n * n
	if len(z) != n2*n || len(dst) != n2*n {
		panic("kron: SumApply3 length mismatch")
	}
	col := make([]float64, n2)
	tmp := make([]float64, n2)
	// (⊕²A)·X part, column by column.
	for j := 0; j < n; j++ {
		copy(col, z[j*n2:(j+1)*n2])
		SumApply2(a, tmp, col)
		copy(dst[j*n2:(j+1)*n2], tmp)
	}
	// X·Aᵀ part: dst[:,j] += Σ_k X[:,k]·A[j][k].
	for j := 0; j < n; j++ {
		dj := dst[j*n2 : (j+1)*n2]
		for k := 0; k < n; k++ {
			ajk := a.At(j, k)
			if ajk == 0 {
				continue
			}
			xk := z[k*n2 : (k+1)*n2]
			for i := range dj {
				dj[i] += ajk * xk[i]
			}
		}
	}
}
