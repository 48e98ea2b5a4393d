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
// quasi-triangular solves. The order-3 recurrence runs in Schur
// coordinates, so a chain of resolvent powers applies Q once at each end
// rather than once per power. Every tensor the reduction and its error
// probes solve is fully symmetric, so they run Sym3, which computes each
// distinct entry once: at a real σ for the moment chains (a 2×2 Schur
// block complexified into one solve) and at a complex σ for the
// transfer-function probes (a 2×2 block diagonalized into two). The
// general real recurrence (SumSolver2.Solve, SumSolver3.Solve) serves
// cmd/avtmorbench's solver probe.
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
