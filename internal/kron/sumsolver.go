package kron

import (
	"avtmor/internal/mat"
	"avtmor/internal/schur"
	"avtmor/internal/sylv"
)

// SumSolver2 solves (⊕²A − σI)·z = v through the Sylvester equation
// A·X + X·Aᵀ − σ·X = V with one cached real Schur decomposition of A.
type SumSolver2 struct {
	n  int
	s  *schur.Schur
	qt *mat.Dense // Qᵀ cached
}

// NewSumSolver2 caches the Schur form of a.
func NewSumSolver2(a *mat.Dense) (*SumSolver2, error) {
	s, err := schur.Decompose(a)
	if err != nil {
		return nil, err
	}
	return &SumSolver2{n: a.R, s: s, qt: s.Q.T()}, nil
}

// Schur exposes the cached decomposition of A.
func (ss *SumSolver2) Schur() *schur.Schur { return ss.s }

// Solve computes z with (⊕²A − σI)·z = v for real σ.
func (ss *SumSolver2) Solve(sigma float64, v []float64) ([]float64, error) {
	n := ss.n
	vm := Unvec(v, n, n)
	// Y = Qᵀ V Q;  R·X̃ + X̃·Rᵀ − σ·X̃ = Y;  X = Q X̃ Qᵀ.
	y := ss.qt.Mul(vm).Mul(ss.s.Q)
	xt, err := sylv.TrSylvT(ss.s.T, ss.s.T, -sigma, y)
	if err != nil {
		return nil, err
	}
	x := ss.s.Q.Mul(xt).Mul(ss.qt)
	return Vec(x), nil
}

// SolveC computes z with (⊕²A − σI)·z = v for complex σ and v.
func (ss *SumSolver2) SolveC(sigma complex128, v []complex128) ([]complex128, error) {
	n := ss.n
	vm := UnvecC(v, n, n)
	y := mulRealLeft(ss.qt, mulRealRight(vm, ss.s.Q))
	xt, err := sylv.TrSylvTC(ss.s.T, ss.s.T, -sigma, y)
	if err != nil {
		return nil, err
	}
	x := mulRealLeft(ss.s.Q, mulRealRight(xt, ss.qt))
	return VecC(x), nil
}

// mulRealLeft returns A·X for real A, complex X.
func mulRealLeft(a *mat.Dense, x *mat.CDense) *mat.CDense {
	if a.C != x.R {
		panic("kron: mulRealLeft shape mismatch")
	}
	out := mat.NewCDense(a.R, x.C)
	for i := 0; i < a.R; i++ {
		for k := 0; k < a.C; k++ {
			aik := a.At(i, k)
			if aik == 0 {
				continue
			}
			ca := complex(aik, 0)
			xrow := x.A[k*x.C : (k+1)*x.C]
			orow := out.A[i*x.C : (i+1)*x.C]
			for j := range xrow {
				orow[j] += ca * xrow[j]
			}
		}
	}
	return out
}

// mulRealRight returns X·B for complex X, real B.
func mulRealRight(x *mat.CDense, b *mat.Dense) *mat.CDense {
	if x.C != b.R {
		panic("kron: mulRealRight shape mismatch")
	}
	out := mat.NewCDense(x.R, b.C)
	for i := 0; i < x.R; i++ {
		xrow := x.A[i*x.C : (i+1)*x.C]
		orow := out.A[i*b.C : (i+1)*b.C]
		for k, xik := range xrow {
			if xik == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bkj := range brow {
				if bkj != 0 {
					orow[j] += xik * complex(bkj, 0)
				}
			}
		}
	}
	return out
}
