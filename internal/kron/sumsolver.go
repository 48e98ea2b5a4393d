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
