package kron

import (
	"math"

	"avtmor/internal/schur"
)

// ShiftedSolver abstracts an operator L through its shifted resolvent:
// SolveShifted computes (L − τI)⁻¹·rhs. SumSolver2 (L = ⊕²A) implements
// it for the Eq.-(18) decoupling (assoc.SolvePi).
type ShiftedSolver interface {
	// Dim is the dimension L acts on.
	Dim() int
	// SolveShifted computes (L − τI)⁻¹ rhs for real τ.
	SolveShifted(tau float64, rhs []float64) ([]float64, error)
	// SolveShiftedC computes (L − τI)⁻¹ rhs for complex τ.
	SolveShiftedC(tau complex128, rhs []complex128) ([]complex128, error)
}

// Solve and SolveC of SumSolver2 already have the right shape; expose the
// interface explicitly.
func (ss *SumSolver2) SolveShifted(tau float64, rhs []float64) ([]float64, error) {
	return ss.Solve(tau, rhs)
}

// SolveShiftedC implements ShiftedSolver.
func (ss *SumSolver2) SolveShiftedC(tau complex128, rhs []complex128) ([]complex128, error) {
	return ss.SolveC(tau, rhs)
}

// Dim implements ShiftedSolver: SumSolver2 acts on length-n² vectors.
func (ss *SumSolver2) Dim() int { return ss.n * ss.n }

// ColumnSylvester solves the operator Sylvester equation
//
//	L(X) + X·Aᵀ − σ·X = V,   X ∈ R^{N×n},
//
// given a ShiftedSolver for L and the real Schur form A = Q·R·Qᵀ. X and V
// are stored column-stacked (vec). This is the outer recurrence of the
// paper's §2.3 solver stack: after the right-side Schur transform, each
// column block needs one shifted L-solve (complexified across 2×2 blocks).
func ColumnSylvester(op ShiftedSolver, sa *schur.Schur, sigma float64, v []float64) ([]float64, error) {
	nn := op.Dim()
	n := sa.T.R
	if len(v) != nn*n {
		panic("kron: ColumnSylvester length mismatch")
	}
	r := sa.T
	vt := rightMulCols(v, sa.Q, nn)
	xt := make([]float64, nn*n)
	blks := sa.Blocks()
	for bi := len(blks) - 1; bi >= 0; bi-- {
		l0, ln := blks[bi][0], blks[bi][1]
		rhs := make([][]float64, ln)
		for p := 0; p < ln; p++ {
			w := make([]float64, nn)
			copy(w, vt[(l0+p)*nn:(l0+p+1)*nn])
			for k := l0 + ln; k < n; k++ {
				rlk := r.At(l0+p, k)
				if rlk == 0 {
					continue
				}
				xk := xt[k*nn : (k+1)*nn]
				for i := range w {
					w[i] -= rlk * xk[i]
				}
			}
			rhs[p] = w
		}
		if ln == 1 {
			x, err := op.SolveShifted(sigma-r.At(l0, l0), rhs[0])
			if err != nil {
				return nil, err
			}
			copy(xt[l0*nn:(l0+1)*nn], x)
			continue
		}
		// Standardized 2×2 block [[α,β],[γ,α]], βγ<0: complexify into one
		// complex solve (L − (σ−α−iμ)I)·(x_p + i·s·x_q) = w_p + i·s·w_q
		// with μ = √(−βγ), s = −β/μ.
		alpha := r.At(l0, l0)
		beta := r.At(l0, l0+1)
		gamma := r.At(l0+1, l0)
		mu := math.Sqrt(-beta * gamma)
		sc := -beta / mu
		w := make([]complex128, nn)
		for i := range w {
			w[i] = complex(rhs[0][i], sc*rhs[1][i])
		}
		z, err := op.SolveShiftedC(complex(sigma-alpha, -mu), w)
		if err != nil {
			return nil, err
		}
		xp := xt[l0*nn : (l0+1)*nn]
		xq := xt[(l0+1)*nn : (l0+2)*nn]
		for i, zi := range z {
			xp[i] = real(zi)
			xq[i] = imag(zi) / sc
		}
	}
	return rightMulCols(xt, sa.Q.T(), nn), nil
}
