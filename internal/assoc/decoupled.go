package assoc

import (
	"fmt"

	"avtmor/internal/kron"
	"avtmor/internal/mat"
	"avtmor/internal/schur"
)

// Eq. (18): the one-time similarity transform that block-diagonalizes the
// realization of A2(H2). Solving the Sylvester equation
//
//	G1·Π + G2 = Π·(⊕²G1)
//
// (always solvable for stable G1: λi+λj+λk ≠ 0) splits H2(s) into two
// decoupled subsystems,
//
//	H2(s) = (sI−G1)⁻¹·(D1·b − Π·b^{2⊗}) + Π·(sI−⊕²G1)⁻¹·b^{2⊗},
//
// whose Krylov subspaces can be generated independently (and in parallel,
// as §2.3 notes). This is the alternative H2 moment path benchmarked by
// BenchmarkAblationDecoupledH2.

// SolvePi computes Π by one Bartels–Stewart recurrence: transposed, the
// equation reads ⊕²(G1ᵀ)·Y + Y·(−G1)ᵀ = G2ᵀ with Y = Πᵀ, which is the
// shared column-recurrence form with L = ⊕²(G1ᵀ).
func (r *Realization) SolvePi() (*mat.Dense, error) {
	sys := r.Sys
	if sys.G2 == nil {
		return nil, fmt.Errorf("assoc: SolvePi needs a quadratic term")
	}
	if sys.G1 == nil {
		return nil, fmt.Errorf("assoc: the Eq.-(18) decoupling needs a dense G1 (CSR-only system); supply qldae.System.G1 or use the block-triangular H2 path")
	}
	n := sys.N
	g1t := sys.G1.T()
	opT, err := kron.NewSumSolver2(g1t)
	if err != nil {
		return nil, err
	}
	sMinus, err := schur.Decompose(sys.G1.Clone().Scale(-1))
	if err != nil {
		return nil, err
	}
	// V = vec(G2ᵀ): column j of Y corresponds to row j of G2.
	v := make([]float64, n*n*n)
	g2d := sys.G2 // CSR rows are dense n² slices of v
	for j := 0; j < n; j++ {
		col := v[j*n*n : (j+1)*n*n]
		for k := g2d.RowPtr[j]; k < g2d.RowPtr[j+1]; k++ {
			col[g2d.ColIdx[k]] = g2d.Val[k]
		}
	}
	y, err := kron.ColumnSylvester(opT, sMinus, 0, v)
	if err != nil {
		return nil, fmt.Errorf("assoc: Π Sylvester equation: %w", err)
	}
	// Π = Yᵀ with Y stored as n columns of length n².
	pi := mat.NewDense(n, n*n)
	for j := 0; j < n; j++ {
		col := y[j*n*n : (j+1)*n*n]
		for i, val := range col {
			pi.Set(j, i, val)
		}
	}
	return pi, nil
}

// PiResidual returns ‖G1·Π + G2 − Π·(⊕²G1)‖_∞ (test/diagnostic).
func (r *Realization) PiResidual(pi *mat.Dense) float64 {
	sys := r.Sys
	n := sys.N
	// G1·Π + G2 − Π·(⊕²G1), evaluated column block by column block using
	// (⊕²G1) column action: (Π·⊕²G1)[:,c] = Σ_d Π[:,d]·(⊕²G1)[d,c]; use
	// the apply form instead: for each row of Π, (rowᵀ applied to ⊕²G1)
	// equals SumApply2 of the transposed operator... simpler: residual
	// applied to random probe vectors.
	worst := 0.0
	probe := make([]float64, n*n)
	tmp := make([]float64, n*n)
	out1 := make([]float64, n)
	out2 := make([]float64, n)
	for trial := 0; trial < 4; trial++ {
		for i := range probe {
			probe[i] = float64((i*2654435761+trial*40503)%1000)/500 - 1
		}
		// (G1·Π + G2 − Π·⊕²G1)·probe.
		pip := make([]float64, n)
		pi.MulVec(pip, probe)
		sys.G1.MulVec(out1, pip)
		sys.G2.MulVec(out2, probe)
		mat.AddVec(out1, out1, out2)
		kron.SumApply2(sys.G1, tmp, probe)
		pi.MulVec(pip, tmp)
		mat.Axpy(-1, pip, out1)
		if v := mat.NormInf(out1); v > worst {
			worst = v
		}
	}
	return worst
}

// H2CandidatesDecoupled generates the H2 moment space through the
// Eq.-(18) decoupling: Krylov chains of the two independent subsystems.
// SISO and single-pair MIMO blocks are concatenated per input pair.
func (r *Realization) H2CandidatesDecoupled(k2 int, s0 float64) ([][]float64, error) {
	if k2 <= 0 {
		return nil, nil
	}
	sys := r.Sys
	if sys.G2 == nil {
		return r.H2Candidates(k2, s0) // no quadratic part: fall back
	}
	pi, err := r.SolvePi()
	if err != nil {
		return nil, err
	}
	n := sys.N
	f, err := r.shiftedLU(s0)
	if err != nil {
		return nil, err
	}
	// Subsystem-1 seeds of every input pair: M⁻¹-chains from
	// D1b − Π·b². The chains are independent, so they advance in
	// lockstep — one Π·b² batch multiply and one SolveBatch over all
	// pairs per Krylov step — while the emitted candidate order below
	// stays pair-major, exactly as the vector-granular path produced it.
	var tops, b2s [][]float64
	for i := 0; i < sys.Inputs(); i++ {
		for j := i; j < sys.Inputs(); j++ {
			bt := r.Btilde2(i, j)
			tops = append(tops, bt[:n])
			b2s = append(b2s, bt[n:])
		}
	}
	seeds := make([][]float64, len(b2s))
	for p := range seeds {
		seeds[p] = make([]float64, n)
	}
	pi.MulBatchTo(seeds, b2s)
	for p, seed := range seeds {
		mat.ScaleVec(-1, seed)
		mat.Axpy(1, tops[p], seed)
	}
	npairs := len(seeds)
	sub1 := make([][][]float64, npairs)
	cur := seeds
	batch := make([][]float64, npairs)
	for k := 0; k < k2; k++ {
		if err := r.ctx.Err(); err != nil {
			return nil, err
		}
		for p := 0; p < npairs; p++ {
			batch[p] = mat.CopyVec(cur[p])
		}
		f.SolveBatch(batch)
		for p := 0; p < npairs; p++ {
			next := batch[p]
			if nn := mat.Norm2(next); nn > 0 {
				mat.ScaleVec(1/nn, next)
			}
			sub1[p] = append(sub1[p], next)
			cur[p] = next
		}
	}
	// Subsystem 2: Π·(⊕²G1 − s0·I)^{-k}·b², per pair (the Kronecker-sum
	// recurrence is vector-granular).
	s2, err := r.Sum2()
	if err != nil {
		return nil, err
	}
	var out [][]float64
	for p := 0; p < npairs; p++ {
		out = append(out, sub1[p]...)
		w := b2s[p]
		for k := 0; k < k2; k++ {
			w, err = s2.Solve(s0, w)
			if err != nil {
				return nil, err
			}
			if nn := mat.Norm2(w); nn > 0 {
				mat.ScaleVec(1/nn, w)
			}
			piw := make([]float64, n)
			pi.MulVec(piw, w)
			if nn := mat.Norm2(piw); nn > 1e-14 {
				mat.ScaleVec(1/nn, piw)
				out = append(out, piw)
			}
		}
	}
	return out, nil
}
