package assoc

import (
	"fmt"

	"avtmor/internal/arnoldi"
	"avtmor/internal/kron"
	"avtmor/internal/mat"
	"avtmor/internal/solver"
)

// Moment-space generation for the proposed NMOR scheme (§2.3): one Krylov
// subspace per Volterra order, all in the single associated variable s.
// Every vector returned lives in the original n-dimensional state space.
//
// All chains that share a shift are pushed through the factorization in
// blocks (SolveBatch): the H1 chains of every input advance in
// lockstep, the H3 moment table sweeps all its diagonals at once, and
// the block-Arnoldi frontier of H2 applies the shifted operator to its
// whole frontier per step. Batching is a pure traversal amortization —
// per-column arithmetic is identical to the vector-granular path, so
// the generated candidates (and therefore the ROM) are bit-exact
// regardless of the configured block size.

// H1Moments returns the k1 shift-inverted Krylov vectors
// {M⁻¹b, …, M^{−k1}b} per input, M = G1 − s0·I (iterates are normalized;
// spans are unchanged). The back-solves run through the solver-backed
// factorization cache, so the one factor of M — dense or sparse LU —
// is shared with every other moment order and expansion point; the m
// input chains advance together, one SolveBatch of m columns per
// Krylov step.
func (r *Realization) H1Moments(k1 int, s0 float64) ([][]float64, error) {
	if k1 <= 0 {
		return nil, nil
	}
	f, err := r.shiftedLU(s0)
	if err != nil {
		return nil, err
	}
	m := r.Sys.Inputs()
	// out stays input-major — out[in*k1+k] — matching the legacy chain
	// ordering while the solves sweep step-major across inputs.
	out := make([][]float64, m*k1)
	cur := make([][]float64, m)
	for in := 0; in < m; in++ {
		cur[in] = r.Sys.B.Col(in)
	}
	batch := make([][]float64, m)
	for k := 0; k < k1; k++ {
		if err := r.ctx.Err(); err != nil {
			return nil, err
		}
		for in := 0; in < m; in++ {
			batch[in] = mat.CopyVec(cur[in])
		}
		r.solveBatch(f, batch)
		for in := 0; in < m; in++ {
			next := batch[in]
			if n2 := mat.Norm2(next); n2 > 0 {
				mat.ScaleVec(1/n2, next)
			}
			out[in*k1+k] = next
			cur[in] = next
		}
	}
	return out, nil
}

// gt2Op adapts the block-triangular G̃2 solver to the Arnoldi operator
// interfaces; ApplyBatch pushes a whole frontier through one
// SolveShiftedBatch (one batched top-block substitution per step).
type gt2Op struct {
	g   *Gt2
	s0  float64
	err *error
}

func (o gt2Op) Dim() int { return o.g.Dim() }

func (o gt2Op) Apply(dst, src []float64) {
	w, err := o.g.SolveShifted(o.s0, src)
	if err != nil {
		*o.err = err
		mat.Zero(dst)
		return
	}
	copy(dst, w)
}

func (o gt2Op) ApplyBatch(dst, src [][]float64) {
	ws, err := o.g.SolveShiftedBatch(o.s0, src)
	if err != nil {
		*o.err = err
		for _, d := range dst {
			mat.Zero(d)
		}
		return
	}
	for i := range dst {
		copy(dst[i], ws[i])
	}
}

// H2Candidates runs k2 steps of block Arnoldi on (G̃2 − s0·I)⁻¹ in the
// (n+n²)-dimensional realization space, starting from the b̃2 columns of
// every unordered input pair, and returns the top-n blocks of the
// orthonormal iterates. Those blocks span the state-moment space of
// A2(H2)(s) about s0 (the orthonormalization is a triangular change of
// basis, which the block extraction commutes with). The start block and
// every Arnoldi frontier go through the batched shifted solve.
func (r *Realization) H2Candidates(k2 int, s0 float64) ([][]float64, error) {
	if k2 <= 0 {
		return nil, nil
	}
	sys := r.Sys
	if sys.G2 == nil && sys.D1 == nil {
		return nil, nil // H2 ≡ 0
	}
	n := sys.N
	var seeds [][]float64
	for i := 0; i < sys.Inputs(); i++ {
		for j := i; j < sys.Inputs(); j++ {
			bt := r.Btilde2(i, j)
			if mat.Norm2(bt) == 0 {
				continue
			}
			seeds = append(seeds, bt)
		}
	}
	if len(seeds) == 0 {
		return nil, nil
	}
	start, err := r.gt2.SolveShiftedBatch(s0, seeds)
	if err != nil {
		return nil, err
	}
	var solveErr error
	res := arnoldi.Krylov(gt2Op{g: r.gt2, s0: s0, err: &solveErr}, start, k2, 0)
	if solveErr != nil {
		return nil, solveErr
	}
	if res.V == nil {
		return nil, nil
	}
	var out [][]float64
	for c := 0; c < res.V.C; c++ {
		col := res.V.Col(c)
		top := mat.CopyVec(col[:n])
		if n2 := mat.Norm2(top); n2 > 1e-14 {
			mat.ScaleVec(1/n2, top)
			out = append(out, top)
		}
	}
	return out, nil
}

// solveMomentTable computes table[j][i] = M^{−(i+1)}·ws[j] for i+j < k3
// plus (when d2 != nil) dpow[i] = M^{−(i+1)}·d2 — the triangular solve
// table of the H3 moment assembly. The independent chains advance in
// lockstep: sweep i applies M⁻¹ to every still-active chain through one
// batched substitution, with values bit-identical to per-chain loops.
func (r *Realization) solveMomentTable(f solver.Factorization, ws [][]float64, d2 []float64, k3 int) (table [][][]float64, dpow [][]float64, err error) {
	table = make([][][]float64, len(ws))
	cols := make([][]float64, 0, len(ws)+1)
	for i := 0; i < k3; i++ {
		if err := r.ctx.Err(); err != nil {
			return nil, nil, err
		}
		cols = cols[:0]
		for j := range ws {
			if i+j >= k3 {
				continue
			}
			src := ws[j]
			if i > 0 {
				src = table[j][i-1]
			}
			next := mat.CopyVec(src)
			table[j] = append(table[j], next)
			cols = append(cols, next)
		}
		if d2 != nil {
			src := d2
			if i > 0 {
				src = dpow[i-1]
			}
			next := mat.CopyVec(src)
			dpow = append(dpow, next)
			cols = append(cols, next)
		}
		if len(cols) == 0 {
			break
		}
		r.solveBatch(f, cols)
	}
	return table, dpow, nil
}

// H3Moments returns the exact state-moment vectors m_0 … m_{k3−1} of
// A3(H3)(s) about s0 for a SISO quadratic QLDAE:
//
//	m_k = Σ_{i+j=k} M^{−(i+1)}·G2·out_j − M^{−(k+1)}·D1²b,
//
// where out_j is the symmetrized output of the j-th resolvent power of
// the H̃3 realization. The powers run in the Schur coordinates of G1
// (kronSchur): the rank-one start vector b⊗b̃2 is transformed once, and
// only each power's top block returns to original coordinates, as
// Q·X̃_top·Qᵀ before G2.
func (r *Realization) H3Moments(k3 int, s0 float64) ([][]float64, error) {
	if k3 <= 0 {
		return nil, nil
	}
	sys := r.Sys
	if sys.Inputs() != 1 {
		return nil, errNotSISO
	}
	if sys.G2 == nil && (sys.D1 == nil || sys.D1[0] == nil) {
		return nil, nil // H3 of the quadratic branch vanishes
	}
	n := sys.N
	f, err := r.shiftedLU(s0)
	if err != nil {
		return nil, err
	}
	// w_j = G2·out_j for j = 0..k3-1.
	ws := make([][]float64, 0, k3)
	if sys.G2 != nil {
		k, err := r.kronSchur()
		if err != nil {
			return nil, err
		}
		s2 := k.s3.Sum2()
		q := s2.Schur().Q
		qt := q.T()
		// b⊗b̃2 in Schur coordinates: X̃_top = Qᵀ·D1b·(Qᵀb)ᵀ and
		// vec(X̃_bot) = (Qᵀb)^{3⊗}.
		bt := s2.ToSchur(sys.B.Col(0), 1)
		dt := s2.ToSchur(r.Btilde2(0, 0)[:n], 1)
		top := kron.VecKron(bt, dt)
		bot := kron.VecKron(kron.VecKron(bt, bt), bt)
		h3t := make([]float64, n*n)
		for j := 0; j < k3; j++ {
			if err := k.step(r.ctx, s0, top, bot); err != nil {
				return nil, fmt.Errorf("assoc: H3 resolvent power %d: %w", j+1, err)
			}
			// The column-stacked top read row-major is X̃_topᵀ, so this
			// is Z_topᵀ; the symmetrized output does not see the
			// difference.
			ztop := q.Mul(&mat.Dense{R: n, C: n, A: top}).Mul(qt)
			for i := 0; i < n; i++ {
				for c := 0; c < n; c++ {
					h3t[i*n+c] = ztop.A[i*n+c] + ztop.A[c*n+i]
				}
			}
			w := make([]float64, n)
			sys.G2.MulVec(w, h3t)
			ws = append(ws, w)
		}
	}
	// d2 = D1²·b.
	var d2 []float64
	if sys.D1 != nil && sys.D1[0] != nil {
		b := sys.B.Col(0)
		d1b := mat.GetVec(n)
		sys.D1[0].MulVec(d1b, b)
		d2 = make([]float64, n)
		sys.D1[0].MulVec(d2, d1b)
		mat.PutVec(d1b)
	}
	// Table c[j][i] = M^{−(i+1)}·w_j and the d-term powers
	// M^{−(k+1)}·d2, all chains advancing together one batched solve
	// per sweep.
	table, dpow, err := r.solveMomentTable(f, ws, d2, k3)
	if err != nil {
		return nil, err
	}
	out := make([][]float64, 0, k3)
	for k := 0; k < k3; k++ {
		m := make([]float64, n)
		for j := 0; j <= k && j < len(table); j++ {
			mat.Axpy(1, table[j][k-j], m)
		}
		if dpow != nil {
			mat.Axpy(-1, dpow[k], m)
		}
		if n2v := mat.Norm2(m); n2v > 0 {
			mat.ScaleVec(1/n2v, m)
			out = append(out, m)
		}
	}
	return out, nil
}

// H3MomentsCubic returns the exact state-moment vectors of the cubic
// associated transform A3(H3)(s) = (sI−G1)⁻¹G3(sI−⊕³G1)⁻¹b^{3⊗}:
//
//	m_k = Σ_{i+j=k} M^{−(i+1)}·G3·N3^{−(j+1)}·b^{3⊗},  N3 = ⊕³G1 − s0·I.
//
// The N3 powers run in the Schur coordinates of s3: b^{3⊗} maps to
// (Qᵀb)^{3⊗}, every power is one SolveSchur, and G3 reads each power
// through a gather over its nonzero columns.
func (r *Realization) H3MomentsCubic(s3 *kron.SumSolver3, k3 int, s0 float64) ([][]float64, error) {
	if k3 <= 0 {
		return nil, nil
	}
	sys := r.Sys
	if sys.Inputs() != 1 {
		return nil, errNotSISO
	}
	if sys.G3 == nil {
		return nil, nil
	}
	n := sys.N
	f, err := r.shiftedLU(s0)
	if err != nil {
		return nil, err
	}
	s2 := s3.Sum2()
	bt := s2.ToSchur(sys.B.Col(0), 1)
	z := kron.VecKron(kron.VecKron(bt, bt), bt)
	g3 := newGather(sys.G3, s2.Schur().Q, 3)
	ws := make([][]float64, 0, k3)
	for j := 0; j < k3; j++ {
		if err := s3.SolveSchur(r.ctx, s0, z); err != nil {
			return nil, fmt.Errorf("assoc: cubic resolvent power %d: %w", j+1, err)
		}
		w := make([]float64, n)
		g3.apply(w, z)
		ws = append(ws, w)
	}
	table, _, err := r.solveMomentTable(f, ws, nil, k3)
	if err != nil {
		return nil, err
	}
	out := make([][]float64, 0, k3)
	for k := 0; k < k3; k++ {
		m := make([]float64, n)
		for j := 0; j <= k; j++ {
			mat.Axpy(1, table[j][k-j], m)
		}
		if n2v := mat.Norm2(m); n2v > 0 {
			mat.ScaleVec(1/n2v, m)
			out = append(out, m)
		}
	}
	return out, nil
}
