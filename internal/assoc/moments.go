package assoc

import (
	"fmt"

	"avtmor/internal/kron"
	"avtmor/internal/mat"
	"avtmor/internal/qr"
	"avtmor/internal/solver"
	"avtmor/internal/sylv"
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
// per-column arithmetic is identical to looped single solves
// (solver.Factorization.SolveBatch's contract).

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
		f.SolveBatch(batch)
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

// h2Op is (G̃2 − s0·I)⁻¹ on vectors [x; ŵ] whose n² block is kept in
// the Schur coordinates of G1, ŵ = (Q⊗Q)ᵀ·w. The change diag(I, Q⊗Q)
// is orthogonal, so Arnoldi's inner products, and with them its basis
// up to that change, are those of the original-coordinate chain, and
// the top blocks are the original-coordinate candidates. One
// application is a symmetric ⊕²R solve of the bottom block, G2·(Q⊗Q)
// through a gather, and the (G1 − s0·I) substitution of the top block,
// batched over the frontier. Every H2 bottom block is symmetric (Btilde2
// symmetrizes each input pair, and the operator and Arnoldi's linear
// combinations keep it so), which the ⊕²R solve relies on.
type h2Op struct {
	r   *Realization
	s0  float64
	s2  *kron.SumSolver2
	g2  *gather   // G2·(Q⊗Q); nil when G2 = 0
	g2w []float64 // the gather's output for one column
	f   solver.Factorization
	err error // the first failure; later applications return zeros
}

func (r *Realization) newH2Op(s0 float64) (*h2Op, error) {
	s2, err := r.Sum2()
	if err != nil {
		return nil, err
	}
	f, err := r.shiftedLU(s0)
	if err != nil {
		return nil, err
	}
	op := &h2Op{r: r, s0: s0, s2: s2, f: f}
	if r.Sys.G2 != nil {
		op.g2 = newGather(r.Sys.G2, s2.Schur().Q, 2)
		op.g2w = make([]float64, r.Sys.N)
	}
	return op, nil
}

func (o *h2Op) ApplyBatch(dst, src [][]float64) {
	if o.err == nil {
		o.err = o.apply(dst, src)
	}
	if o.err != nil {
		for _, d := range dst {
			mat.Zero(d)
		}
	}
}

func (o *h2Op) apply(dst, src [][]float64) error {
	if err := o.r.ctx.Err(); err != nil {
		return err
	}
	n := o.r.Sys.N
	tops := make([][]float64, len(dst))
	for c, d := range dst {
		copy(d, src[c])
		w := d[n:]
		if err := sylv.TrSylvSym(o.s2.Schur().T, -o.s0, w, n); err != nil {
			return err
		}
		if o.g2 != nil {
			o.g2.apply(o.g2w, w)
			mat.Axpy(-1, o.g2w, d[:n])
		}
		tops[c] = d[:n]
	}
	o.f.SolveBatch(tops)
	return nil
}

// H2Candidates runs k2 steps of block Arnoldi (qr.Krylov over
// h2Op.ApplyBatch) on (G̃2 − s0·I)⁻¹ in the (n+n²)-dimensional
// realization space, starting from the b̃2 columns of every unordered
// input pair, and returns the top-n blocks of the orthonormal iterates.
// Those blocks span the state-moment space of A2(H2)(s) about s0 (the
// orthonormalization is a triangular change of basis, which the block
// extraction commutes with). The n² blocks stay in the Schur
// coordinates of G1 throughout (h2Op): the seeds are formed from Qᵀbᵢ,
// and the start block and every Arnoldi frontier go through one batched
// application.
func (r *Realization) H2Candidates(k2 int, s0 float64) ([][]float64, error) {
	if k2 <= 0 {
		return nil, nil
	}
	sys := r.Sys
	if sys.G2 == nil && sys.D1 == nil {
		return nil, nil // H2 ≡ 0
	}
	op, err := r.newH2Op(s0)
	if err != nil {
		return nil, err
	}
	n := sys.N
	bt := make([][]float64, sys.Inputs())
	for i := range bt {
		bt[i] = op.s2.ToSchur(sys.B.Col(i), 1)
	}
	var seeds [][]float64
	for i := 0; i < sys.Inputs(); i++ {
		for j := i; j < sys.Inputs(); j++ {
			seed := r.btilde2(i, j, bt[i], bt[j])
			if mat.Norm2(seed) == 0 {
				continue
			}
			seeds = append(seeds, seed)
		}
	}
	if len(seeds) == 0 {
		return nil, nil
	}
	start := make([][]float64, len(seeds))
	for i := range start {
		start[i] = make([]float64, n+n*n)
	}
	op.ApplyBatch(start, seeds)
	if op.err != nil {
		return nil, op.err
	}
	basis := qr.Krylov(op.ApplyBatch, start, k2, 1e-10)
	if op.err != nil {
		return nil, op.err
	}
	var out [][]float64
	for _, col := range basis {
		top := mat.CopyVec(col[:n])
		if n2 := mat.Norm2(top); n2 > 1e-14 {
			mat.ScaleVec(1/n2, top)
			out = append(out, top)
		}
	}
	return out, nil
}

// h3MomentSums returns the normalized nonzero moments
//
//	m_k = Σ_{i+j=k} M^{−(i+1)}·ws[j] − M^{−(k+1)}·d2,  k < k3,
//
// the last term only when d2 != nil: the H3 moment assembly both H3
// chains end in. It first solves the triangular table
// table[j][i] = M^{−(i+1)}·ws[j] for i+j < k3 and the powers
// dpow[i] = M^{−(i+1)}·d2. The independent chains advance in lockstep:
// sweep i applies M⁻¹ to every still-active chain through one batched
// substitution, with values bit-identical to per-chain loops.
func (r *Realization) h3MomentSums(f solver.Factorization, ws [][]float64, d2 []float64, k3 int) ([][]float64, error) {
	table := make([][][]float64, len(ws))
	var dpow [][]float64
	cols := make([][]float64, 0, len(ws)+1)
	for i := 0; i < k3; i++ {
		if err := r.ctx.Err(); err != nil {
			return nil, err
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
		f.SolveBatch(cols)
	}
	out := make([][]float64, 0, k3)
	for k := 0; k < k3; k++ {
		m := make([]float64, r.Sys.N)
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

// H3Moments returns the exact state-moment vectors m_0 … m_{k3−1} of
// A3(H3)(s) about s0 for a SISO quadratic QLDAE:
//
//	m_k = Σ_{i+j=k} M^{−(i+1)}·G2·out_j − M^{−(k+1)}·D1²b,
//
// where out_j is the symmetrized output of the j-th resolvent power of
// the H̃3 realization. The powers run in the Schur coordinates of G1
// (kronSchur): the rank-one start vector b⊗b̃2 is transformed once, its
// bottom block b^{3⊗} stays fully symmetric so every power solves it
// with kron.Sym3, and only each power's top block returns to original
// coordinates, as Q·X̃_top·Qᵀ before G2.
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
		d1b := make([]float64, n)
		sys.D1[0].MulVec(d1b, b)
		d2 = make([]float64, n)
		sys.D1[0].MulVec(d2, d1b)
	}
	return r.h3MomentSums(f, ws, d2, k3)
}

// H3MomentsCubic returns the exact state-moment vectors of the cubic
// associated transform A3(H3)(s) = (sI−G1)⁻¹G3(sI−⊕³G1)⁻¹b^{3⊗}:
//
//	m_k = Σ_{i+j=k} M^{−(i+1)}·G3·N3^{−(j+1)}·b^{3⊗},  N3 = ⊕³G1 − s0·I.
//
// The N3 powers run in the Schur coordinates of s3: b^{3⊗} maps to
// (Qᵀb)^{3⊗}, every power is one symmetric solve (kron.Sym3, since the
// powers of a fully symmetric tensor stay fully symmetric), and G3 reads
// each power through a gather over its nonzero columns.
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
	sym := s3.Sym()
	ws := make([][]float64, 0, k3)
	for j := 0; j < k3; j++ {
		if err := sym.SolveSchur(r.ctx, s0, z); err != nil {
			return nil, fmt.Errorf("assoc: cubic resolvent power %d: %w", j+1, err)
		}
		w := make([]float64, n)
		g3.applySym(w, z)
		ws = append(ws, w)
	}
	return r.h3MomentSums(f, ws, nil, k3)
}
