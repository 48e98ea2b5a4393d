// Package arnoldi implements Arnoldi/block-Krylov subspace construction
// over an abstract operator, with modified Gram–Schmidt and a second
// reorthogonalization pass (§2.3 of the paper: "the subspace basis
// construction is popularly done through the Arnoldi iteration").
//
// The operators fed in here are shift-inverted: Apply computes
// (s0·I − A)⁻¹·x through the structured solvers, so the generated basis
// spans the moment space of the transfer function about s0.
package arnoldi

import (
	"avtmor/internal/mat"
	"avtmor/internal/solver"
)

// Op is a linear operator on R^Dim.
type Op interface {
	Dim() int
	// Apply computes dst = Op·src; dst and src do not alias.
	Apply(dst, src []float64)
}

// FuncOp adapts a closure to Op.
type FuncOp struct {
	N int
	F func(dst, src []float64)
}

// Dim returns the operator dimension.
func (f FuncOp) Dim() int { return f.N }

// Apply invokes the closure.
func (f FuncOp) Apply(dst, src []float64) { f.F(dst, src) }

// BatchOp is an Op that can apply itself to a whole block of vectors at
// once. Krylov detects it and pushes each frontier through one
// ApplyBatch call instead of per-column Apply calls, so shift-inverted
// operators amortize their factor traversal across the block (the
// multi-RHS substitution win). ApplyBatch must be column-wise
// equivalent to Apply — same values, bit for bit — which keeps the
// generated basis independent of the batching decision.
type BatchOp interface {
	Op
	// ApplyBatch computes dst[c] = Op·src[c] for every column; dst
	// columns must not alias src columns.
	ApplyBatch(dst, src [][]float64)
}

// SolveOp adapts a solver.Factorization to Op: every Apply is one
// back-solve, so Krylov over SolveOp spans the shift-inverted moment
// space of the factored pencil. (The moment generators of
// internal/assoc drive their factorizations directly; SolveOp remains
// the generic adapter for any Factorization-backed subspace
// iteration.) It implements BatchOp through the factorization's block
// substitution: ApplyBatch pushes the whole frontier as one block.
type SolveOp struct{ F solver.Factorization }

// Dim returns the factorization dimension.
func (s SolveOp) Dim() int { return s.F.N() }

// Apply computes dst = A⁻¹·src.
func (s SolveOp) Apply(dst, src []float64) { s.F.Solve(dst, src) }

// ApplyBatch computes dst[c] = A⁻¹·src[c] through one SolveBatch.
func (s SolveOp) ApplyBatch(dst, src [][]float64) {
	for c := range dst {
		copy(dst[c], src[c])
	}
	s.F.SolveBatch(dst)
}

// MatOp adapts a dense matrix to Op.
type MatOp struct{ M *mat.Dense }

// Dim returns the matrix dimension.
func (m MatOp) Dim() int { return m.M.R }

// Apply computes dst = M·src.
func (m MatOp) Apply(dst, src []float64) { m.M.MulVec(dst, src) }

// Result carries the output of a Krylov run.
type Result struct {
	// V is the orthonormal basis, Dim × k (k ≤ steps·blockWidth after
	// deflation). Nil when everything deflated.
	V *mat.Dense
	// Deflated counts start or iterate vectors dropped as numerically
	// dependent.
	Deflated int
}

// defaultDropTol is the relative deflation threshold for MGS.
const defaultDropTol = 1e-10

// Krylov builds an orthonormal basis of the block Krylov subspace
// span{B, Op·B, …, Op^{steps-1}·B} where the columns of B are the start
// block. Each new candidate is orthogonalized (two MGS passes) against the
// existing basis and deflated when its remainder falls below dropTol times
// its pre-projection norm. dropTol ≤ 0 selects the default.
func Krylov(op Op, start [][]float64, steps int, dropTol float64) *Result {
	if dropTol <= 0 {
		dropTol = defaultDropTol
	}
	n := op.Dim()
	res := &Result{}
	var basis [][]float64
	// Frontier: the most recent orthonormalized image of each start
	// column that survived deflation.
	frontier := make([][]float64, 0, len(start))
	for _, b := range start {
		if len(b) != n {
			panic("arnoldi: start vector length mismatch")
		}
		if q, ok := orthoAdd(&basis, b, dropTol); ok {
			frontier = append(frontier, q)
		} else {
			res.Deflated++
		}
	}
	bop, batching := op.(BatchOp)
	tmp := make([]float64, n)
	var block [][]float64 // batched images of the frontier, lazily sized
	for step := 1; step < steps && len(frontier) > 0; step++ {
		next := frontier[:0:0]
		if batching && len(frontier) > 1 {
			// Apply the whole frontier in one batched operator call,
			// then orthogonalize in the same order as the scalar path —
			// per-column values are identical, so the basis is too.
			for len(block) < len(frontier) {
				block = append(block, make([]float64, n))
			}
			bop.ApplyBatch(block[:len(frontier)], frontier)
			for i := range frontier {
				if q, ok := orthoAdd(&basis, block[i], dropTol); ok {
					next = append(next, q)
				} else {
					res.Deflated++
				}
			}
		} else {
			for _, f := range frontier {
				op.Apply(tmp, f)
				if q, ok := orthoAdd(&basis, tmp, dropTol); ok {
					next = append(next, q)
				} else {
					res.Deflated++
				}
			}
		}
		frontier = next
	}
	if len(basis) > 0 {
		v := mat.NewDense(n, len(basis))
		for j, q := range basis {
			v.SetCol(j, q)
		}
		res.V = v
	}
	return res
}

// orthoAdd orthogonalizes w against basis (two MGS passes); on success the
// normalized vector is appended and returned.
func orthoAdd(basis *[][]float64, w []float64, dropTol float64) ([]float64, bool) {
	orig := mat.Norm2(w)
	if orig == 0 {
		return nil, false
	}
	v := mat.CopyVec(w)
	for pass := 0; pass < 2; pass++ {
		for _, q := range *basis {
			mat.Axpy(-mat.Dot(q, v), q, v)
		}
	}
	rem := mat.Norm2(v)
	if rem <= dropTol*orig {
		return nil, false
	}
	mat.ScaleVec(1/rem, v)
	*basis = append(*basis, v)
	return v, true
}

// Decomposition is a classical single-vector Arnoldi factorization
// A·V_k = V_{k+1}·H̃ with H̃ ∈ R^{(k+1)×k} upper Hessenberg; used for
// validation and spectral diagnostics.
type Decomposition struct {
	V *mat.Dense // n×(k+1)
	H *mat.Dense // (k+1)×k
	K int        // completed steps (may stop early on happy breakdown)
}

// Decompose runs k steps of single-vector Arnoldi from b.
func Decompose(op Op, b []float64, k int) *Decomposition {
	n := op.Dim()
	v := mat.NewDense(n, k+1)
	h := mat.NewDense(k+1, k)
	q := mat.CopyVec(b)
	nb := mat.Norm2(q)
	if nb == 0 {
		panic("arnoldi: zero start vector")
	}
	mat.ScaleVec(1/nb, q)
	v.SetCol(0, q)
	w := make([]float64, n)
	for j := 0; j < k; j++ {
		op.Apply(w, v.Col(j))
		for i := 0; i <= j; i++ {
			qi := v.Col(i)
			hij := mat.Dot(qi, w)
			h.Set(i, j, hij)
			mat.Axpy(-hij, qi, w)
		}
		// Reorthogonalization pass for robustness.
		for i := 0; i <= j; i++ {
			qi := v.Col(i)
			c := mat.Dot(qi, w)
			h.Add(i, j, c)
			mat.Axpy(-c, qi, w)
		}
		nw := mat.Norm2(w)
		h.Set(j+1, j, nw)
		if nw < 1e-13 {
			return &Decomposition{V: v.Slice(0, n, 0, j+2), H: h.Slice(0, j+2, 0, j+1), K: j + 1}
		}
		nq := mat.CopyVec(w)
		mat.ScaleVec(1/nw, nq)
		v.SetCol(j+1, nq)
	}
	return &Decomposition{V: v, H: h, K: k}
}
