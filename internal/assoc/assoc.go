// Package assoc implements the associated-transform realizations that are
// the paper's core contribution: the single-s linear state spaces of
// A2(H2) (Eq. (17)) and A3(H3) (§2.2), together with the structure-
// exploiting shifted solvers of §2.3. The realization matrix
//
//	G̃2 = ⎡G1  G2⎤   ∈ R^{(n+n²)×(n+n²)},  b̃2 = ⎡D1·b⎤,  c̃2 = [I 0]
//	     ⎣0  ⊕²G1⎦                              ⎣b⊗b ⎦
//
// is never formed: every (G̃2 − τI)⁻¹ application is one Kronecker-sum
// solve (a Sylvester equation over the cached Schur form of G1) plus one
// shifted LU solve with G1 — O(n³) instead of O((n+n²)³). The H2 chain
// keeps its n² blocks in the Schur coordinates of G1 (h2Op), and the H3
// resolvent chains run entirely in them (kronSchur), where they need no
// LU at all; both exploit that their Kronecker blocks are symmetric.
package assoc

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"avtmor/internal/kron"
	"avtmor/internal/lu"
	"avtmor/internal/mat"
	"avtmor/internal/qldae"
	"avtmor/internal/solver"
	"avtmor/internal/sylv"
)

// Realization bundles a QLDAE with the cached factorizations used by every
// associated-transform computation. All shift-invert back-solves with
// (G1 − τI) go through one solver.ShiftedCache, so the backend (dense LU,
// sparse LU, or auto-routed) is a constructor choice and factorizations
// are shared across H1/H2/H3 and across multipoint expansion
// frequencies. The Schur form of G1 that powers the Kronecker-sum
// solves of H2/H3 is computed lazily on first use: linear-only (H1)
// reductions of large sparse circuits never pay the O(n³) step.
//
// A Realization is safe for the concurrent moment generation of
// core.ReduceContext's parallel fan-out: the shifted caches are mutexed, and
// distinct shifts factor concurrently.
type Realization struct {
	Sys *qldae.System
	gt2 *Gt2
	sc  *solver.ShiftedCache // cache: (G1 − τI) factorizations
	ctx context.Context      // cancels the Krylov chains and factor steps

	mu     sync.Mutex
	s2     *kron.SumSolver2       // guarded by mu; (⊕²G1 − σI)⁻¹ via Schur(G1), lazy
	s2err  error                  // guarded by mu
	s2done bool                   // guarded by mu
	luCplx map[complex128]*lu.CLU // guarded by mu
}

// New prepares the realization with the auto-routed solver backend.
func New(sys *qldae.System) (*Realization, error) {
	return NewWithSolverCtx(context.Background(), sys, nil)
}

// NewWithSolverCtx prepares the realization with an explicit
// linear-solver backend (nil selects solver.Auto), bound to a context:
// every moment chain, resolvent power, and shifted factor step of this
// realization polls ctx and aborts with its error once the caller gives
// up. One Realization serves one Reduce call, so binding the context at
// construction keeps the per-iteration hot paths signature-stable.
func NewWithSolverCtx(ctx context.Context, sys *qldae.System, ls solver.LinearSolver) (*Realization, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	r := &Realization{
		Sys:    sys,
		sc:     solver.NewShiftedCache(solver.Operand(sys.G1, sys.G1S), nil, ls),
		ctx:    ctx,
		luCplx: map[complex128]*lu.CLU{},
	}
	r.gt2 = &Gt2{r: r}
	return r, nil
}

// SetBlockSize does nothing: the moment generators push every column
// that shares a shift through one SolveBatch call. It remains only for
// callers that still set a width.
func (r *Realization) SetBlockSize(int) {}

// H2CandidatesDecoupled is H2Candidates. The Eq.-(18) decoupled chains
// span what the Eq.-(17) chain spans, so no second H2 method is kept;
// this name remains only for callers that still use it.
func (r *Realization) H2CandidatesDecoupled(k2 int, s0 float64) ([][]float64, error) {
	return r.H2Candidates(k2, s0)
}

// SolverStats reports the shifted-factorization cache counters (factor
// steps actually paid, cache hits, batch-solve traffic) for the
// observability layer.
func (r *Realization) SolverStats() solver.CacheStats { return r.sc.Stats() }

// SolverBackend names the backend the shifted pencil actually factors
// through (Auto resolved to its routing decision).
func (r *Realization) SolverBackend() string { return r.sc.BackendName() }

// Sum2 returns the lazily-built Kronecker-sum solver over Schur(G1).
// The H2/H3 structured solves need the dense G1; CSR-only systems get
// an explanatory error instead of an n×n densification.
func (r *Realization) Sum2() (*kron.SumSolver2, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.s2done {
		r.s2done = true
		if r.Sys.G1 == nil {
			r.s2err = errors.New("assoc: H2/H3 associated solves need a dense G1 (CSR-only system); supply qldae.System.G1 or reduce with K2 = K3 = 0")
		} else if s2, err := kron.NewSumSolver2(r.Sys.G1); err != nil {
			r.s2err = fmt.Errorf("assoc: Schur of G1 failed: %w", err)
		} else {
			r.s2 = s2
		}
	}
	return r.s2, r.s2err
}

// shiftedLU returns a cached factorization of (G1 − τI) from the
// solver-backed shift cache.
func (r *Realization) shiftedLU(tau float64) (solver.Factorization, error) {
	f, err := r.sc.FactorCtx(r.ctx, -tau)
	if err != nil {
		return nil, fmt.Errorf("assoc: (G1 − %g·I) singular: %w", tau, err)
	}
	// Scale of the shifted pencil (max(‖G1‖_max, |τ|) bounds
	// ‖G1 − τI‖_max within a factor of 2), so the ratio test keeps its
	// meaning when |τ| dwarfs the matrix entries.
	scale := math.Max(r.sc.Scale(), math.Abs(tau))
	if f.MinAbsPivot() < 1e-12*scale {
		return nil, fmt.Errorf("assoc: (G1 − %g·I) is numerically singular (pivot ratio %.2g); expand at a non-DC point s0",
			tau, f.MinAbsPivot()/scale)
	}
	return f, nil
}

// shiftedCLU returns a cached complex factorization of (G1 − τI); this
// verification-only path stays dense.
func (r *Realization) shiftedCLU(tau complex128) (*lu.CLU, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.luCplx[tau]; ok {
		return f, nil
	}
	if r.Sys.G1 == nil {
		return nil, errors.New("assoc: complex-frequency evaluation needs a dense G1 (CSR-only system)")
	}
	f, err := lu.ShiftedReal(r.Sys.G1, -tau)
	if err != nil {
		return nil, fmt.Errorf("assoc: (G1 − %v·I) singular: %w", tau, err)
	}
	r.luCplx[tau] = f
	return f, nil
}

// Btilde2 builds the input column of the Eq.-(17) realization for input
// pair (i, j): [½(D1ᵢ·bⱼ + D1ⱼ·bᵢ); ½(bᵢ⊗bⱼ + bⱼ⊗bᵢ)]. For SISO (i=j=0)
// this is exactly [D1·b; b⊗b].
func (r *Realization) Btilde2(i, j int) []float64 {
	return r.btilde2(i, j, r.Sys.B.Col(i), r.Sys.B.Col(j))
}

// btilde2 is Btilde2 with its n² block built from bi and bj, input
// columns i and j in the coordinates the caller keeps that block in.
func (r *Realization) btilde2(i, j int, bi, bj []float64) []float64 {
	sys := r.Sys
	n := sys.N
	out := make([]float64, n+n*n)
	tmp := make([]float64, n)
	if sys.D1 != nil {
		if sys.D1[i] != nil {
			sys.D1[i].MulVec(tmp, sys.B.Col(j))
			mat.Axpy(0.5, tmp, out[:n])
		}
		if sys.D1[j] != nil {
			sys.D1[j].MulVec(tmp, sys.B.Col(i))
			mat.Axpy(0.5, tmp, out[:n])
		}
	}
	kij := kron.VecKron(bi, bj)
	kji := kron.VecKron(bj, bi)
	for k := range kij {
		out[n+k] = 0.5 * (kij[k] + kji[k])
	}
	return out
}

// Gt2 solves (G̃2 − τI)·z = rhs for complex τ by block
// back-substitution: w = (⊕²G1 − τI)⁻¹·g, then x = (G1 − τI)⁻¹·(f − G2·w).
// It evaluates A2(H2) at complex frequencies; the H2 moment chain runs
// the real-shift operator in Schur coordinates instead (h2Op).
type Gt2 struct {
	r *Realization
}

// SolveShiftedC computes (G̃2 − τI)⁻¹·rhs for complex τ.
func (g *Gt2) SolveShiftedC(tau complex128, rhs []complex128) ([]complex128, error) {
	n := g.r.Sys.N
	if len(rhs) != n+n*n {
		panic("assoc: Gt2 SolveShiftedC length mismatch")
	}
	s2, err := g.r.Sum2()
	if err != nil {
		return nil, err
	}
	w, err := s2.SolveC(tau, rhs[n:])
	if err != nil {
		return nil, err
	}
	f, err := g.r.shiftedCLU(tau)
	if err != nil {
		return nil, err
	}
	top := make([]complex128, n)
	copy(top, rhs[:n])
	if g.r.Sys.G2 != nil {
		g2w := make([]complex128, n)
		g.r.Sys.G2.MulVecC(g2w, w)
		for i := range top {
			top[i] -= g2w[i]
		}
	}
	f.Solve(top, top)
	out := make([]complex128, n+n*n)
	copy(out[:n], top)
	copy(out[n:], w)
	return out, nil
}

// kronSchur is the H̃3 resolvent (G1⊕G̃2 − σI)⁻¹ in Schur coordinates.
// With G1 = Q·R·Qᵀ and T = diag(Q, Q⊗Q),
//
//	(Q⊗T)ᵀ·(G1⊕G̃2)·(Q⊗T) = R ⊕ ⎡R  Ĝ2 ⎤,   Ĝ2 = Qᵀ·G2·(Q⊗Q),
//	                            ⎣0  ⊕²R⎦
//
// so an iterate z = vec(X), X ∈ R^{(n+n²)×n}, splits into its top n×n
// block and its bottom n²×n block, which solve
//
//	(⊕³R − σI)·vec(X̃_bot) = vec(Ṽ_bot),
//	R·X̃_top + X̃_top·Rᵀ − σ·X̃_top = Ṽ_top − Ĝ2·X̃_bot.
//
// The bottom is the cubic chain's recurrence; the top is one
// quasi-triangular Sylvester solve once G2 is contracted over its
// nonzeros. No shifted LU of G1 and no complex LU is needed.
type kronSchur struct {
	s3 *kron.SumSolver3
	g2 *gather // nil when G2 = 0
	// sym runs step's bottom recurrence on fully symmetric iterates
	// (kron.Sym3), which H3Moments' powers of b⊗b̃2 are; stepC, which
	// evaluates A3(H3) at a complex frequency, does not use it.
	sym *kron.Sym3
}

func (r *Realization) kronSchur() (*kronSchur, error) {
	s2, err := r.Sum2()
	if err != nil {
		return nil, err
	}
	k := &kronSchur{s3: s2.Sum3()}
	if r.Sys.G2 != nil {
		k.g2 = newGather(r.Sys.G2, s2.Schur().Q, 2)
	}
	return k, nil
}

// step overwrites top (X̃_top, column-stacked) and bot (vec(X̃_bot)) with
// one resolvent power. Read row-major, a column-stacked X̃_top is W =
// X̃_topᵀ, which solves R·W + W·Rᵀ − σ·W = Ṽ_topᵀ − D·Q with
// D[p][i] = (G2·(Q⊗Q)·x̃_bot,p)[i] (⊕²R commutes with transposition).
func (k *kronSchur) step(ctx context.Context, sigma float64, top, bot []float64) error {
	if err := k.sym.SolveSchur(ctx, sigma, bot); err != nil {
		return err
	}
	n := k.s3.N()
	sch := k.s3.Sum2().Schur()
	w := &mat.Dense{R: n, C: n, A: top}
	if k.g2 != nil {
		d := mat.NewDense(n, n)
		k.g2.applySym(d.A, bot)
		w.AddScaled(-1, d.Mul(sch.Q))
	}
	x, err := sylv.TrSylvT(sch.T, sch.T, -sigma, w)
	if err != nil {
		return err
	}
	copy(top, x.A)
	return nil
}

// stepC is step for complex σ and iterates.
func (k *kronSchur) stepC(ctx context.Context, sigma complex128, top, bot []complex128) error {
	if err := k.s3.SolveSchurC(ctx, sigma, bot); err != nil {
		return err
	}
	n := k.s3.N()
	sch := k.s3.Sum2().Schur()
	w := &mat.CDense{R: n, C: n, A: top}
	if k.g2 != nil {
		dre, dim := mat.NewDense(n, n), mat.NewDense(n, n)
		k.g2.apply(dre.A, mat.RealPart(bot))
		k.g2.apply(dim.A, mat.ImagPart(bot))
		cre, cim := dre.Mul(sch.Q), dim.Mul(sch.Q)
		for i := range w.A {
			w.A[i] -= complex(cre.A[i], cim.A[i])
		}
	}
	x, err := sylv.TrSylvTC(sch.T, sch.T, -sigma, w)
	if err != nil {
		return err
	}
	copy(top, x.A)
	return nil
}

// splitKron splits an H̃3 iterate (n blocks of n+n²) into its
// column-stacked top n×n block and its bottom n³ block.
func splitKron[T float64 | complex128](v []T, n int) (top, bot []T) {
	n2 := n + n*n
	if len(v) != n*n2 {
		panic("assoc: H̃3 iterate length mismatch")
	}
	top = make([]T, n*n)
	bot = make([]T, n*n*n)
	for p := 0; p < n; p++ {
		copy(top[p*n:(p+1)*n], v[p*n2:p*n2+n])
		copy(bot[p*n*n:(p+1)*n*n], v[p*n2+n:(p+1)*n2])
	}
	return top, bot
}

// joinKron is the inverse of splitKron.
func joinKron[T float64 | complex128](top, bot []T, n int) []T {
	n2 := n + n*n
	v := make([]T, n*n2)
	for p := 0; p < n; p++ {
		copy(v[p*n2:p*n2+n], top[p*n:(p+1)*n])
		copy(v[p*n2+n:(p+1)*n2], bot[p*n*n:(p+1)*n*n])
	}
	return v
}

// SolveKronC solves (G1⊕G̃2 − σI)·z = v for complex σ, the resolvent
// of the H̃3 realization: v (length n·(n+n²), n column-stacked blocks)
// is mapped into Schur coordinates, advanced by one resolvent power and
// mapped back.
func (r *Realization) SolveKronC(sigma complex128, v []complex128) ([]complex128, error) {
	k, err := r.kronSchur()
	if err != nil {
		return nil, err
	}
	n, s2 := r.Sys.N, k.s3.Sum2()
	top, bot := splitKron(v, n)
	top, bot = s2.ToSchurC(top, 2), s2.ToSchurC(bot, 3)
	if err := k.stepC(r.ctx, sigma, top, bot); err != nil {
		return nil, err
	}
	return joinKron(s2.FromSchurC(top, 2), s2.FromSchurC(bot, 3), n), nil
}

// errNotSISO flags H3 paths that are implemented for single-input systems.
var errNotSISO = errors.New("assoc: third-order associated transform requires a SISO system")
