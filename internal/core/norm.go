package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"avtmor/internal/mat"
	"avtmor/internal/qldae"
	"avtmor/internal/solver"
)

// ReduceNORM is the classical Krylov NMOR baseline (NORM, Li & Pileggi
// DAC'03/TCAD'05): it moment-matches the multivariate transfer functions
// H2(s1,s2) and H3(s1,s2,s3) about (s0, …, s0) directly. Because every
// combination of per-axis moment indices generates a subspace vector, the
// candidate count grows as O(k1 + k2³ + k3⁴) — the "dimensionality curse"
// the associated transform removes.
//
// The generator sets below follow the published NORM moment spaces:
//
//	H1:  M1^{−(a+1)}·b                                      a < k1
//	H2:  M2^{−(c+1)}·[G2(h_a⊗h_b) + G2(h_b⊗h_a)]            a+b+c < k2
//	     M2^{−(c+1)}·[D1ᵢ·h_a terms]                        a+c   < k2
//	H3:  M3^{−(e+1)}·[G2(h_a⊗w) + G2(w⊗h_a)], M3^{−(e+1)}·D1·w
//	                                             a+deg(w)+e < k3
//	     M3^{−(e+1)}·G3(h_a⊗h_b⊗h_c)                        a+b+c+e < k3
//
// with Mr = G1 − r·s0·I and w ranging over the H2 state-moment generators.
func ReduceNORM(sys *qldae.System, opt Options) (*ROM, error) {
	return ReduceNORMContext(context.Background(), sys, opt)
}

// ReduceNORMContext is ReduceNORM with cooperative cancellation: the
// multivariate generator loops poll ctx per moment chain, which is what
// bounds NORM's O(k2³)/O(k3⁴) blow-up when the caller gives up.
func ReduceNORMContext(ctx context.Context, sys *qldae.System, opt Options) (*ROM, error) {
	start := time.Now() //avtmorlint:ignore detrom wall-clock feeds Stats.Build only, a build-report field that is never serialized; the numerics and the cache key never read it

	allocs0 := heapAllocs()
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if opt.K1 <= 0 && opt.K2 <= 0 && opt.K3 <= 0 {
		return nil, errors.New("core: at least one moment count must be positive")
	}
	n := sys.N
	m := sys.Inputs()
	// The r-fold shifted pencils G1 − r·s0·I share one solver-backed
	// cache, so the backend (dense vs sparse LU) follows opt.Solver just
	// as in the associated-transform path.
	sc := solver.NewShiftedCache(solver.Operand(sys.G1, sys.G1S), nil, solver.ByKind(opt.Solver))
	factor := func(r float64) (solver.Factorization, error) {
		f, err := sc.FactorCtx(ctx, -r*opt.S0)
		if err != nil {
			return nil, fmt.Errorf("core: NORM shift %g: %w", r*opt.S0, err)
		}
		// max(‖G1‖_max, |shift|) tracks the shifted pencil's scale.
		if scale := math.Max(sc.Scale(), math.Abs(r*opt.S0)); f.MinAbsPivot() < 1e-12*scale {
			return nil, fmt.Errorf("core: NORM shift %g is numerically singular (pivot ratio %.2g); expand at a non-DC point",
				r*opt.S0, f.MinAbsPivot()/scale)
		}
		return f, nil
	}
	m1, err := factor(1)
	if err != nil {
		return nil, err
	}
	var cols [][]float64

	// H1 chains h^i_a (kept unnormalized within a chain so the products
	// below carry consistent relative scale; each emitted candidate is
	// normalized by the final orthonormalization).
	kH1 := max(opt.K1, max(opt.K2, opt.K3))
	h := make([][][]float64, m)
	for i := 0; i < m; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cur := sys.B.Col(i)
		for a := 0; a < kH1; a++ {
			next := make([]float64, n)
			m1.Solve(next, cur)
			h[i] = append(h[i], next)
			cur = next
		}
	}
	for i := 0; i < m; i++ {
		for a := 0; a < opt.K1 && a < len(h[i]); a++ {
			cols = append(cols, mat.CopyVec(h[i][a]))
		}
	}

	// H2 multivariate moments. w-pool entries remember their total degree
	// for reuse by the H3 stage.
	type degVec struct {
		deg int
		v   []float64
	}
	var wPool []degVec
	if opt.K2 > 0 && (sys.G2 != nil || sys.D1 != nil) {
		m2, err := factor(2)
		if err != nil {
			return nil, err
		}
		// NORM matches the moments of H2(s1,s2) with respect to EVERY
		// frequency axis independently: index bounds a < k2, b < k2,
		// c < k2 rather than a total-degree budget — this per-axis
		// product is precisely the O(k2³) growth of §4.
		kk := max(opt.K2, opt.K3)
		for i := 0; i < m; i++ {
			for j := i; j < m; j++ {
				for a := 0; a < kk; a++ {
					if err := ctx.Err(); err != nil {
						return nil, err
					}
					for b := 0; b < kk; b++ {
						if sys.G2 == nil {
							break
						}
						if i == j && b < a {
							continue // (a,b) and (b,a) coincide for one input
						}
						g := make([]float64, n)
						sys.G2.QuadApply(g, h[i][a], h[j][b])
						tmp := make([]float64, n)
						sys.G2.QuadApply(tmp, h[j][b], h[i][a])
						mat.Axpy(1, tmp, g)
						cur := g
						for c := 0; c < kk; c++ {
							next := make([]float64, n)
							m2.Solve(next, cur)
							deg := max(a, max(b, c))
							wPool = append(wPool, degVec{deg: deg, v: next})
							if a < opt.K2 && b < opt.K2 && c < opt.K2 {
								cols = append(cols, mat.CopyVec(next))
							}
							cur = next
						}
					}
					// D1 cross terms.
					if sys.D1 == nil {
						continue
					}
					d := make([]float64, n)
					any := false
					tmp := make([]float64, n)
					if sys.D1[i] != nil {
						sys.D1[i].MulVec(tmp, h[j][a])
						mat.Axpy(1, tmp, d)
						any = true
					}
					if sys.D1[j] != nil {
						sys.D1[j].MulVec(tmp, h[i][a])
						mat.Axpy(1, tmp, d)
						any = true
					}
					if !any {
						continue
					}
					cur := d
					for c := 0; c < kk; c++ {
						next := make([]float64, n)
						m2.Solve(next, cur)
						wPool = append(wPool, degVec{deg: max(a, c), v: next})
						if a < opt.K2 && c < opt.K2 {
							cols = append(cols, mat.CopyVec(next))
						}
						cur = next
					}
				}
			}
		}
	}

	// H3 multivariate moments (SISO).
	if opt.K3 > 0 && m == 1 {
		m3, err := factor(3)
		if err != nil {
			return nil, err
		}
		if sys.G2 != nil || sys.D1 != nil {
			for _, w := range wPool {
				if w.deg >= opt.K3 {
					continue
				}
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				for a := 0; a < opt.K3; a++ {
					g := make([]float64, n)
					if sys.G2 != nil {
						sys.G2.QuadApply(g, h[0][a], w.v)
						tmp := make([]float64, n)
						sys.G2.QuadApply(tmp, w.v, h[0][a])
						mat.Axpy(1, tmp, g)
					}
					if sys.D1 != nil && sys.D1[0] != nil && a == 0 {
						tmp := make([]float64, n)
						sys.D1[0].MulVec(tmp, w.v)
						mat.Axpy(1, tmp, g)
					}
					cur := g
					for e := 0; e < opt.K3; e++ {
						next := make([]float64, n)
						m3.Solve(next, cur)
						cols = append(cols, mat.CopyVec(next))
						cur = next
					}
				}
			}
		}
		if sys.G3 != nil {
			for a := 0; a < opt.K3; a++ {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				for b := a; b < opt.K3; b++ {
					for c := b; c < opt.K3; c++ {
						g := make([]float64, n)
						sys.G3.TriApply(g, h[0][a], h[0][b], h[0][c])
						cur := g
						for e := 0; e < opt.K3; e++ {
							next := make([]float64, n)
							m3.Solve(next, cur)
							cols = append(cols, mat.CopyVec(next))
							cur = next
						}
					}
				}
			}
		}
	}
	// NORM as published performs no rank-revealing deflation — its ROM
	// order equals the generator count (the "ad hoc order choice" of §4).
	// Only numerically exact duplicates are dropped unless the caller set
	// an explicit tolerance.
	if opt.DropTol == 0 {
		opt.DropTol = 1e-14
	}
	rom, err := finish(ctx, sys, cols, opt, "norm", start)
	if err != nil {
		return nil, err
	}
	rom.fillSolverStats(sc.BackendName(), sc.Stats())
	rom.Stats.Allocs = heapAllocs() - allocs0
	return rom, nil
}
