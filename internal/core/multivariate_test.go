package core

import (
	"context"
	"math/rand"
	"testing"

	"avtmor/internal/lu"
	"avtmor/internal/mat"
	"avtmor/internal/volterra"
)

// multiH2OutErr evaluates the multivariate H2(s1,s2) of full model and ROM
// at a point and returns the relative output error.
func multiH2OutErr(t *testing.T, r *ROM, s1, s2 complex128) float64 {
	t.Helper()
	xf, err := volterra.H2(r.Full, 0, 0, s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	xr, err := volterra.H2(r.Sys, 0, 0, s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	return r.relOutErr(xf, xr)
}

// TestNORMMatchesMultivariateExactly pins down the theoretical contrast
// between the two methods: NORM's projection contains the multivariate
// H2 state moments, so its reduced H2(s1,s2) agrees to rounding accuracy
// near (s0,s0); the associated-transform ROM targets the single-s
// associated function instead and carries a small projection gap there.
func TestNORMMatchesMultivariateExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	sys := testSystem(rng, 14, true)
	opt := Options{K1: 4, K2: 3}
	nm, err := ReduceNORMContext(context.Background(), sys, opt)
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := complex(0.01, 0.008), complex(0.012, -0.006)
	if e := multiH2OutErr(t, nm, s1, s2); e > 1e-6 {
		t.Fatalf("NORM multivariate H2 near-error %g, want rounding level", e)
	}
	pr, err := ReduceContext(context.Background(), sys, opt)
	if err != nil {
		t.Fatal(err)
	}
	eNorm := multiH2OutErr(t, nm, s1, s2)
	eProp := multiH2OutErr(t, pr, s1, s2)
	if eProp > 0.5 {
		t.Fatalf("proposed multivariate H2 near-error %g out of expected band", eProp)
	}
	if eProp < eNorm {
		t.Fatalf("expected NORM (%g) to beat proposed (%g) on the multivariate metric it matches exactly", eNorm, eProp)
	}
	// On the associated metric the proposed ROM is accurate at a fraction
	// of the order.
	if eA, err := pr.H2Error(0, 0, complex(0.01, 0.008)); err != nil || eA > 2e-2 {
		t.Fatalf("proposed associated H2 error %g (%v)", eA, err)
	}
}

// TestAccuracyImprovesWithMoments verifies the convergence direction: more
// matched moments must shrink the associated-H2 near-field error.
func TestAccuracyImprovesWithMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	sys := testSystem(rng, 20, true)
	lo, err := ReduceContext(context.Background(), sys, Options{K1: 2, K2: 1})
	if err != nil {
		t.Fatal(err)
	}
	hi, err := ReduceContext(context.Background(), sys, Options{K1: 6, K2: 4, K3: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := complex(0.05, 0.04)
	elo, err := lo.H2Error(0, 0, s)
	if err != nil {
		t.Fatal(err)
	}
	ehi, err := hi.H2Error(0, 0, s)
	if err != nil {
		t.Fatal(err)
	}
	if ehi > elo {
		t.Fatalf("H2 error did not improve with moments: k-low %g vs k-high %g", elo, ehi)
	}
	e1lo, _ := lo.H1Error(0, complex(0.5, 0.3))
	e1hi, _ := hi.H1Error(0, complex(0.5, 0.3))
	if e1hi > e1lo {
		t.Fatalf("H1 mid-field error did not improve: %g vs %g", e1lo, e1hi)
	}
}

// TestProjectionBasisContainsKrylov sanity-checks that the first Krylov
// vector G1⁻¹b is reproduced by V·Vᵀ.
func TestProjectionBasisContainsKrylov(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	sys := testSystem(rng, 10, false)
	rom, err := ReduceContext(context.Background(), sys, Options{K1: 3, K2: 1})
	if err != nil {
		t.Fatal(err)
	}
	v := rom.V
	b := sys.B.Col(0)
	w, err := sparseSolve(sys.G1, b)
	if err != nil {
		t.Fatal(err)
	}
	coef := make([]float64, v.C)
	v.MulVecT(coef, w)
	rec := make([]float64, sys.N)
	v.MulVec(rec, coef)
	mat.Axpy(-1, w, rec)
	if mat.Norm2(rec) > 1e-8*mat.Norm2(w) {
		t.Fatalf("G1⁻¹b not in projection span: residual %g", mat.Norm2(rec))
	}
}

func sparseSolve(g *mat.Dense, b []float64) ([]float64, error) {
	return lu.Solve(g, b)
}
