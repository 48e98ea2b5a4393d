package assoc

import (
	"errors"
	"math/rand"
	"testing"

	"avtmor/internal/circuits"
	"avtmor/internal/kron"
	"avtmor/internal/lu"
	"avtmor/internal/mat"
	"avtmor/internal/qldae"
	"avtmor/internal/qr"
)

// Eq. (18) of the paper: the similarity transform that block-diagonalizes
// the realization of A2(H2). Solving the Sylvester equation
//
//	G1·Π + G2 = Π·(⊕²G1)
//
// (solvable when no eigenvalue of G1 equals a pairwise sum λi + λj)
// splits H2(s) into two decoupled subsystems,
//
//	H2(s) = (sI−G1)⁻¹·(D1·b − Π·b^{2⊗}) + Π·(sI−⊕²G1)⁻¹·b^{2⊗},
//
// whose Krylov chains span what the Eq.-(17) chain of H2Candidates
// spans. These tests keep that claim checked against the one H2 method
// the package ships.

// solvePi solves Eq. (18) densely through its vec form: with ⊕²G1 = K,
// (I⊗G1 − Kᵀ⊗I)·vec(Π) = −vec(G2), n³ unknowns.
func solvePi(sys *qldae.System) (*mat.Dense, error) {
	if sys.G2 == nil {
		return nil, errors.New("Eq. (18) needs a quadratic term")
	}
	n := sys.N
	k := kron.SumDense(sys.G1, sys.G1)
	op := kron.SumDense(k.T().Scale(-1), sys.G1)
	rhs := kron.Vec(sys.G2.Dense())
	mat.ScaleVec(-1, rhs)
	x, err := lu.Solve(op, rhs)
	if err != nil {
		return nil, err
	}
	return kron.Unvec(x, n, n*n), nil
}

// piResidual returns ‖G1·Π + G2 − Π·(⊕²G1)‖_max.
func piResidual(sys *qldae.System, pi *mat.Dense) float64 {
	r := sys.G1.Mul(pi).Plus(sys.G2.Dense()).Sub(pi.Mul(kron.SumDense(sys.G1, sys.G1)))
	return r.MaxAbs()
}

// decoupledCandidates returns the Krylov vectors of the two Eq.-(18)
// subsystems about s0 for input pair (0, 0): M^{−k}·(D1b − Π·b²) and
// Π·N^{−k}·b² for k = 1…k2, with M = G1 − s0·I and N = ⊕²G1 − s0·I.
func decoupledCandidates(t *testing.T, r *Realization, pi *mat.Dense, k2 int, s0 float64) [][]float64 {
	t.Helper()
	sys := r.Sys
	n := sys.N
	bt := r.Btilde2(0, 0)
	top, b2 := bt[:n], bt[n:]
	m := sys.G1.Clone()
	nk := kron.SumDense(sys.G1, sys.G1)
	for i := 0; i < n; i++ {
		m.Add(i, i, -s0)
	}
	for i := 0; i < n*n; i++ {
		nk.Add(i, i, -s0)
	}
	fm, err := lu.Factor(m)
	if err != nil {
		t.Fatal(err)
	}
	fn, err := lu.Factor(nk)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, n)
	pi.MulVec(x, b2)
	mat.ScaleVec(-1, x)
	mat.Axpy(1, top, x)
	w := mat.CopyVec(b2)
	var out [][]float64
	for k := 0; k < k2; k++ {
		fm.Solve(x, x)
		out = append(out, mat.CopyVec(x))
		fn.Solve(w, w)
		piw := make([]float64, n)
		pi.MulVec(piw, w)
		out = append(out, piw)
	}
	return out
}

// decoupledSystems are the Eq.-(18) inputs: random stable 6-state
// systems with and without D1, and §3.2's NTLCurrent at n = 8.
// NTLVoltage is not among them: its G1 is singular.
func decoupledSystems() []*qldae.System {
	rng := rand.New(rand.NewSource(21))
	return []*qldae.System{
		testSystem(rng, 6, true),
		testSystem(rng, 6, false),
		circuits.NTLCurrent(8).Sys,
	}
}

func TestSolvePiResidual(t *testing.T) {
	for i, sys := range decoupledSystems() {
		pi, err := solvePi(sys)
		if err != nil {
			t.Fatal(err)
		}
		scale := sys.G1.MaxAbs() * pi.MaxAbs()
		if res := piResidual(sys, pi); res > 1e-12*scale {
			t.Fatalf("system %d: Π residual %g (scale %g)", i, res, scale)
		}
	}
}

func TestSolvePiDiagonalizes(t *testing.T) {
	// With Π in hand, Eq. (18) says the transformed realization is block
	// diagonal: verify H2(s) = (sI−G1)⁻¹(D1b − Πb²) + Π(sI−⊕²G1)⁻¹b²
	// against the block-triangular evaluation at sample points.
	rng := rand.New(rand.NewSource(22))
	sys := testSystem(rng, 5, true)
	r, err := New(sys)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := solvePi(sys)
	if err != nil {
		t.Fatal(err)
	}
	n := sys.N
	bt := r.Btilde2(0, 0)
	top, b2 := bt[:n], bt[n:]
	for _, s := range []complex128{0.7, 0.2 + 1.1i} {
		want, err := r.EvalAssocH2(0, 0, s)
		if err != nil {
			t.Fatal(err)
		}
		// Subsystem 1: (sI−G1)⁻¹(top − Π·b²).
		seed := make([]float64, n)
		pi.MulVec(seed, b2)
		mat.ScaleVec(-1, seed)
		mat.Axpy(1, top, seed)
		f, err := r.shiftedCLU(s)
		if err != nil {
			t.Fatal(err)
		}
		x1 := mat.ToComplex(seed)
		f.Solve(x1, x1)
		for i := range x1 {
			x1[i] = -x1[i] // (sI−G1)⁻¹ = −(G1−sI)⁻¹
		}
		// Subsystem 2: Π·(sI−⊕²G1)⁻¹·b², through a dense LU of ⊕²G1 − sI.
		k := kron.SumDense(sys.G1, sys.G1).Complex()
		for d := 0; d < n*n; d++ {
			k.Set(d, d, k.At(d, d)-s)
		}
		w, err := lu.SolveC(k, mat.ToComplex(b2))
		if err != nil {
			t.Fatal(err)
		}
		got := make([]complex128, n)
		piC := pi.Complex()
		piC.MulVec(got, w)
		for i := range got {
			got[i] = x1[i] - got[i] // minus: (sI−⊕²G1)⁻¹ = −solver result
		}
		if d := cdiff(got, want); d > 1e-7*(1+mat.CNorm2(want)) {
			t.Fatalf("s=%v: decoupled H2 differs from block-triangular by %g", s, d)
		}
	}
}

// TestH2CandidatesDecoupledSpansSameSpace: every H2Candidates vector
// lies in the span of the two Eq.-(18) chains, which is why the
// package keeps only the Eq.-(17) chain. k2 = 2 keeps that span a
// proper subspace of every system's state space.
func TestH2CandidatesDecoupledSpansSameSpace(t *testing.T) {
	const k2 = 2
	for i, sys := range decoupledSystems() {
		r, err := New(sys)
		if err != nil {
			t.Fatal(err)
		}
		pi, err := solvePi(sys)
		if err != nil {
			t.Fatal(err)
		}
		for _, s0 := range []float64{0, 0.5} {
			chain, err := r.H2Candidates(k2, s0)
			if err != nil {
				t.Fatal(err)
			}
			if len(chain) == 0 {
				t.Fatalf("system %d, s0=%g: no H2 candidates", i, s0)
			}
			basis := qr.Orthonormalize(decoupledCandidates(t, r, pi, k2, s0), 1e-12)
			if basis.C >= sys.N {
				t.Fatalf("system %d: the decoupled span has dimension %d of %d", i, basis.C, sys.N)
			}
			for k, v := range chain {
				coef := make([]float64, basis.C)
				basis.MulVecT(coef, v)
				rec := make([]float64, len(v))
				basis.MulVec(rec, coef)
				mat.Axpy(-1, v, rec)
				if res := mat.Norm2(rec); res > 1e-6 {
					t.Fatalf("system %d, s0=%g: H2 candidate %d outside the decoupled span (residual %g)", i, s0, k, res)
				}
			}
		}
	}
}

// TestDecoupledFallsBackWithoutG2: H2CandidatesDecoupled forwards to
// H2Candidates, so a system without G2 still gets its D1-only
// candidates, and Eq. (18) has nothing to solve.
func TestDecoupledFallsBackWithoutG2(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	sys := testSystem(rng, 5, true)
	sys.G2 = nil
	r, err := New(sys)
	if err != nil {
		t.Fatal(err)
	}
	want, err := r.H2Candidates(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	cand, err := r.H2CandidatesDecoupled(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cand) == 0 || len(cand) != len(want) {
		t.Fatalf("%d candidates, H2Candidates gives %d; want the same nonzero count", len(cand), len(want))
	}
	for k := range want {
		for i := range want[k] {
			if cand[k][i] != want[k][i] {
				t.Fatalf("candidate %d differs from H2Candidates at %d", k, i)
			}
		}
	}
	if _, err := solvePi(sys); err == nil {
		t.Fatal("Eq. (18) without G2 must error")
	}
}
