package assoc

import (
	"math/cmplx"
	"math/rand"
	"testing"

	"avtmor/internal/kron"
	"avtmor/internal/mat"
	"avtmor/internal/qldae"
	"avtmor/internal/schur"
	"avtmor/internal/sparse"
	"avtmor/internal/volterra"
)

// testSystem builds a small random stable SISO QLDAE with G2 and D1.
func testSystem(rng *rand.Rand, n int, withD1 bool) *qldae.System {
	g2b := sparse.NewBuilder(n, n*n)
	for i := 0; i < 3*n; i++ {
		g2b.Add(rng.Intn(n), rng.Intn(n*n), 0.4*(2*rng.Float64()-1))
	}
	s := &qldae.System{
		N:  n,
		G1: mat.RandStable(rng, n, 0.4),
		G2: g2b.Build(),
		B:  mat.RandDense(rng, n, 1),
		L:  mat.RandDense(rng, 1, n),
	}
	if withD1 {
		s.D1 = []*mat.Dense{mat.RandDense(rng, n, n).Scale(0.3)}
	}
	return s
}

// BuildGt2Dense forms G̃2 explicitly. Exponential in memory (n+n²)²; test
// and diagnostic use only.
func BuildGt2Dense(sys *qldae.System) *mat.Dense {
	n := sys.N
	nn := n + n*n
	g := mat.NewDense(nn, nn)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			g.Set(i, j, sys.G1.At(i, j))
		}
	}
	if sys.G2 != nil {
		d := sys.G2.Dense()
		for i := 0; i < n; i++ {
			for j := 0; j < n*n; j++ {
				g.Set(i, n+j, d.At(i, j))
			}
		}
	}
	ks := kron.SumDense(sys.G1, sys.G1)
	for i := 0; i < n*n; i++ {
		for j := 0; j < n*n; j++ {
			g.Set(n+i, n+j, ks.At(i, j))
		}
	}
	return g
}

// pairedG1 returns a stable n×n G1 with ⌊n/2⌋ complex eigenvalue pairs,
// mildly coupled, so that its real Schur form has that many 2×2 blocks.
func pairedG1(rng *rand.Rand, n int) *mat.Dense {
	g := mat.NewDense(n, n)
	for i := 0; i+1 < n; i += 2 {
		re, im := -0.5-rng.Float64(), 0.5+rng.Float64()
		g.Set(i, i, re)
		g.Set(i+1, i+1, re)
		g.Set(i, i+1, im)
		g.Set(i+1, i, -im)
	}
	if n%2 == 1 {
		g.Set(n-1, n-1, -1-rng.Float64())
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				g.Add(i, j, 0.1*(2*rng.Float64()-1))
			}
		}
	}
	return g
}

// pairedSystem is testSystem with G1 from pairedG1.
func pairedSystem(rng *rand.Rand, n int, withD1 bool) *qldae.System {
	sys := testSystem(rng, n, withD1)
	sys.G1 = pairedG1(rng, n)
	return sys
}

// requirePairs fails unless the real Schur form of g has a 2×2 block,
// so that the complex-σ solves run their diagonalized 2×2 path.
func requirePairs(t *testing.T, g *mat.Dense) {
	t.Helper()
	sc, err := schur.Decompose(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range sc.Blocks() {
		if b[1] == 2 {
			return
		}
	}
	t.Fatalf("G1's real Schur form %v has no 2×2 block", sc.Blocks())
}

func cdiff(a, b []complex128) float64 {
	d := make([]complex128, len(a))
	for i := range a {
		d[i] = a[i] - b[i]
	}
	return mat.CNorm2(d)
}

// TestEvalAssocH2AgainstOracle: the random G1s of the first four trials
// have 2×2 Schur blocks as drawn; the last one's has two, beside a 1×1
// block.
func TestEvalAssocH2AgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 5; trial++ {
		var sys *qldae.System
		if trial < 4 {
			sys = testSystem(rng, 3+rng.Intn(4), trial%2 == 0)
		} else {
			sys = pairedSystem(rng, 5, true)
		}
		requirePairs(t, sys.G1)
		r, err := New(sys)
		if err != nil {
			t.Fatal(err)
		}
		o, err := volterra.NewOracle(sys)
		if err != nil {
			t.Fatal(err)
		}
		pf, err := o.AssocH2(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []complex128{0.9, 0.3 + 2i, -0.1 + 0.7i, 5} {
			got, err := r.EvalAssocH2(0, 0, s)
			if err != nil {
				t.Fatal(err)
			}
			want := pf.Eval(s)
			if d := cdiff(got, want); d > 1e-7*(1+mat.CNorm2(want)) {
				t.Fatalf("trial %d s=%v: realization vs oracle differ by %g", trial, s, d)
			}
		}
	}
}

// TestEvalAssocH3AgainstOracle: as TestEvalAssocH2AgainstOracle, the
// drawn G1s have 2×2 Schur blocks and the last trial's has two.
func TestEvalAssocH3AgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 4; trial++ {
		var sys *qldae.System
		if trial < 3 {
			sys = testSystem(rng, 3+rng.Intn(3), true)
		} else {
			sys = pairedSystem(rng, 5, true)
		}
		requirePairs(t, sys.G1)
		r, err := New(sys)
		if err != nil {
			t.Fatal(err)
		}
		o, err := volterra.NewOracle(sys)
		if err != nil {
			t.Fatal(err)
		}
		pf, err := o.AssocH3()
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []complex128{1.1, 0.4 + 1.3i, 3} {
			got, err := r.EvalAssocH3(s)
			if err != nil {
				t.Fatal(err)
			}
			want := pf.Eval(s)
			if d := cdiff(got, want); d > 1e-6*(1+mat.CNorm2(want)) {
				t.Fatalf("trial %d s=%v: A3(H3) realization vs oracle differ by %g", trial, s, d)
			}
		}
	}
}

func TestOracleResidueSumIsD1b(t *testing.T) {
	// h2(0,0) = D1·b — the identity behind the D1²b term of A3(H3).
	rng := rand.New(rand.NewSource(6))
	sys := testSystem(rng, 5, true)
	o, err := volterra.NewOracle(sys)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := o.AssocH2(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := pf.SumResidues()
	want := make([]float64, sys.N)
	sys.D1[0].MulVec(want, sys.B.Col(0))
	for i := range got {
		if cmplx.Abs(got[i]-complex(want[i], 0)) > 1e-7 {
			t.Fatalf("Σ residues component %d: %v vs D1b %v", i, got[i], want[i])
		}
	}
}

func TestDiagonalKernelAgainstExpm(t *testing.T) {
	// h2(t,t) = c̃2·e^{G̃2·t}·b̃2 (dense matrix exponential) must match the
	// inverse Laplace of the oracle PF: Σ res_m·e^{μ_m·t}.
	rng := rand.New(rand.NewSource(7))
	sys := testSystem(rng, 3, true)
	o, err := volterra.NewOracle(sys)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := o.AssocH2(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := New(sys)
	gd := BuildGt2Dense(sys)
	bt := r.Btilde2(0, 0)
	for _, tt := range []float64{0.1, 0.5, 1.5} {
		e := mat.Expm(gd.Clone().Scale(tt))
		full := make([]float64, len(bt))
		e.MulVec(full, bt)
		want := full[:sys.N]
		got := make([]complex128, sys.N)
		for m, mu := range pf.Poles {
			em := cmplx.Exp(mu * complex(tt, 0))
			for i, res := range pf.Res[m] {
				got[i] += res * em
			}
		}
		for i := range want {
			if cmplx.Abs(got[i]-complex(want[i], 0)) > 1e-7 {
				t.Fatalf("t=%v comp %d: PF %v vs expm %v", tt, i, got[i], want[i])
			}
		}
	}
}

// TestEvalAssocH3CubicAgainstOracle: the drawn n = 4 G1 has one 2×2
// Schur block, the last one; the n = 5 G1 has two, beside a 1×1 block.
func TestEvalAssocH3CubicAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, tc := range []struct {
		n  int
		g1 func(*rand.Rand, int) *mat.Dense
	}{
		{4, func(rng *rand.Rand, n int) *mat.Dense { return mat.RandStable(rng, n, 0.4) }},
		{5, pairedG1},
	} {
		n := tc.n
		g3b := sparse.NewBuilder(n, n*n*n)
		for i := 0; i < 2*n; i++ {
			g3b.Add(rng.Intn(n), rng.Intn(n*n*n), 0.3*(2*rng.Float64()-1))
		}
		sys := &qldae.System{
			N:  n,
			G1: tc.g1(rng, n),
			G3: g3b.Build(),
			B:  mat.RandDense(rng, n, 1),
			L:  mat.RandDense(rng, 1, n),
		}
		requirePairs(t, sys.G1)
		r, err := New(sys)
		if err != nil {
			t.Fatal(err)
		}
		o, err := volterra.NewOracle(sys)
		if err != nil {
			t.Fatal(err)
		}
		pf, err := o.AssocH3Cubic()
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []complex128{0.8, 0.2 + 1.1i} {
			got, err := r.EvalAssocH3Cubic(s)
			if err != nil {
				t.Fatal(err)
			}
			want := pf.Eval(s)
			if d := cdiff(got, want); d > 1e-7*(1+mat.CNorm2(want)) {
				t.Fatalf("n=%d s=%v: cubic A3(H3) differs from oracle by %g", n, s, d)
			}
		}
	}
}

func TestEvalH1MatchesVolterra(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sys := testSystem(rng, 6, false)
	r, _ := New(sys)
	s := 0.3 + 0.9i
	got, err := r.EvalH1(0, s)
	if err != nil {
		t.Fatal(err)
	}
	want, err := volterra.H1(sys, 0, s)
	if err != nil {
		t.Fatal(err)
	}
	if d := cdiff(got, want); d > 1e-10 {
		t.Fatalf("H1 mismatch %g", d)
	}
}
