package assoc

import (
	"math/cmplx"
	"math/rand"
	"testing"

	"avtmor/internal/kron"
	"avtmor/internal/lu"
	"avtmor/internal/mat"
	"avtmor/internal/qldae"
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

func cdiff(a, b []complex128) float64 {
	d := make([]complex128, len(a))
	for i := range a {
		d[i] = a[i] - b[i]
	}
	return mat.CNorm2(d)
}

func TestGt2SolveComplexAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 3
	sys := testSystem(rng, n, true)
	r, err := New(sys)
	if err != nil {
		t.Fatal(err)
	}
	gd := BuildGt2Dense(sys)
	nn := n + n*n
	tau := 0.2 + 1.4i
	rhs := make([]complex128, nn)
	for i := range rhs {
		rhs[i] = complex(2*rng.Float64()-1, 2*rng.Float64()-1)
	}
	got, err := r.gt2.SolveShiftedC(tau, rhs)
	if err != nil {
		t.Fatal(err)
	}
	// Dense residual: (G̃2 − τI)·got − rhs.
	res := make([]complex128, nn)
	gd.Complex().MulVec(res, got)
	for i := range res {
		res[i] -= tau*got[i] + rhs[i]
	}
	if mat.CNorm2(res) > 1e-8 {
		t.Fatalf("complex G̃2 residual %g", mat.CNorm2(res))
	}
}

func TestSolveKronAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 3
	sys := testSystem(rng, n, true)
	r, err := New(sys)
	if err != nil {
		t.Fatal(err)
	}
	gd := BuildGt2Dense(sys)
	big := kron.SumDense(sys.G1, gd) // G1 ⊕ G̃2
	nn := big.R
	sigma := 0.15 + 0.8i
	v := make([]complex128, nn)
	for i := range v {
		v[i] = complex(2*rng.Float64()-1, 2*rng.Float64()-1)
	}
	got, err := r.SolveKronC(sigma, v)
	if err != nil {
		t.Fatal(err)
	}
	shifted := big.Complex()
	for i := 0; i < nn; i++ {
		shifted.Set(i, i, shifted.At(i, i)-sigma)
	}
	want, err := lu.SolveC(shifted, v)
	if err != nil {
		t.Fatal(err)
	}
	if d := cdiff(got, want); d > 1e-7*(1+mat.CNorm2(want)) {
		t.Fatalf("G1⊕G̃2 solve differs from dense by %g", d)
	}
}

func TestEvalAssocH2AgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 4; trial++ {
		n := 3 + rng.Intn(4)
		sys := testSystem(rng, n, trial%2 == 0)
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

func TestEvalAssocH3AgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 3; trial++ {
		n := 3 + rng.Intn(3)
		sys := testSystem(rng, n, true)
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

func TestEvalAssocH3CubicAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 4
	g3b := sparse.NewBuilder(n, n*n*n)
	for i := 0; i < 2*n; i++ {
		g3b.Add(rng.Intn(n), rng.Intn(n*n*n), 0.3*(2*rng.Float64()-1))
	}
	sys := &qldae.System{
		N:  n,
		G1: mat.RandStable(rng, n, 0.4),
		G3: g3b.Build(),
		B:  mat.RandDense(rng, n, 1),
		L:  mat.RandDense(rng, 1, n),
	}
	r, err := New(sys)
	if err != nil {
		t.Fatal(err)
	}
	s3, err := kron.NewSumSolver3(sys.G1)
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
		got, err := r.EvalAssocH3Cubic(s3, s)
		if err != nil {
			t.Fatal(err)
		}
		want := pf.Eval(s)
		if d := cdiff(got, want); d > 1e-7*(1+mat.CNorm2(want)) {
			t.Fatalf("s=%v: cubic A3(H3) differs from oracle by %g", s, d)
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
