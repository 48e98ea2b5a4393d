package qldae

import (
	"math"
	"math/rand"
	"testing"

	"avtmor/internal/kron"
	"avtmor/internal/mat"
	"avtmor/internal/qr"
	"avtmor/internal/sparse"
)

// randSystem builds a random stable QLDAE with m inputs, with quadratic
// and bilinear terms.
func randSystem(rng *rand.Rand, n, m int) *System {
	g2b := sparse.NewBuilder(n, n*n)
	for i := 0; i < 3*n; i++ {
		p, q := rng.Intn(n), rng.Intn(n)
		g2b.Add(rng.Intn(n), p*n+q, 0.3*(2*rng.Float64()-1))
	}
	d1 := make([]*mat.Dense, m)
	for i := range d1 {
		d1[i] = mat.RandDense(rng, n, n).Scale(0.2)
	}
	return &System{
		N:  n,
		G1: mat.RandStable(rng, n, 0.5),
		G2: g2b.Build(),
		D1: d1,
		B:  mat.RandDense(rng, n, m),
		L:  mat.RandDense(rng, 1, n),
	}
}

func TestValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := randSystem(rng, 6, 2)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := *s
	bad.B = mat.NewDense(5, 2)
	if bad.Validate() == nil {
		t.Fatal("expected B shape error")
	}
	bad2 := *s
	bad2.D1 = bad2.D1[:1]
	if bad2.Validate() == nil {
		t.Fatal("expected D1 count error")
	}
}

func TestEvalAgainstExplicitKron(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n, m := 7, 2
	s := randSystem(rng, n, m)
	x := mat.RandVec(rng, n)
	u := mat.RandVec(rng, m)
	got := make([]float64, n)
	s.Prepare().Eval(got, x, u)
	// Explicit: G1x + G2(x⊗x) + D1_i x u_i + B u.
	want := make([]float64, n)
	s.G1.MulVec(want, x)
	xx := kron.VecKron(x, x)
	g2x := make([]float64, n)
	s.G2.MulVec(g2x, xx)
	mat.Axpy(1, g2x, want)
	tmp := make([]float64, n)
	for i := 0; i < m; i++ {
		s.D1[i].MulVec(tmp, x)
		mat.Axpy(u[i], tmp, want)
	}
	s.B.MulVec(tmp, u)
	mat.Axpy(1, tmp, want)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("Eval mismatch at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

// TestEvalMatchesDenseColumnOrder pins Eval bit for bit to a plain
// transcription of its earlier form: G1 through the dense matrix, and
// B·u accumulated one input column at a time over every row. The
// CSR-mirror product and the B·u over B's nonzeros must reproduce it
// exactly, with inputs that are zero or not, for a dense random B and
// for a port-like one: a few nonzero rows and an all-zero column.
func TestEvalMatchesDenseColumnOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n, m := 7, 3
	s := randSystem(rng, n, m)
	g3b := sparse.NewBuilder(n, n*n*n)
	for i := 0; i < n; i++ {
		g3b.Add(rng.Intn(n), rng.Intn(n*n*n), 0.1*(2*rng.Float64()-1))
	}
	s.G3 = g3b.Build()
	s.G1S = sparse.FromDense(s.G1)
	ports := mat.NewDense(n, m)
	ports.Set(0, 0, 1)
	ports.Set(n-1, 1, -0.5)
	ports.Set(2, 1, 2)
	got := make([]float64, n)
	want := make([]float64, n)
	tmp := make([]float64, n)
	for _, b := range []*mat.Dense{s.B, ports} {
		s.B = b
		for trial := 0; trial < 6; trial++ {
			x := mat.RandVec(rng, n)
			u := mat.RandVec(rng, m)
			u[trial%m] = 0
			s.Prepare().Eval(got, x, u)
			s.G1.MulVec(want, x)
			s.G2.QuadAddApply(want, 1, x, x)
			s.G3.CubeApply(tmp, x)
			mat.Axpy(1, tmp, want)
			for i, d := range s.D1 {
				if u[i] != 0 {
					d.MulVec(tmp, x)
					mat.Axpy(u[i], tmp, want)
				}
			}
			for i := 0; i < m; i++ {
				if u[i] == 0 {
					continue
				}
				for r := 0; r < n; r++ {
					want[r] += s.B.At(r, i) * u[i]
				}
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("B %v, trial %d: Eval[%d] = %v, transcription %v", b.A, trial, i, got[i], want[i])
				}
			}
		}
	}
}

// jacobian returns ∂RHS/∂x at (x, u) in a new dense matrix.
func jacobian(s *System, x, u []float64) *mat.Dense {
	j := mat.NewDense(s.N, s.N)
	s.Prepare().JacobianInto(j, x, u)
	return j
}

// TestJacobianIntoOverwrites: JacobianInto must overwrite a dirty
// buffer completely, from the dense G1 or from a CSR-only G1S alike.
func TestJacobianIntoOverwrites(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n, m := 6, 2
	s := randSystem(rng, n, m)
	x := mat.RandVec(rng, n)
	u := mat.RandVec(rng, m)
	want := jacobian(s, x, u)
	csrOnly := *s
	csrOnly.G1S, csrOnly.G1 = sparse.FromDense(s.G1), nil
	for _, sys := range []*System{s, &csrOnly} {
		j := mat.NewDense(n, n)
		for i := range j.A {
			j.A[i] = math.NaN()
		}
		sys.Prepare().JacobianInto(j, x, u)
		for i, v := range want.A {
			if math.Float64bits(j.A[i]) != math.Float64bits(v) {
				t.Fatalf("entry %d: JacobianInto %v into a dirty buffer, %v into a zero one (CSR-only %v)", i, j.A[i], v, sys.G1 == nil)
			}
		}
	}
}

func TestJacobianFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n, m := 6, 2
	s := randSystem(rng, n, m)
	// Add a cubic term too.
	g3b := sparse.NewBuilder(n, n*n*n)
	for i := 0; i < n; i++ {
		g3b.Add(rng.Intn(n), rng.Intn(n*n*n), 0.1*(2*rng.Float64()-1))
	}
	s.G3 = g3b.Build()
	x := mat.RandVec(rng, n)
	u := mat.RandVec(rng, m)
	jac := jacobian(s, x, u)
	const h = 1e-6
	p := s.Prepare()
	f0 := make([]float64, n)
	p.Eval(f0, x, u)
	fp := make([]float64, n)
	for j := 0; j < n; j++ {
		xp := mat.CopyVec(x)
		xp[j] += h
		p.Eval(fp, xp, u)
		for i := 0; i < n; i++ {
			fd := (fp[i] - f0[i]) / h
			if math.Abs(fd-jac.At(i, j)) > 1e-4*(1+math.Abs(fd)) {
				t.Fatalf("Jacobian (%d,%d): fd %v vs %v", i, j, fd, jac.At(i, j))
			}
		}
	}
}

func TestProjectGalerkinConsistency(t *testing.T) {
	// For x = V·x̂ the reduced RHS must equal Vᵀ·RHS(V·x̂): exactness of
	// Galerkin projection on the reduced manifold.
	rng := rand.New(rand.NewSource(6))
	n, m, q := 10, 2, 4
	s := randSystem(rng, n, m)
	// Add a cubic term to exercise projectCube.
	g3b := sparse.NewBuilder(n, n*n*n)
	for i := 0; i < 2*n; i++ {
		g3b.Add(rng.Intn(n), rng.Intn(n*n*n), 0.05*(2*rng.Float64()-1))
	}
	s.G3 = g3b.Build()
	cols := make([][]float64, q)
	for i := range cols {
		cols[i] = mat.RandVec(rng, n)
	}
	v := qr.Orthonormalize(cols, 1e-12)
	rom := s.Project(v)
	if err := rom.Validate(); err != nil {
		t.Fatal(err)
	}
	xhat := mat.RandVec(rng, q)
	u := mat.RandVec(rng, m)
	// Reduced RHS.
	rhat := make([]float64, q)
	rom.Prepare().Eval(rhat, xhat, u)
	// Vᵀ·RHS(V·x̂).
	x := make([]float64, n)
	v.MulVec(x, xhat)
	rfull := make([]float64, n)
	s.Prepare().Eval(rfull, x, u)
	want := make([]float64, q)
	v.MulVecT(want, rfull)
	for i := range want {
		if math.Abs(rhat[i]-want[i]) > 1e-9 {
			t.Fatalf("Galerkin mismatch at %d: %v vs %v", i, rhat[i], want[i])
		}
	}
	// Output map consistency: L̂·x̂ = L·V·x̂.
	yhat := rom.Prepare().Output(xhat)
	y := s.Prepare().Output(x)
	if math.Abs(yhat[0]-y[0]) > 1e-10 {
		t.Fatalf("output mismatch: %v vs %v", yhat[0], y[0])
	}
}

func TestProjectIdentityBasis(t *testing.T) {
	// Projecting with V = I must reproduce the system exactly.
	rng := rand.New(rand.NewSource(7))
	n := 6
	s := randSystem(rng, n, 1)
	rom := s.Project(mat.Eye(n))
	x := mat.RandVec(rng, n)
	u := []float64{0.3}
	a := make([]float64, n)
	b := make([]float64, n)
	s.Prepare().Eval(a, x, u)
	rom.Prepare().Eval(b, x, u)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-10 {
			t.Fatalf("identity projection mismatch at %d", i)
		}
	}
}

// TestProjectFlushesSubnormals: a projection whose products underflow
// returns exact zeros there and, everywhere else, the bits of the
// unflushed products.
func TestProjectFlushesSubnormals(t *testing.T) {
	g1 := mat.FromRows([][]float64{{-1, 1e-150, 0}, {0.5, -2, 0}, {0, 0.3, -1}})
	g2 := sparse.NewBuilder(3, 9)
	g2.Add(0, 0, 0.7)
	g2.Add(0, 1*3+2, 1e-150)
	g3 := sparse.NewBuilder(3, 27)
	g3.Add(0, 0, 0.2)
	g3.Add(0, 1*9+2*3+2, 1e-150)
	s := &System{
		N: 3, G1: g1, G2: g2.Build(), G3: g3.Build(), D1: []*mat.Dense{g1.Clone()},
		B: mat.FromRows([][]float64{{1}, {1e-150}, {0}}),
		L: mat.FromRows([][]float64{{1, -1e-150, 0}}),
	}
	// The second basis vector's 1e-160 component carries every product
	// of a 1e-150 entry down to about 1e-310, below 0x1p-1022.
	v := mat.FromRows([][]float64{{1, 0}, {0, 1e-160}, {0, 1}})
	vt := v.T()
	rom := s.Project(v)
	for _, c := range []struct {
		name     string
		raw, got *mat.Dense
		csr      bool // got is a CSR's dense image: no zero keeps its sign
	}{
		{"G1", vt.Mul(g1).Mul(v), rom.G1, false},
		{"D1", vt.Mul(s.D1[0]).Mul(v), rom.D1[0], false},
		{"B", vt.Mul(s.B), rom.B, false},
		{"L", s.L.Mul(v), rom.L, false},
		{"G2", projectQuad(s.G2, v), rom.G2.Dense(), true},
		{"G3", projectCube(s.G3, v), rom.G3.Dense(), true},
	} {
		flushed, kept := 0, 0
		for i, x := range c.raw.A {
			want := x
			if x != 0 && math.Abs(x) < 0x1p-1022 {
				want = 0
				flushed++
			} else if x != 0 {
				kept++
			}
			if c.csr && want == 0 {
				want = 0
			}
			if math.Float64bits(c.got.A[i]) != math.Float64bits(want) {
				t.Errorf("%s entry %d: got %v, want %v (unflushed %v)", c.name, i, c.got.A[i], want, x)
			}
		}
		if flushed == 0 || kept == 0 {
			t.Errorf("%s: %d subnormal and %d normal products; the case must have both", c.name, flushed, kept)
		}
	}
}

func TestOutputShape(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	s := randSystem(rng, 5, 1)
	s.L = mat.RandDense(rng, 3, 5)
	y := s.Prepare().Output(mat.RandVec(rng, 5))
	if len(y) != 3 {
		t.Fatalf("output length %d", len(y))
	}
	if s.Outputs() != 3 || s.Inputs() != 1 {
		t.Fatal("dims wrong")
	}
}
