package qldae

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"avtmor/internal/mat"
	"avtmor/internal/qr"
	"avtmor/internal/sparse"
)

// The dense-D1 transcriptions: the D1 terms of Eval, JacobianInto and
// JacobianCSRInto as the dense products they were before the CSR form.
// G2 and G3 go through p's packed forms where it has them, as Eval and
// JacobianInto do; the D1 terms are the subject.

func evalDenseD1(p *Prepared, dst, x, u []float64) {
	s := p.System
	s.MulG1(dst, x)
	switch {
	case p.g2 != nil:
		p.g2.AddApply(dst, 1, x)
	case s.G2 != nil:
		s.G2.QuadAddApply(dst, 1, x, x)
	}
	switch {
	case p.g3 != nil:
		p.g3.AddApply(dst, 1, x)
	case s.G3 != nil:
		cube := make([]float64, s.N)
		s.G3.CubeApply(cube, x)
		mat.Axpy(1, cube, dst)
	}
	tmp := make([]float64, s.N)
	for i, d := range s.D1 {
		if d == nil || u[i] == 0 {
			continue
		}
		d.MulVec(tmp, x)
		mat.Axpy(u[i], tmp, dst)
	}
	for r := range dst {
		row := s.B.Row(r)
		for i, ui := range u {
			if ui != 0 {
				dst[r] += row[i] * ui
			}
		}
	}
}

func jacobianDenseD1(p *Prepared, j *mat.Dense, x, u []float64) {
	s := p.System
	copy(j.A, s.G1.A)
	switch {
	case p.g2 != nil:
		p.g2.Jacobian(j.A, 1, x)
	case s.G2 != nil:
		s.G2.QuadJacobian(j.A, 1, x)
	}
	switch {
	case p.g3 != nil:
		p.g3.Jacobian(j.A, 1, x)
	case s.G3 != nil:
		s.G3.CubeJacobian(j.A, 1, x)
	}
	for i, d := range s.D1 {
		if d == nil || u[i] == 0 {
			continue
		}
		j.AddScaled(u[i], d)
	}
}

func jacobianCSRDenseD1(s *System, x, u []float64) *sparse.CSR {
	b := sparse.NewBuilder(s.N, s.N)
	for i := 0; i < s.N; i++ {
		for j, v := range s.G1.Row(i) {
			if v != 0 {
				b.Add(i, j, v)
			}
		}
	}
	if s.G2 != nil {
		s.G2.QuadJacobianVisit(1, x, b.Add)
	}
	if s.G3 != nil {
		s.G3.CubeJacobianVisit(1, x, b.Add)
	}
	for i, d := range s.D1 {
		if d == nil || u[i] == 0 {
			continue
		}
		for r := 0; r < d.R; r++ {
			for c, v := range d.Row(r) {
				if v != 0 {
					b.Add(r, c, u[i]*v)
				}
			}
		}
	}
	return b.Build()
}

func sameBitsVec(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// d1Systems returns a sparse system (a tridiagonal G1, 3n G2 entries
// and sparse D1 blocks, one nil as the netlist builder leaves inputs
// without a diode) and a ROM whose projected D1 blocks are dense.
func d1Systems(rng *rand.Rand) []namedSystem {
	const n = 30
	sp := randSystem(rng, n, 3)
	for i := range sp.G1.A {
		if r, c := i/n, i%n; r-c > 1 || c-r > 1 {
			sp.G1.A[i] = 0
		}
	}
	sp.D1[1] = nil
	for _, d := range []*mat.Dense{sp.D1[0], sp.D1[2]} {
		for i := range d.A {
			if rng.Intn(10) != 0 {
				d.A[i] = 0
			}
		}
	}
	full := randSystem(rng, n, 2)
	cols := make([][]float64, 8)
	for i := range cols {
		cols[i] = mat.RandVec(rng, n)
	}
	return []namedSystem{{"sparse-D1", sp}, {"dense-ROM-D1", full.Project(qr.Orthonormalize(cols, 1e-12))}}
}

type namedSystem struct {
	name string
	sys  *System
}

// TestD1CSRMatchesDense pins Eval, JacobianInto and JacobianCSRInto,
// through Prepare and through the System methods, to the dense-D1
// transcriptions bit for bit, with inputs that are exactly zero on
// some channels and states with signed zeros.
func TestD1CSRMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, ns := range d1Systems(rng) {
		s := ns.sys
		t.Run(ns.name, func(t *testing.T) {
			n, m := s.N, s.Inputs()
			p := s.Prepare()
			if packed := p.g2 != nil; packed != (ns.name == "dense-ROM-D1") {
				t.Fatalf("G2 packed = %v", packed)
			}
			for trial := 0; trial < 6; trial++ {
				x := mat.RandVec(rng, n)
				for i := range x {
					switch rng.Intn(5) {
					case 0:
						x[i] = 0
					case 1:
						x[i] = math.Copysign(0, -1)
					}
				}
				u := mat.RandVec(rng, m)
				u[trial%m] = 0
				want := make([]float64, n)
				evalDenseD1(p, want, x, u)
				got := make([]float64, n)
				p.Eval(got, x, u)
				sameBitsVec(t, "Prepared.Eval", got, want)

				wantJ := mat.NewDense(n, n)
				jacobianDenseD1(p, wantJ, x, u)
				gotJ := mat.NewDense(n, n)
				p.JacobianInto(gotJ, x, u)
				sameBitsVec(t, "Prepared.JacobianInto", gotJ.A, wantJ.A)

				wantS := jacobianCSRDenseD1(s, x, u)
				gotS := p.JacobianCSRInto(sparse.NewBuilder(n, n), x, u)
				if len(gotS.ColIdx) != len(wantS.ColIdx) {
					t.Fatalf("JacobianCSR holds %d entries, want %d", len(gotS.ColIdx), len(wantS.ColIdx))
				}
				for k := range wantS.ColIdx {
					if gotS.ColIdx[k] != wantS.ColIdx[k] {
						t.Fatalf("JacobianCSR entry %d in column %d, want %d", k, gotS.ColIdx[k], wantS.ColIdx[k])
					}
				}
				sameBitsVec(t, "JacobianCSR values", gotS.Val, wantS.Val)
			}
		})
	}
}

// TestOutputMatchesDense pins Prepared.Output to the dense L·x bit for
// bit: on a port-like L (four rows over 40 states, one of them all
// zero, and every other column zero) and on a dense one, at states with
// signed zeros, on L's nonzero columns too.
func TestOutputMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	const n = 40
	port := mat.NewDense(4, n)
	port.Set(0, 3, 1)
	port.Set(1, 17, -0.5)
	port.Set(1, 18, 2)
	port.Set(3, n-1, 1)
	for _, l := range []*mat.Dense{port, mat.RandDense(rng, 3, n)} {
		p := (&System{N: n, G1: mat.Eye(n), B: mat.RandDense(rng, n, 1), L: l}).Prepare()
		for trial := 0; trial < 20; trial++ {
			x := mat.RandVec(rng, n)
			for i := range x {
				switch rng.Intn(3) {
				case 0:
					x[i] = 0
				case 1:
					x[i] = math.Copysign(0, -1)
				}
			}
			want := make([]float64, l.R)
			l.MulVec(want, x)
			sameBitsVec(t, "Prepared.Output", p.Output(x), want)
		}
	}
}

// packedSystems returns a ROM whose G2 and G3 are packed, and a 6-state
// system with a tridiagonal G1 whose G2 and G3 pass the density rule
// while naming only monomials of x_0…x_3: by their nonzeros alone,
// columns 4 and 5 would lie off P, yet the packed Jacobian adds to them.
func packedSystems(rng *rand.Rand) []namedSystem {
	const n = 20
	s := randSystem(rng, n, 2)
	g3b := sparse.NewBuilder(n, n*n*n)
	for i := 0; i < 2*n; i++ {
		g3b.Add(rng.Intn(n), rng.Intn(n*n*n), 0.1*(2*rng.Float64()-1))
	}
	s.G3 = g3b.Build()
	cols := make([][]float64, 6)
	for i := range cols {
		cols[i] = mat.RandVec(rng, n)
	}
	rom := s.Project(qr.Orthonormalize(cols, 1e-12))

	const m = 6
	holed := randSystem(rng, m, 2)
	for i := range holed.G1.A {
		if r, c := i/m, i%m; r-c > 1 || c-r > 1 {
			holed.G1.A[i] = 0
		}
	}
	for i := range holed.D1 {
		holed.D1[i] = nil
	}
	g2b, g3b := sparse.NewBuilder(m, m*m), sparse.NewBuilder(m, m*m*m)
	for r := 0; r < m; r++ {
		for p := 0; p < 4; p++ {
			for q := 0; q < 4; q++ {
				g2b.Add(r, p*m+q, 0.3*(2*rng.Float64()-1))
				for w := 0; w < 4; w++ {
					g3b.Add(r, (p*m+q)*m+w, 0.1*(2*rng.Float64()-1))
				}
			}
		}
	}
	holed.G2, holed.G3 = g2b.Build(), g3b.Build()
	return []namedSystem{{"packed-ROM", rom}, {"packed-holed", holed}}
}

// TestNewtonIntoMatchesFullAssembly pins the pattern assembly of the
// replayed Newton matrix to the full one (JacobianInto, scale by −h/2,
// add the identity): the same bits on every cell of P, zeros on every
// other cell of the full assembly, and no write off P. The packed ROM
// shows that P covers every cell a packed Jacobian writes.
func TestNewtonIntoMatchesFullAssembly(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	systems := d1Systems(rng)
	cubic := randSystem(rng, 9, 2)
	g3b := sparse.NewBuilder(9, 9*9*9)
	for i := 0; i < 12; i++ {
		g3b.Add(rng.Intn(9), rng.Intn(9*9*9), 0.1*(2*rng.Float64()-1))
	}
	cubic.G3 = g3b.Build()
	systems = append(systems, namedSystem{"cubic", cubic})
	packed := packedSystems(rng)
	for _, ns := range append(systems, packed...) {
		s := ns.sys
		t.Run(ns.name, func(t *testing.T) {
			n, m := s.N, s.Inputs()
			p := s.Prepare()
			pat := p.NewtonPattern()
			if slices.ContainsFunc(packed, func(c namedSystem) bool { return c.sys == s }) {
				if p.g2 == nil || p.g3 == nil {
					t.Fatalf("packed G2 %v, packed G3 %v; want both", p.g2 != nil, p.g3 != nil)
				}
				if len(pat.ColIdx) != n*n {
					t.Fatalf("P holds %d cells; a packed Jacobian adds to all %d", len(pat.ColIdx), n*n)
				}
			}
			inP := make([]bool, n*n)
			for r := 0; r < n; r++ {
				for _, c := range pat.ColIdx[pat.RowPtr[r]:pat.RowPtr[r+1]] {
					inP[r*n+c] = true
				}
			}
			const h = 0.01
			for trial := 0; trial < 4; trial++ {
				x := mat.RandVec(rng, n)
				u := mat.RandVec(rng, m)
				u[trial%m] = 0
				full := mat.NewDense(n, n)
				p.JacobianInto(full, x, u)
				full.Scale(-0.5 * h)
				for i := 0; i < n; i++ {
					full.Add(i, i, 1)
				}
				got := mat.NewDense(n, n)
				for i := range got.A {
					got.A[i] = math.NaN()
				}
				p.NewtonInto(got, pat, x, u, h)
				for c, want := range full.A {
					switch {
					case inP[c] && math.Float64bits(got.A[c]) != math.Float64bits(want):
						t.Fatalf("cell (%d,%d): NewtonInto %v, full assembly %v", c/n, c%n, got.A[c], want)
					case !inP[c] && want != 0:
						t.Fatalf("cell (%d,%d) = %v lies off P", c/n, c%n, want)
					case !inP[c] && !math.IsNaN(got.A[c]):
						t.Fatalf("NewtonInto wrote cell (%d,%d) off P", c/n, c%n)
					}
				}
			}
		})
	}
}

// TestPrepareKeepsIndexedBelowRule: a G2 or G3 one entry short of the
// density rule (sparse.TestPackRule pins its edge) is not packed, so
// Eval and JacobianInto carry the indexed kernels' bits exactly.
func TestPrepareKeepsIndexedBelowRule(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	const n = 5
	for _, deg := range []int{2, 3} {
		cols, slots := n*n, n*(n+1)/2
		if deg == 3 {
			cols, slots = n*n*n, n*(n+1)*(n+2)/6
		}
		b := sparse.NewBuilder(n, cols)
		for k := 0; k < (n*slots+1)/2-1; k++ {
			b.Add(k%n, k/n, 0.3*(2*rng.Float64()-1))
		}
		s := randSystem(rng, n, 2)
		if deg == 3 {
			s.G3 = b.Build()
		} else {
			s.G2 = b.Build()
		}
		p := s.Prepare()
		if p.g2 != nil || p.g3 != nil {
			t.Fatalf("deg %d: a coupling below the rule was packed", deg)
		}
		x, u := mat.RandVec(rng, n), mat.RandVec(rng, 2)
		want := make([]float64, n)
		s.MulG1(want, x)
		s.G2.QuadAddApply(want, 1, x, x)
		wantJ := mat.NewDense(n, n)
		copy(wantJ.A, s.G1.A)
		s.G2.QuadJacobian(wantJ.A, 1, x)
		if s.G3 != nil {
			cube := make([]float64, n)
			s.G3.CubeApply(cube, x)
			mat.Axpy(1, cube, want)
			s.G3.CubeJacobian(wantJ.A, 1, x)
		}
		for i, d := range s.D1 {
			tmp := make([]float64, n)
			d.MulVec(tmp, x)
			mat.Axpy(u[i], tmp, want)
			wantJ.AddScaled(u[i], d)
		}
		for r := range want {
			for i, ui := range u {
				want[r] += s.B.At(r, i) * ui
			}
		}
		got := make([]float64, n)
		p.Eval(got, x, u)
		sameBitsVec(t, "Eval", got, want)
		gotJ := mat.NewDense(n, n)
		p.JacobianInto(gotJ, x, u)
		sameBitsVec(t, "JacobianInto", gotJ.A, wantJ.A)
	}
}
