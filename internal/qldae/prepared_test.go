package qldae

import (
	"math"
	"math/rand"
	"testing"

	"avtmor/internal/mat"
	"avtmor/internal/qr"
	"avtmor/internal/sparse"
)

// The dense-D1 transcriptions: the D1 terms of Eval, JacobianInto and
// JacobianCSRInto as the dense products they were before the CSR form.

func evalDenseD1(s *System, dst, x, u []float64) {
	s.MulG1(dst, x)
	if s.G2 != nil {
		s.G2.QuadAddApply(dst, 1, x, x)
	}
	if s.G3 != nil {
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

func jacobianDenseD1(s *System, j *mat.Dense, x, u []float64) {
	copy(j.A, s.G1.A)
	if s.G2 != nil {
		s.G2.QuadJacobian(j.A, 1, x)
	}
	if s.G3 != nil {
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
				evalDenseD1(s, want, x, u)
				got := make([]float64, n)
				p.Eval(got, x, u)
				sameBitsVec(t, "Prepared.Eval", got, want)

				wantJ := mat.NewDense(n, n)
				jacobianDenseD1(s, wantJ, x, u)
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

// TestNewtonIntoMatchesFullAssembly pins the pattern assembly of the
// replayed Newton matrix to the full one (JacobianInto, scale by −h/2,
// add the identity): the same bits on every cell of P, zeros on every
// other cell of the full assembly, and no write off P.
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
	for _, ns := range systems {
		s := ns.sys
		t.Run(ns.name, func(t *testing.T) {
			n, m := s.N, s.Inputs()
			p := s.Prepare()
			pat := p.NewtonPattern()
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
