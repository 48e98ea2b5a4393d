package assoc

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"avtmor/internal/circuits"
	"avtmor/internal/lu"
	"avtmor/internal/mat"
	"avtmor/internal/netlist"
	"avtmor/internal/qldae"
	"avtmor/internal/qr"
)

// twoInputSystem is testSystem with a second input column and D1 term.
func twoInputSystem(rng *rand.Rand, n int) *qldae.System {
	sys := testSystem(rng, n, true)
	sys.B = mat.RandDense(rng, n, 2)
	sys.D1 = append(sys.D1, mat.RandDense(rng, n, n).Scale(0.3))
	return sys
}

// TestH2OpAgainstDense applies the Schur-coordinate H2 operator to
// [f; (Q⊗Q)ᵀ·g] for a symmetric g and compares [x; (Q⊗Q)·ŵ] with a
// dense solve of (G̃2 − s0·I)·z = [f; g].
func TestH2OpAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, tc := range []struct {
		name string
		sys  *qldae.System
	}{
		{"one-input", testSystem(rng, 5, true)},
		{"two-input", twoInputSystem(rng, 6)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := tc.sys
			n, nn := sys.N, sys.N+sys.N*sys.N
			r, err := New(sys)
			if err != nil {
				t.Fatal(err)
			}
			const s0 = 0.3
			op, err := r.newH2Op(s0)
			if err != nil {
				t.Fatal(err)
			}
			rhs := mat.RandVec(rng, nn)
			for i := 0; i < n; i++ {
				for j := 0; j < i; j++ {
					rhs[n+i*n+j] = rhs[n+j*n+i]
				}
			}
			src := append(mat.CopyVec(rhs[:n]), op.s2.ToSchur(rhs[n:], 2)...)
			dst := make([]float64, nn)
			op.ApplyBatch([][]float64{dst}, [][]float64{src})
			if op.err != nil {
				t.Fatal(op.err)
			}
			got := append(dst[:n:n], op.s2.FromSchur(dst[n:], 2)...)
			shifted := BuildGt2Dense(sys)
			for i := 0; i < nn; i++ {
				shifted.Add(i, i, -s0)
			}
			want, err := lu.Solve(shifted, rhs)
			if err != nil {
				t.Fatal(err)
			}
			diff := make([]float64, nn)
			mat.SubVec(diff, got, want)
			if d := mat.Norm2(diff); d > 1e-10*(1+mat.Norm2(want)) {
				t.Fatalf("Schur-coordinate H2 operator differs from the dense solve by %g", d)
			}
		})
	}
}

// origH2Candidates is the original-coordinate H2 chain the Schur-
// coordinate one replaced: block Arnoldi on (G̃2 − s0·I)⁻¹ whose ⊕²G1
// solves map in and out of Schur coordinates through
// kron.SumSolver2.Solve.
func origH2Candidates(t *testing.T, r *Realization, k2 int, s0 float64) [][]float64 {
	t.Helper()
	sys := r.Sys
	n := sys.N
	s2, err := r.Sum2()
	if err != nil {
		t.Fatal(err)
	}
	f, err := r.shiftedLU(s0)
	if err != nil {
		t.Fatal(err)
	}
	apply := func(dst, src []float64) {
		w, err := s2.Solve(s0, src[n:])
		if err != nil {
			t.Fatal(err)
		}
		top := mat.CopyVec(src[:n])
		if sys.G2 != nil {
			sys.G2.AddMulVec(top, -1, w)
		}
		f.Solve(top, top)
		copy(dst[:n], top)
		copy(dst[n:], w)
	}
	var start [][]float64
	for i := 0; i < sys.Inputs(); i++ {
		for j := i; j < sys.Inputs(); j++ {
			bt := r.Btilde2(i, j)
			if mat.Norm2(bt) == 0 {
				continue
			}
			z := make([]float64, n+n*n)
			apply(z, bt)
			start = append(start, z)
		}
	}
	applyBatch := func(dst, src [][]float64) {
		for c := range dst {
			apply(dst[c], src[c])
		}
	}
	var out [][]float64
	for _, col := range qr.Krylov(applyBatch, start, k2, 1e-10) {
		top := mat.CopyVec(col[:n])
		if n2 := mat.Norm2(top); n2 > 1e-14 {
			mat.ScaleVec(1/n2, top)
			out = append(out, top)
		}
	}
	return out
}

// sinMaxAngle bounds the sine of the largest principal angle between
// span(a) and span(b) by ‖(I − UUᵀ)·V‖_F over orthonormal bases U, V,
// taken in both directions.
func sinMaxAngle(a, b [][]float64) float64 {
	ua, ub := qr.Orthonormalize(a, 1e-12), qr.Orthonormalize(b, 1e-12)
	if ua.C != ub.C {
		return 1
	}
	worst := 0.0
	for _, p := range [][2]*mat.Dense{{ua, ub}, {ub, ua}} {
		u, v := p[0], p[1]
		ss := 0.0
		for c := 0; c < v.C; c++ {
			col := v.Col(c)
			coef := make([]float64, u.C)
			u.MulVecT(coef, col)
			rec := make([]float64, len(col))
			u.MulVec(rec, coef)
			mat.Axpy(-1, col, rec)
			nr := mat.Norm2(rec)
			ss += nr * nr
		}
		worst = max(worst, ss)
	}
	return math.Sqrt(worst)
}

// ladderSystem builds a stages-stage diode ladder like the serve
// workloads' requests.
func ladderSystem(t *testing.T, stages int) *qldae.System {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(stages)))
	jit := func(v float64) float64 { return v * (1 + 0.2*(2*rng.Float64()-1)) }
	var b strings.Builder
	b.WriteString("I1 0 n1 IN0 1\n")
	for k := 1; k <= stages; k++ {
		fmt.Fprintf(&b, "C%d n%d 0 %.6g\nR%d n%d 0 %.6g\nD%d n%d 0 %.6g 0.5\n", k, k, jit(1), k, k, jit(1), k, k, jit(0.05))
		if k < stages {
			fmt.Fprintf(&b, "RS%d n%d n%d %.6g\n", k, k, k+1, jit(1))
		}
	}
	b.WriteString(".out n1\n")
	c, err := netlist.Parse(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestH2CandidatesMatchOriginalCoordinates compares the H2 candidate
// spans of the Schur-coordinate chain and the original-coordinate one on
// §3.3's receiver (three input pairs) and on a 20-stage diode ladder.
func TestH2CandidatesMatchOriginalCoordinates(t *testing.T) {
	rf := circuits.RFReceiver()
	for _, tc := range []struct {
		name string
		sys  *qldae.System
		k2   int
		s0   float64
	}{
		{"s33", rf.Sys, 2, rf.S0},
		{"ladder-20", ladderSystem(t, 20), 2, 0.4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := New(tc.sys)
			if err != nil {
				t.Fatal(err)
			}
			got, err := r.H2Candidates(tc.k2, tc.s0)
			if err != nil {
				t.Fatal(err)
			}
			want := origH2Candidates(t, r, tc.k2, tc.s0)
			if len(got) != len(want) {
				t.Fatalf("%d candidates, original-coordinate chain gives %d", len(got), len(want))
			}
			s := sinMaxAngle(got, want)
			t.Logf("%d candidates, sin of the largest principal angle ≤ %.3g", len(got), s)
			if s > 1e-8 {
				t.Fatalf("candidate spans differ: sin θ_max ≤ %.3g", s)
			}
		})
	}
}
