package kron

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"avtmor/internal/circuits"
	"avtmor/internal/lu"
	"avtmor/internal/mat"
)

// symStart returns (Qᵀb)^{⊗3} for the first input column of w, the
// start tensor of both H3 chains.
func symStart(ss *SumSolver3, w *circuits.Workload) []float64 {
	bt := ss.Sum2().ToSchur(w.Sys.B.Col(0), 1)
	return VecKron(VecKron(bt, bt), bt)
}

// checkFullySymmetric fails unless every entry of the n³ tensor z equals
// its five index permutations exactly.
func checkFullySymmetric(t *testing.T, z []float64, n int) {
	t.Helper()
	at := func(a, b, c int) float64 { return z[(a*n+b)*n+c] }
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			for c := 0; c < n; c++ {
				v := at(a, b, c)
				if at(a, c, b) != v || at(b, a, c) != v || at(b, c, a) != v || at(c, a, b) != v || at(c, b, a) != v {
					t.Fatalf("T[%d,%d,%d] = %v is not invariant under index permutations", a, b, c, v)
				}
			}
		}
	}
}

// TestSym3MatchesSolveSchur runs two resolvent powers from (Qᵀb)^{⊗3}
// on the §3.1–§3.4 G1s at their expansion points through the general
// recurrence and the symmetric one. NTLVoltage(50)'s Schur form has
// 2×2 blocks, so the complexified path is covered.
func TestSym3MatchesSolveSchur(t *testing.T) {
	for _, tc := range []struct {
		name string
		w    *circuits.Workload
	}{
		{"s31", circuits.NTLVoltage(50)},
		{"s32", circuits.NTLCurrent(70)},
		{"s33", circuits.RFReceiver()},
		{"s34", circuits.Varistor()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ss, err := NewSumSolver3(tc.w.Sys.G1)
			if err != nil {
				t.Fatal(err)
			}
			n := ss.N()
			pairs := 0
			for _, b := range ss.Sum2().Schur().Blocks() {
				if b[1] == 2 {
					pairs++
				}
			}
			t.Logf("n = %d, %d 2×2 blocks", n, pairs)
			ref := symStart(ss, tc.w)
			got := mat.CopyVec(ref)
			sym := ss.Sym()
			for p := 1; p <= 2; p++ {
				if err := ss.SolveSchur(context.Background(), tc.w.S0, ref); err != nil {
					t.Fatal(err)
				}
				if err := sym.SolveSchur(context.Background(), tc.w.S0, got); err != nil {
					t.Fatal(err)
				}
				scale, diff := 0.0, 0.0
				for i := range ref {
					scale = math.Max(scale, math.Abs(ref[i]))
					diff = math.Max(diff, math.Abs(got[i]-ref[i]))
				}
				if rel := diff / scale; rel > 1e-12 {
					t.Fatalf("power %d: max relative difference %.3g", p, rel)
				} else {
					t.Logf("power %d: max relative difference %.3g", p, rel)
				}
				checkFullySymmetric(t, got, n)
			}
		})
	}
}

// TestSym3SolveSchurCAgainstDense checks the complex-σ symmetric solve
// against a dense LU of ⊕³A − σI on fully symmetric complex right-hand
// sides Σ c_k·x_k^{⊗3}. Every G1 has 2×2 Schur blocks, and n = 5 a 1×1
// block beside them, so both block solves run.
func TestSym3SolveSchurCAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{4, 5, 6} {
		a := rotationBlock(rng, n)
		ss, err := NewSumSolver3(a)
		if err != nil {
			t.Fatal(err)
		}
		pairs := 0
		for _, b := range ss.Sum2().Schur().Blocks() {
			if b[1] == 2 {
				pairs++
			}
		}
		if pairs != n/2 {
			t.Fatalf("n = %d: %d 2×2 Schur blocks, want %d", n, pairs, n/2)
		}
		nnn := n * n * n
		v := make([]complex128, nnn)
		for k := 0; k < 3; k++ {
			x := mat.RandVec(rng, n)
			c := complex(2*rng.Float64()-1, 2*rng.Float64()-1)
			for i, xi := range VecKron(VecKron(x, x), x) {
				v[i] += c * complex(xi, 0)
			}
		}
		sym := ss.Sym()
		for _, sigma := range []complex128{0.3 + 1.1i, -0.2 + 0.4i, 2i} {
			re := ss.Sum2().ToSchur(mat.RealPart(v), 3)
			im := ss.Sum2().ToSchur(mat.ImagPart(v), 3)
			if err := sym.SolveSchurC(context.Background(), sigma, re, im); err != nil {
				t.Fatal(err)
			}
			checkFullySymmetric(t, re, n)
			checkFullySymmetric(t, im, n)
			gotRe, gotIm := ss.Sum2().FromSchur(re, 3), ss.Sum2().FromSchur(im, 3)
			big := SumDense(a, SumDense(a, a)).Complex()
			for i := 0; i < nnn; i++ {
				big.Set(i, i, big.At(i, i)-sigma)
			}
			want, err := lu.SolveC(big, v)
			if err != nil {
				t.Fatal(err)
			}
			d := make([]complex128, nnn)
			for i := range d {
				d[i] = complex(gotRe[i], gotIm[i]) - want[i]
			}
			if rel := mat.CNorm2(d) / mat.CNorm2(want); rel > 1e-12 {
				t.Fatalf("n = %d, σ = %v: complex symmetric solve differs from dense LU by %.3g relative", n, sigma, rel)
			}
		}
	}
}

// TestSym3Allocs pins that one symmetric power allocates a number of
// times that does not depend on n: the slab solves run in the chain's
// workspace.
func TestSym3Allocs(t *testing.T) {
	var counts []float64
	for _, n := range []int{9, 21} {
		rng := rand.New(rand.NewSource(int64(n)))
		a := mat.RandDense(rng, n, n)
		for i := 0; i < n; i++ {
			a.Add(i, i, -float64(n))
		}
		ss, err := NewSumSolver3(a)
		if err != nil {
			t.Fatal(err)
		}
		if len(ss.Sum2().Schur().Blocks()) == n {
			t.Fatalf("n = %d: no 2×2 block to exercise", n)
		}
		x := mat.RandVec(rng, n)
		z := VecKron(VecKron(x, x), x)
		sym := ss.Sym()
		ctx := context.Background()
		counts = append(counts, testing.AllocsPerRun(3, func() {
			if err := sym.SolveSchur(ctx, 0.5, z); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if counts[0] != counts[1] {
		t.Fatalf("allocations per power depend on n: %v", counts)
	}
}
