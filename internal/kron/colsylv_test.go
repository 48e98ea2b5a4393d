package kron

import (
	"math/rand"
	"testing"

	"avtmor/internal/lu"
	"avtmor/internal/mat"
	"avtmor/internal/schur"
)

// denseShiftedSolver adapts a dense matrix to ShiftedSolver via LU (test
// double for the structured operators).
type denseShiftedSolver struct{ m *mat.Dense }

func (d denseShiftedSolver) Dim() int { return d.m.R }

func (d denseShiftedSolver) SolveShifted(tau float64, rhs []float64) ([]float64, error) {
	s := d.m.Clone()
	for i := 0; i < s.R; i++ {
		s.Add(i, i, -tau)
	}
	return lu.Solve(s, rhs)
}

func (d denseShiftedSolver) SolveShiftedC(tau complex128, rhs []complex128) ([]complex128, error) {
	f, err := lu.ShiftedReal(d.m, -tau)
	if err != nil {
		return nil, err
	}
	out := make([]complex128, len(rhs))
	f.Solve(out, rhs)
	return out, nil
}

func TestColumnSylvesterAgainstDense(t *testing.T) {
	// Solve L·X + X·Aᵀ − σX = V with a dense L and compare against the
	// fully assembled (A ⊗ I + I ⊗ L − σI) system.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 6; trial++ {
		nL := 3 + rng.Intn(3)
		nA := 2 + rng.Intn(4)
		l := mat.RandStable(rng, nL, 0.3)
		a := mat.RandStable(rng, nA, 0.3)
		sa, err := schur.Decompose(a)
		if err != nil {
			t.Fatal(err)
		}
		sigma := 0.2 * rng.Float64()
		v := mat.RandVec(rng, nL*nA)
		got, err := ColumnSylvester(denseShiftedSolver{l}, sa, sigma, v)
		if err != nil {
			t.Fatal(err)
		}
		big := SumDense(a, l) // A⊗I + I⊗L acting on vec(X), X ∈ R^{nL×nA}
		for i := 0; i < big.R; i++ {
			big.Add(i, i, -sigma)
		}
		want, err := lu.Solve(big, v)
		if err != nil {
			t.Fatal(err)
		}
		diff := make([]float64, len(v))
		mat.SubVec(diff, got, want)
		if mat.Norm2(diff) > 1e-8*(1+mat.Norm2(want)) {
			t.Fatalf("trial %d: column recurrence differs from dense by %g", trial, mat.Norm2(diff))
		}
	}
}

func TestColumnSylvesterComplexPairs(t *testing.T) {
	// Force 2×2 Schur blocks on the A side.
	rng := rand.New(rand.NewSource(2))
	a := rotationBlock(rng, 4)
	l := mat.RandStable(rng, 3, 0.3)
	sa, err := schur.Decompose(a)
	if err != nil {
		t.Fatal(err)
	}
	has2x2 := false
	for _, b := range sa.Blocks() {
		if b[1] == 2 {
			has2x2 = true
		}
	}
	if !has2x2 {
		t.Fatal("test matrix produced no 2×2 blocks; vacuous")
	}
	v := mat.RandVec(rng, 3*4)
	got, err := ColumnSylvester(denseShiftedSolver{l}, sa, 0.1, v)
	if err != nil {
		t.Fatal(err)
	}
	big := SumDense(a, l)
	for i := 0; i < big.R; i++ {
		big.Add(i, i, -0.1)
	}
	want, err := lu.Solve(big, v)
	if err != nil {
		t.Fatal(err)
	}
	diff := make([]float64, len(v))
	mat.SubVec(diff, got, want)
	if mat.Norm2(diff) > 1e-8*(1+mat.Norm2(want)) {
		t.Fatalf("complex-pair path differs from dense by %g", mat.Norm2(diff))
	}
}

// TestSumSolver3SolveCAgainstDense checks the complex-shift recurrence
// (2×2 blocks decoupled by diagonalization) against a dense LU of ⊕³A.
func TestSumSolver3SolveCAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := rotationBlock(rng, 3)
	ss, err := NewSumSolver3(a)
	if err != nil {
		t.Fatal(err)
	}
	sigma := 0.1 + 0.9i
	v := make([]complex128, 27)
	for i := range v {
		v[i] = complex(2*rng.Float64()-1, 2*rng.Float64()-1)
	}
	got, err := ss.SolveC(sigma, v)
	if err != nil {
		t.Fatal(err)
	}
	big := SumDense(a, SumDense(a, a)).Complex()
	for i := 0; i < 27; i++ {
		big.Set(i, i, big.At(i, i)-sigma)
	}
	want, err := lu.SolveC(big, v)
	if err != nil {
		t.Fatal(err)
	}
	d := make([]complex128, 27)
	for i := range d {
		d[i] = got[i] - want[i]
	}
	if mat.CNorm2(d) > 1e-8*(1+mat.CNorm2(want)) {
		t.Fatalf("complex ⊕³ recurrence differs from dense by %g", mat.CNorm2(d))
	}
}
