package lu

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"avtmor/internal/mat"
)

func residual(a *mat.Dense, x, b []float64) float64 {
	r := make([]float64, len(b))
	a.MulVec(r, x)
	mat.Axpy(-1, b, r)
	return mat.NormInf(r)
}

func TestSolveKnown(t *testing.T) {
	a := mat.FromRows([][]float64{{2, 1}, {1, 3}})
	x, err := Solve(a, []float64{3, 5})
	if err != nil {
		t.Fatal(err)
	}
	// 2x+y=3, x+3y=5 → x=4/5, y=7/5.
	if math.Abs(x[0]-0.8) > 1e-14 || math.Abs(x[1]-1.4) > 1e-14 {
		t.Fatalf("x = %v", x)
	}
}

func TestSolveRandomResidual(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		a := mat.RandStable(rng, n, 0.1) // well-conditioned by construction
		b := mat.RandVec(rng, n)
		x, err := Solve(a, b)
		if err != nil {
			return false
		}
		return residual(a, x, b) < 1e-9*(1+mat.NormInf(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestFactorReusable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := mat.RandStable(rng, 12, 0.1)
	f, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		b := mat.RandVec(rng, 12)
		x := make([]float64, 12)
		f.Solve(x, b)
		if residual(a, x, b) > 1e-10 {
			t.Fatalf("trial %d residual too large", trial)
		}
	}
}

func TestSolveAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := mat.RandStable(rng, 8, 0.1)
	f, _ := Factor(a)
	b := mat.RandVec(rng, 8)
	bCopy := mat.CopyVec(b)
	f.Solve(b, b) // in-place
	if residual(a, b, bCopy) > 1e-10 {
		t.Fatal("in-place solve broken")
	}
}

func TestSingular(t *testing.T) {
	a := mat.FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Factor(a); err != ErrSingular {
		t.Fatalf("want ErrSingular, got %v", err)
	}
}

func TestNonSquare(t *testing.T) {
	if _, err := Factor(mat.NewDense(2, 3)); err == nil {
		t.Fatal("want error for non-square input")
	}
}

func TestComplexSolveKnown(t *testing.T) {
	// (1+i) x = 2 → x = 1 - i.
	a := mat.NewCDense(1, 1)
	a.Set(0, 0, 1+1i)
	x, err := SolveC(a, []complex128{2})
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(x[0]-(1-1i)) > 1e-14 {
		t.Fatalf("x = %v", x[0])
	}
}

func TestComplexSolveResidual(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		ar := mat.RandStable(rng, n, 0.1)
		a := ar.Complex()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, a.At(i, j)+complex(0, 0.3*(2*rng.Float64()-1)))
			}
		}
		b := make([]complex128, n)
		for i := range b {
			b[i] = complex(2*rng.Float64()-1, 2*rng.Float64()-1)
		}
		x, err := SolveC(a, b)
		if err != nil {
			return false
		}
		r := make([]complex128, n)
		a.MulVec(r, x)
		mat.CAxpy(-1, b, r)
		return mat.CNorm2(r) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestShiftedReal(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := mat.RandStable(rng, 9, 0.1)
	sigma := 0.7 + 1.3i
	f, err := ShiftedReal(a, sigma)
	if err != nil {
		t.Fatal(err)
	}
	b := mat.ToComplex(mat.RandVec(rng, 9))
	x := make([]complex128, 9)
	f.Solve(x, b)
	// Residual against (A + σI) x = b.
	r := make([]complex128, 9)
	a.Complex().MulVec(r, x)
	mat.CAxpy(sigma, x, r)
	mat.CAxpy(-1, b, r)
	if mat.CNorm2(r) > 1e-10 {
		t.Fatalf("shifted residual %v", mat.CNorm2(r))
	}
}

func TestCLUSingular(t *testing.T) {
	a := mat.NewCDense(2, 2)
	a.Set(0, 0, 1i)
	a.Set(1, 0, 2i) // second column all zero → singular
	if _, err := FactorC(a); err != ErrSingular {
		t.Fatalf("want ErrSingular, got %v", err)
	}
}

// TestFactorInPlaceIsFactor pins the one-kernel contract: Factor is
// FactorInPlace on a clone, so both produce the same factor bits, Factor
// leaves its input alone, and FactorInPlace keeps the caller's storage.
func TestFactorInPlaceIsFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := mat.RandDense(rng, 9, 9)
	orig := a.Clone()
	ref, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range a.A {
		if math.Float64bits(v) != math.Float64bits(orig.A[i]) {
			t.Fatal("Factor modified its input")
		}
	}
	scratch := a.Clone()
	f, err := FactorInPlace(scratch)
	if err != nil {
		t.Fatal(err)
	}
	if f.lu != scratch {
		t.Fatal("FactorInPlace did not keep the caller's storage")
	}
	for i, v := range ref.lu.A {
		if math.Float64bits(v) != math.Float64bits(scratch.A[i]) {
			t.Fatalf("factor entry %d differs: %v in place, %v cloned", i, scratch.A[i], v)
		}
	}
	for i := range f.piv {
		if f.piv[i] != ref.piv[i] {
			t.Fatal("pivot order differs")
		}
	}
}

func BenchmarkFactor100(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := mat.RandStable(rng, 100, 0.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Factor(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolve100(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := mat.RandStable(rng, 100, 0.1)
	f, _ := Factor(a)
	rhs := mat.RandVec(rng, 100)
	x := make([]float64, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Solve(x, rhs)
	}
}
