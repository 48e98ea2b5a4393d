package schur

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"avtmor/internal/mat"
)

// checkSchur validates orthogonality, reconstruction, and quasi-triangular
// structure of a decomposition of a.
func checkSchur(t *testing.T, a *mat.Dense, s *Schur, tol float64) {
	t.Helper()
	n := a.R
	// Q orthogonal.
	if d := s.Q.T().Mul(s.Q).Sub(mat.Eye(n)).MaxAbs(); d > tol {
		t.Fatalf("QᵀQ-I = %g", d)
	}
	// A = Q T Qᵀ.
	rec := s.Q.Mul(s.T).Mul(s.Q.T())
	if d := rec.Sub(a).MaxAbs(); d > tol*(1+a.MaxAbs()) {
		t.Fatalf("reconstruction error %g", d)
	}
	// Quasi-triangular: nothing below the first subdiagonal, and no two
	// consecutive nonzero subdiagonals.
	for i := 0; i < n; i++ {
		for j := 0; j < i-1; j++ {
			if s.T.At(i, j) != 0 {
				t.Fatalf("T[%d][%d] = %g below subdiagonal", i, j, s.T.At(i, j))
			}
		}
	}
	for i := 1; i < n-1; i++ {
		if s.T.At(i, i-1) != 0 && s.T.At(i+1, i) != 0 {
			t.Fatalf("consecutive subdiagonals at %d", i)
		}
	}
	// 2×2 blocks standardized: equal diagonals, opposite off-diag signs.
	for _, blk := range s.Blocks() {
		if blk[1] == 2 {
			i := blk[0]
			if math.Abs(s.T.At(i, i)-s.T.At(i+1, i+1)) > tol {
				t.Fatalf("2×2 block at %d not standardized: diag %g vs %g",
					i, s.T.At(i, i), s.T.At(i+1, i+1))
			}
			if s.T.At(i, i+1)*s.T.At(i+1, i) >= 0 {
				t.Fatalf("2×2 block at %d has real eigenvalues", i)
			}
		}
	}
}

func TestDecomposeSmallKnown(t *testing.T) {
	// Rotation-like matrix with eigenvalues 1 ± 2i.
	a := mat.FromRows([][]float64{{1, 2}, {-2, 1}})
	s, err := Decompose(a)
	if err != nil {
		t.Fatal(err)
	}
	checkSchur(t, a, s, 1e-12)
	eigs := s.Eigenvalues()
	sortC(eigs)
	if cmplx.Abs(eigs[0]-(1-2i)) > 1e-12 || cmplx.Abs(eigs[1]-(1+2i)) > 1e-12 {
		t.Fatalf("eigs = %v", eigs)
	}
}

func TestDecomposeDiagonal(t *testing.T) {
	a := mat.Diag([]float64{3, -1, 2})
	s, err := Decompose(a)
	if err != nil {
		t.Fatal(err)
	}
	checkSchur(t, a, s, 1e-13)
	eigs := s.Eigenvalues()
	sortC(eigs)
	want := []complex128{-1, 2, 3}
	for i := range want {
		if cmplx.Abs(eigs[i]-want[i]) > 1e-12 {
			t.Fatalf("eigs = %v", eigs)
		}
	}
}

func TestDecomposeSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 20
	b := mat.RandDense(rng, n, n)
	a := b.Plus(b.T()) // symmetric → all real eigenvalues
	s, err := Decompose(a)
	if err != nil {
		t.Fatal(err)
	}
	checkSchur(t, a, s, 1e-10)
	for _, e := range s.Eigenvalues() {
		if imag(e) != 0 {
			t.Fatalf("symmetric matrix produced complex eigenvalue %v", e)
		}
	}
}

func TestDecomposeRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		a := mat.RandDense(rng, n, n)
		s, err := Decompose(a)
		if err != nil {
			return false
		}
		rec := s.Q.Mul(s.T).Mul(s.Q.T())
		if rec.Sub(a).MaxAbs() > 1e-9*(1+a.MaxAbs()) {
			return false
		}
		return s.Q.T().Mul(s.Q).Sub(mat.Eye(n)).MaxAbs() < 1e-11
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestDecomposeStableCircuitLike(t *testing.T) {
	// The regime that matters: stable, moderately sparse, n ~ 100.
	rng := rand.New(rand.NewSource(2))
	a := mat.RandStable(rng, 100, 0.5)
	s, err := Decompose(a)
	if err != nil {
		t.Fatal(err)
	}
	checkSchur(t, a, s, 1e-8)
	for _, e := range s.Eigenvalues() {
		if real(e) >= 0 {
			t.Fatalf("stable matrix produced eigenvalue %v", e)
		}
	}
}

func TestEigenvaluesTraceDet(t *testing.T) {
	// Sum of eigenvalues = trace; product = det (checked on 3×3 with a
	// complex pair).
	a := mat.FromRows([][]float64{{0, 1, 0}, {-1, 0, 0}, {0, 0, 2}})
	eigs, err := Eigenvalues(a)
	if err != nil {
		t.Fatal(err)
	}
	var sum, prod complex128 = 0, 1
	for _, e := range eigs {
		sum += e
		prod *= e
	}
	if cmplx.Abs(sum-2) > 1e-12 {
		t.Fatalf("trace mismatch: %v", sum)
	}
	if cmplx.Abs(prod-2) > 1e-12 {
		t.Fatalf("det mismatch: %v", prod)
	}
}

func TestEigenvalueConjugatePairs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := mat.RandDense(rng, 15, 15)
	eigs, err := Eigenvalues(a)
	if err != nil {
		t.Fatal(err)
	}
	// Complex eigenvalues must come in conjugate pairs.
	for _, e := range eigs {
		if imag(e) == 0 {
			continue
		}
		found := false
		for _, f := range eigs {
			if cmplx.Abs(f-cmplx.Conj(e)) < 1e-9 {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("no conjugate for %v", e)
		}
	}
}

func TestCharacteristicPolynomial3x3(t *testing.T) {
	// Companion matrix of p(λ) = λ³ - 6λ² + 11λ - 6 = (λ-1)(λ-2)(λ-3).
	a := mat.FromRows([][]float64{
		{0, 0, 6},
		{1, 0, -11},
		{0, 1, 6},
	})
	eigs, err := Eigenvalues(a)
	if err != nil {
		t.Fatal(err)
	}
	re := []float64{real(eigs[0]), real(eigs[1]), real(eigs[2])}
	sort.Float64s(re)
	for i, want := range []float64{1, 2, 3} {
		if math.Abs(re[i]-want) > 1e-9 || imag(eigs[i]) != 0 {
			t.Fatalf("eigs = %v", eigs)
		}
	}
}

func TestEigenResidual(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		a := mat.RandStable(rng, n, 0.3)
		e, err := Eigen(a)
		if err != nil {
			return false
		}
		return e.residual(a) < 1e-7*a.MaxAbs()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestEigenInverseVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := mat.RandStable(rng, 12, 0.3)
	e, err := Eigen(a)
	if err != nil {
		t.Fatal(err)
	}
	inv, err := e.InverseVectors()
	if err != nil {
		t.Fatal(err)
	}
	prod := e.Vectors.Mul(inv)
	for i := 0; i < 12; i++ {
		for j := 0; j < 12; j++ {
			want := complex128(0)
			if i == j {
				want = 1
			}
			if cmplx.Abs(prod.At(i, j)-want) > 1e-8 {
				t.Fatalf("V·V⁻¹ entry (%d,%d) = %v", i, j, prod.At(i, j))
			}
		}
	}
}

func TestEigenReconstructsMatrix(t *testing.T) {
	// A = V Λ V⁻¹.
	rng := rand.New(rand.NewSource(5))
	a := mat.RandStable(rng, 10, 0.3)
	e, err := Eigen(a)
	if err != nil {
		t.Fatal(err)
	}
	inv, err := e.InverseVectors()
	if err != nil {
		t.Fatal(err)
	}
	lam := mat.NewCDense(10, 10)
	for i, v := range e.Values {
		lam.Set(i, i, v)
	}
	rec := e.Vectors.Mul(lam).Mul(inv)
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			if cmplx.Abs(rec.At(i, j)-complex(a.At(i, j), 0)) > 1e-7 {
				t.Fatalf("reconstruction at (%d,%d): %v vs %v", i, j, rec.At(i, j), a.At(i, j))
			}
		}
	}
}

func TestDecomposeN1AndN2(t *testing.T) {
	s, err := Decompose(mat.Diag([]float64{5}))
	if err != nil || s.Eigenvalues()[0] != 5 {
		t.Fatalf("n=1 failed: %v %v", err, s)
	}
	a := mat.FromRows([][]float64{{0, 1}, {0, 0}}) // defective, eigs {0,0}
	s2, err := Decompose(a)
	if err != nil {
		t.Fatal(err)
	}
	checkSchur(t, a, s2, 1e-14)
}

func TestNonSquareRejected(t *testing.T) {
	if _, err := Decompose(mat.NewDense(2, 3)); err == nil {
		t.Fatal("expected error")
	}
}

func sortC(v []complex128) {
	sort.Slice(v, func(i, j int) bool {
		if real(v[i]) != real(v[j]) {
			return real(v[i]) < real(v[j])
		}
		return imag(v[i]) < imag(v[j])
	})
}

func BenchmarkDecompose100(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := mat.RandStable(rng, 100, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decompose(a); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDecomposeAllocs pins that the Francis sweep builds its
// reflectors in fixed-size arrays: a decomposition of this n = 102
// matrix made 9,986 allocations when every reflector was a fresh
// slice, and the bound keeps it at least 90% below that.
func TestDecomposeAllocs(t *testing.T) {
	a := mat.RandStable(rand.New(rand.NewSource(3)), 102, 1)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Decompose(a); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per Decompose", allocs)
	if allocs > 998 {
		t.Fatalf("Decompose made %.0f allocations, want at most 998", allocs)
	}
}
