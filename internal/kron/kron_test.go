package kron

import (
	"math/rand"
	"testing"
	"testing/quick"

	"avtmor/internal/lu"
	"avtmor/internal/mat"
)

func TestVecUnvecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := mat.RandDense(rng, 4, 7)
	if !Unvec(Vec(x), 4, 7).Equalish(x, 0) {
		t.Fatal("vec/unvec round trip failed")
	}
}

func TestVecKronOuterProduct(t *testing.T) {
	// x⊗y = vec(y·xᵀ).
	x := []float64{1, 2, 3}
	y := []float64{4, 5}
	k := VecKron(x, y)
	outer := mat.NewDense(2, 3)
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			outer.Set(i, j, y[i]*x[j])
		}
	}
	v := Vec(outer)
	for i := range k {
		if k[i] != v[i] {
			t.Fatalf("x⊗y != vec(yxᵀ) at %d: %v vs %v", i, k[i], v[i])
		}
	}
}

func TestDenseMixedProduct(t *testing.T) {
	// (M1⊗M2)(N1⊗N2) = (M1N1)⊗(M2N2) — property (i) used in Theorem 1.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m1 := mat.RandDense(rng, 3, 2)
		m2 := mat.RandDense(rng, 2, 4)
		n1 := mat.RandDense(rng, 2, 3)
		n2 := mat.RandDense(rng, 4, 2)
		lhs := Dense(m1, m2).Mul(Dense(n1, n2))
		rhs := Dense(m1.Mul(n1), m2.Mul(n2))
		return lhs.Equalish(rhs, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestKronVecAgainstDense(t *testing.T) {
	// (A⊗B)(x⊗y) = (Ax)⊗(By).
	rng := rand.New(rand.NewSource(2))
	a := mat.RandDense(rng, 3, 3)
	b := mat.RandDense(rng, 4, 4)
	x := mat.RandVec(rng, 3)
	y := mat.RandVec(rng, 4)
	big := Dense(a, b)
	lhs := make([]float64, 12)
	big.MulVec(lhs, VecKron(x, y))
	ax := make([]float64, 3)
	by := make([]float64, 4)
	a.MulVec(ax, x)
	b.MulVec(by, y)
	rhs := VecKron(ax, by)
	for i := range lhs {
		if d := lhs[i] - rhs[i]; d > 1e-12 || d < -1e-12 {
			t.Fatalf("mismatch at %d", i)
		}
	}
}

func TestExpKronSumIdentity(t *testing.T) {
	// e^{A⊕B} = e^A ⊗ e^B — property (ii), the engine of Theorem 1.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := mat.RandDense(rng, 3, 3)
		b := mat.RandDense(rng, 2, 2)
		lhs := mat.Expm(SumDense(a, b))
		rhs := Dense(mat.Expm(a), mat.Expm(b))
		return lhs.Equalish(rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSumApply2AgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 5
	a := mat.RandDense(rng, n, n)
	big := SumDense(a, a)
	z := mat.RandVec(rng, n*n)
	want := make([]float64, n*n)
	big.MulVec(want, z)
	got := make([]float64, n*n)
	SumApply2(a, got, z)
	for i := range got {
		if d := got[i] - want[i]; d > 1e-12 || d < -1e-12 {
			t.Fatalf("SumApply2 mismatch at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestSumApply3AgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 3
	a := mat.RandDense(rng, n, n)
	big := SumDense(SumDense(a, a), a) // (A⊕A)⊕A = ⊕³A with matching index order
	z := mat.RandVec(rng, n*n*n)
	want := make([]float64, n*n*n)
	big.MulVec(want, z)
	got := make([]float64, n*n*n)
	SumApply3(a, got, z)
	for i := range got {
		if d := got[i] - want[i]; d > 1e-11 || d < -1e-11 {
			t.Fatalf("SumApply3 mismatch at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestSumSolver2AgainstDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		a := mat.RandStable(rng, n, 0.3)
		ss, err := NewSumSolver2(a)
		if err != nil {
			return false
		}
		v := mat.RandVec(rng, n*n)
		sigma := 0.5 * rng.Float64() // eigenvalues of ⊕²A are < 0; σ ≥ 0 keeps it regular
		z, err := ss.Solve(sigma, v)
		if err != nil {
			return false
		}
		// Residual (⊕²A − σI)z − v.
		r := make([]float64, n*n)
		SumApply2(a, r, z)
		mat.Axpy(-sigma, z, r)
		mat.Axpy(-1, v, r)
		return mat.NormInf(r) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSumSolver3AgainstDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		a := mat.RandStable(rng, n, 0.3)
		ss, err := NewSumSolver3(a)
		if err != nil {
			return false
		}
		v := mat.RandVec(rng, n*n*n)
		sigma := 0.4 * rng.Float64()
		z, err := ss.Solve(sigma, v)
		if err != nil {
			return false
		}
		r := make([]float64, n*n*n)
		SumApply3(a, r, z)
		mat.Axpy(-sigma, z, r)
		mat.Axpy(-1, v, r)
		return mat.NormInf(r) < 1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// rotationBlock returns a matrix guaranteed to have complex eigenvalue
// pairs, exercising the 2×2-block complexification paths.
func rotationBlock(rng *rand.Rand, n int) *mat.Dense {
	a := mat.NewDense(n, n)
	i := 0
	for ; i+1 < n; i += 2 {
		re := -0.5 - rng.Float64()
		im := 0.5 + rng.Float64()
		a.Set(i, i, re)
		a.Set(i+1, i+1, re)
		a.Set(i, i+1, im)
		a.Set(i+1, i, -im)
	}
	if i < n {
		a.Set(i, i, -1-rng.Float64())
	}
	// Mild random coupling keeps it non-normal but stable.
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			if r != c {
				a.Add(r, c, 0.05*(2*rng.Float64()-1))
			}
		}
	}
	return a
}

func TestSumSolver3ComplexPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 5; trial++ {
		n := 4
		a := rotationBlock(rng, n)
		ss, err := NewSumSolver3(a)
		if err != nil {
			t.Fatal(err)
		}
		v := mat.RandVec(rng, n*n*n)
		z, err := ss.Solve(0.1, v)
		if err != nil {
			t.Fatal(err)
		}
		r := make([]float64, n*n*n)
		SumApply3(a, r, z)
		mat.Axpy(-0.1, z, r)
		mat.Axpy(-1, v, r)
		if mat.NormInf(r) > 1e-7 {
			t.Fatalf("trial %d residual %g", trial, mat.NormInf(r))
		}
	}
}

func TestSpectralMatchesSumSolver(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 5
	a := mat.RandStable(rng, n, 0.3)
	sp, err := NewSpectral(a)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewSumSolver2(a)
	if err != nil {
		t.Fatal(err)
	}
	v := mat.RandVec(rng, n*n)
	z2, err := s2.Solve(0.25, v)
	if err != nil {
		t.Fatal(err)
	}
	zs, err := sp.Solve(2, 0.25, mat.ToComplex(v))
	if err != nil {
		t.Fatal(err)
	}
	for i := range z2 {
		if d := z2[i] - real(zs[i]); d > 1e-8 || d < -1e-8 {
			t.Fatalf("spectral/sylvester mismatch at %d: %v vs %v", i, z2[i], zs[i])
		}
	}
}

func TestSpectralD1IsResolvent(t *testing.T) {
	// d=1: (A − σI)⁻¹ v — compare against LU.
	rng := rand.New(rand.NewSource(8))
	n := 6
	a := mat.RandStable(rng, n, 0.3)
	sp, err := NewSpectral(a)
	if err != nil {
		t.Fatal(err)
	}
	v := mat.RandVec(rng, n)
	z, err := sp.Solve(1, 0.5, mat.ToComplex(v))
	if err != nil {
		t.Fatal(err)
	}
	shifted := a.Clone()
	for i := 0; i < n; i++ {
		shifted.Add(i, i, -0.5)
	}
	want, err := lu.Solve(shifted, v)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if d := want[i] - real(z[i]); d > 1e-8 || d < -1e-8 {
			t.Fatalf("d=1 mismatch at %d", i)
		}
	}
}

func TestSpectralD3MatchesSumSolver3(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 3
	a := rotationBlock(rng, n)
	sp, err := NewSpectral(a)
	if err != nil {
		t.Fatal(err)
	}
	s3, err := NewSumSolver3(a)
	if err != nil {
		t.Fatal(err)
	}
	v := mat.RandVec(rng, n*n*n)
	z3, err := s3.Solve(0.1, v)
	if err != nil {
		t.Fatal(err)
	}
	zs, err := sp.Solve(3, 0.1, mat.ToComplex(v))
	if err != nil {
		t.Fatal(err)
	}
	for i := range z3 {
		if d := z3[i] - real(zs[i]); d > 1e-7 || d < -1e-7 {
			t.Fatalf("d=3 mismatch at %d: %v vs %v", i, z3[i], zs[i])
		}
	}
}

func BenchmarkSumSolver2N70(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := mat.RandStable(rng, 70, 0.3)
	ss, err := NewSumSolver2(a)
	if err != nil {
		b.Fatal(err)
	}
	v := mat.RandVec(rng, 70*70)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ss.Solve(0, v); err != nil {
			b.Fatal(err)
		}
	}
}

// SumApply2 computes dst = (⊕²A)·z for z of length n², without forming
// the operator: unvec, A·X + X·Aᵀ, re-vec.
func SumApply2(a *mat.Dense, dst, z []float64) {
	n := a.R
	if len(z) != n*n || len(dst) != n*n {
		panic("kron: SumApply2 length mismatch")
	}
	x := Unvec(z, n, n)
	r := a.Mul(x).Plus(x.Mul(a.T()))
	copy(dst, Vec(r))
}

// SumApply3 computes dst = (⊕³A)·z for z of length n³, viewing z as an
// n²×n matrix X with (⊕³A)vec(X) = vec((⊕²A)X + X·Aᵀ).
func SumApply3(a *mat.Dense, dst, z []float64) {
	n := a.R
	n2 := n * n
	if len(z) != n2*n || len(dst) != n2*n {
		panic("kron: SumApply3 length mismatch")
	}
	col := make([]float64, n2)
	tmp := make([]float64, n2)
	// (⊕²A)·X part, column by column.
	for j := 0; j < n; j++ {
		copy(col, z[j*n2:(j+1)*n2])
		SumApply2(a, tmp, col)
		copy(dst[j*n2:(j+1)*n2], tmp)
	}
	// X·Aᵀ part: dst[:,j] += Σ_k X[:,k]·A[j][k].
	for j := 0; j < n; j++ {
		dj := dst[j*n2 : (j+1)*n2]
		for k := 0; k < n; k++ {
			ajk := a.At(j, k)
			if ajk == 0 {
				continue
			}
			xk := z[k*n2 : (k+1)*n2]
			for i := range dj {
				dj[i] += ajk * xk[i]
			}
		}
	}
}
