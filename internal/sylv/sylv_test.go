package sylv

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"avtmor/internal/mat"
	"avtmor/internal/schur"
)

// randQuasiTri produces an upper quasi-triangular matrix with a random
// mix of 1×1 and standardized 2×2 diagonal blocks, stable diagonal.
func randQuasiTri(rng *rand.Rand, n int) *mat.Dense {
	t := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			t.Set(i, j, 2*rng.Float64()-1)
		}
	}
	for i := 0; i < n; {
		if i+1 < n && rng.Float64() < 0.4 {
			// Standardized 2×2 block: [[α, β],[γ, α]], βγ < 0.
			alpha := -0.5 - rng.Float64()
			beta := 0.3 + rng.Float64()
			gamma := -(0.3 + rng.Float64())
			t.Set(i, i, alpha)
			t.Set(i+1, i+1, alpha)
			t.Set(i, i+1, beta)
			t.Set(i+1, i, gamma)
			i += 2
		} else {
			t.Set(i, i, -0.5-rng.Float64())
			i++
		}
	}
	return t
}

func residualN(a, b, x, c *mat.Dense, sigma float64) float64 {
	r := a.Mul(x).Plus(x.Mul(b)).AddScaled(sigma, x).Sub(c)
	return r.MaxAbs()
}

func residualT(a, b, x, c *mat.Dense, sigma float64) float64 {
	r := a.Mul(x).Plus(x.Mul(b.T())).AddScaled(sigma, x).Sub(c)
	return r.MaxAbs()
}

func TestTrSylvNRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n := 1+rng.Intn(12), 1+rng.Intn(12)
		a := randQuasiTri(rng, m)
		b := randQuasiTri(rng, n)
		c := mat.RandDense(rng, m, n)
		x, err := TrSylvN(a, b, 0, c)
		if err != nil {
			return false
		}
		return residualN(a, b, x, c, 0) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestTrSylvTRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n := 1+rng.Intn(12), 1+rng.Intn(12)
		a := randQuasiTri(rng, m)
		b := randQuasiTri(rng, n)
		c := mat.RandDense(rng, m, n)
		x, err := TrSylvT(a, b, 0, c)
		if err != nil {
			return false
		}
		return residualT(a, b, x, c, 0) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestTrSylvShifted(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randQuasiTri(rng, 9)
	b := randQuasiTri(rng, 7)
	c := mat.RandDense(rng, 9, 7)
	sigma := -0.37
	x, err := TrSylvN(a, b, sigma, c)
	if err != nil {
		t.Fatal(err)
	}
	if r := residualN(a, b, x, c, sigma); r > 1e-10 {
		t.Fatalf("residual %g", r)
	}
	xt, err := TrSylvT(a, b, sigma, c)
	if err != nil {
		t.Fatal(err)
	}
	if r := residualT(a, b, xt, c, sigma); r > 1e-10 {
		t.Fatalf("T residual %g", r)
	}
}

func TestTrSylvSingularDetected(t *testing.T) {
	// A = [1], B = [-1]: λ(A)+λ(B) = 0 exactly.
	a := mat.Diag([]float64{1})
	b := mat.Diag([]float64{-1})
	c := mat.Diag([]float64{1})
	if _, err := TrSylvN(a, b, 0, c); err != ErrSingular {
		t.Fatalf("want ErrSingular, got %v", err)
	}
}

func TestTrSylvDiagonalKnown(t *testing.T) {
	// Diagonal A, B: X_ij = C_ij / (a_i + b_j).
	a := mat.Diag([]float64{1, 2})
	b := mat.Diag([]float64{3, 4})
	c := mat.FromRows([][]float64{{4, 5}, {5, 6}})
	x, err := TrSylvN(a, b, 0, c)
	if err != nil {
		t.Fatal(err)
	}
	want := mat.FromRows([][]float64{{1, 1}, {1, 1}})
	if !x.Equalish(want, 1e-14) {
		t.Fatalf("x = %v", x)
	}
}

func TestSolveGeneral(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n := 2+rng.Intn(15), 2+rng.Intn(15)
		a := mat.RandStable(rng, m, 0.2)
		b := mat.RandStable(rng, n, 0.2).Scale(-1) // eigenvalues in right half plane
		// λ(A) < 0 and λ(B) > 0 would collide; flip B back to keep
		// λi(A)+λj(B) < 0 bounded away from zero.
		b = b.Scale(-1)
		c := mat.RandDense(rng, m, n)
		x, err := Solve(a, b, c)
		if err != nil {
			return false
		}
		return residualN(a, b, x, c, 0) < 1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveTGeneral(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n := 2+rng.Intn(15), 2+rng.Intn(15)
		a := mat.RandStable(rng, m, 0.2)
		b := mat.RandStable(rng, n, 0.2)
		c := mat.RandDense(rng, m, n)
		x, err := SolveT(a, b, c)
		if err != nil {
			return false
		}
		return residualT(a, b, x, c, 0) < 1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestLyapunov(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := mat.RandStable(rng, 20, 0.3)
	c := mat.RandDense(rng, 20, 20)
	x, err := Lyapunov(a, c)
	if err != nil {
		t.Fatal(err)
	}
	if r := residualT(a, a, x, c, 0); r > 1e-8 {
		t.Fatalf("Lyapunov residual %g", r)
	}
}

func TestSolveFactoredReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := mat.RandStable(rng, 12, 0.3)
	b := mat.RandStable(rng, 8, 0.3)
	sa, err := schur.Decompose(a)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := schur.Decompose(b)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 4; trial++ {
		c := mat.RandDense(rng, 12, 8)
		x, err := SolveFactored(sa, sb, c)
		if err != nil {
			t.Fatal(err)
		}
		if r := residualN(a, b, x, c, 0); r > 1e-8 {
			t.Fatalf("trial %d residual %g", trial, r)
		}
	}
}

func TestTrSylvNCComplex(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n := 1+rng.Intn(10), 1+rng.Intn(10)
		a := randQuasiTri(rng, m)
		b := randQuasiTri(rng, n)
		c := mat.NewCDense(m, n)
		for i := range c.A {
			c.A[i] = complex(2*rng.Float64()-1, 2*rng.Float64()-1)
		}
		sigma := complex(0.2*rng.Float64(), 1.5*rng.Float64())
		x, err := TrSylvNC(a, b, sigma, c)
		if err != nil {
			return false
		}
		// Residual A·X + X·B + σX − C.
		r := a.Complex().Mul(x)
		xb := x.Mul(b.Complex())
		for i := range r.A {
			r.A[i] += xb.A[i] + sigma*x.A[i] - c.A[i]
		}
		return r.MaxAbs() < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTrSylvTCComplex(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n := 1+rng.Intn(10), 1+rng.Intn(10)
		a := randQuasiTri(rng, m)
		b := randQuasiTri(rng, n)
		c := mat.NewCDense(m, n)
		for i := range c.A {
			c.A[i] = complex(2*rng.Float64()-1, 2*rng.Float64()-1)
		}
		sigma := complex(0.3*rng.Float64(), -1.2*rng.Float64())
		x, err := TrSylvTC(a, b, sigma, c)
		if err != nil {
			return false
		}
		r := a.Complex().Mul(x)
		xbt := x.Mul(b.T().Complex())
		for i := range r.A {
			r.A[i] += xbt.A[i] + sigma*x.A[i] - c.A[i]
		}
		return r.MaxAbs() < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestComplexMatchesRealOnRealData(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randQuasiTri(rng, 8)
	b := randQuasiTri(rng, 6)
	c := mat.RandDense(rng, 8, 6)
	xr, err := TrSylvN(a, b, 0.1, c)
	if err != nil {
		t.Fatal(err)
	}
	xc, err := TrSylvNC(a, b, 0.1, c.Complex())
	if err != nil {
		t.Fatal(err)
	}
	for i := range xr.A {
		if d := xr.A[i] - real(xc.A[i]); d > 1e-12 || d < -1e-12 || imag(xc.A[i]) > 1e-12 || imag(xc.A[i]) < -1e-12 {
			t.Fatalf("real/complex mismatch at %d: %v vs %v", i, xr.A[i], xc.A[i])
		}
	}
}

func BenchmarkTrSylvT100(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randQuasiTri(rng, 100)
	bm := randQuasiTri(rng, 100)
	c := mat.RandDense(rng, 100, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TrSylvT(a, bm, 0, c); err != nil {
			b.Fatal(err)
		}
	}
}

// refTrSylvReal is the At()-indexed column recurrence the slice kernels
// replaced, kept verbatim as the bitwise reference: the H2 path and
// every K3 = 0 reduction go through TrSylvT, so any change in the
// summation order would change artifact bytes.
func refTrSylvReal(a, b *mat.Dense, sigma float64, c *mat.Dense, transB bool) (*mat.Dense, error) {
	m, n := a.R, b.R
	x := mat.NewDense(m, n)
	ab := blocks(a)
	bb := blocks(b)
	lIdx := make([]int, len(bb))
	for i := range lIdx {
		if transB {
			lIdx[i] = len(bb) - 1 - i
		} else {
			lIdx[i] = i
		}
	}
	var f [4]float64
	for _, li := range lIdx {
		l0, ln := bb[li][0], bb[li][1]
		for ki := len(ab) - 1; ki >= 0; ki-- {
			k0, kn := ab[ki][0], ab[ki][1]
			for p := 0; p < kn; p++ {
				for q := 0; q < ln; q++ {
					s := c.At(k0+p, l0+q)
					for j := k0 + kn; j < m; j++ {
						s -= a.At(k0+p, j) * x.At(j, l0+q)
					}
					if transB {
						for i := l0 + ln; i < n; i++ {
							s -= x.At(k0+p, i) * b.At(l0+q, i)
						}
					} else {
						for i := 0; i < l0; i++ {
							s -= x.At(k0+p, i) * b.At(i, l0+q)
						}
					}
					f[p*ln+q] = s
				}
			}
			if err := solveSmallReal(a, b, k0, kn, l0, ln, sigma, transB, f[:kn*ln], x); err != nil {
				return nil, err
			}
		}
	}
	return x, nil
}

// refTrSylvCplx is the complex counterpart of refTrSylvReal.
func refTrSylvCplx(a, b *mat.Dense, sigma complex128, c *mat.CDense, transB bool) (*mat.CDense, error) {
	m, n := a.R, b.R
	x := mat.NewCDense(m, n)
	ab := blocks(a)
	bb := blocks(b)
	lIdx := make([]int, len(bb))
	for i := range lIdx {
		if transB {
			lIdx[i] = len(bb) - 1 - i
		} else {
			lIdx[i] = i
		}
	}
	var f [4]complex128
	for _, li := range lIdx {
		l0, ln := bb[li][0], bb[li][1]
		for ki := len(ab) - 1; ki >= 0; ki-- {
			k0, kn := ab[ki][0], ab[ki][1]
			for p := 0; p < kn; p++ {
				for q := 0; q < ln; q++ {
					s := c.At(k0+p, l0+q)
					for j := k0 + kn; j < m; j++ {
						s -= complex(a.At(k0+p, j), 0) * x.At(j, l0+q)
					}
					if transB {
						for i := l0 + ln; i < n; i++ {
							s -= x.At(k0+p, i) * complex(b.At(l0+q, i), 0)
						}
					} else {
						for i := 0; i < l0; i++ {
							s -= x.At(k0+p, i) * complex(b.At(i, l0+q), 0)
						}
					}
					f[p*ln+q] = s
				}
			}
			if err := solveSmallCplx(a, b, k0, kn, l0, ln, sigma, transB, f[:kn*ln], x); err != nil {
				return nil, err
			}
		}
	}
	return x, nil
}

// TestTrSylvBitExactAgainstReference pins the slice kernels bit for bit
// to the At()-indexed recurrence on random quasi-triangular pairs with
// 2×2 blocks, for all four variants and real and complex shifts.
func TestTrSylvBitExactAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	sameBits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	twoByTwo := 0
	for trial := 0; trial < 60; trial++ {
		m, n := 1+rng.Intn(14), 1+rng.Intn(14)
		a := randQuasiTri(rng, m)
		b := randQuasiTri(rng, n)
		for _, blk := range append(blocks(a), blocks(b)...) {
			if blk[1] == 2 {
				twoByTwo++
			}
		}
		sigma := 0.5 * rng.Float64()
		csigma := complex(0.5*rng.Float64(), 2*rng.Float64()-1)
		c := mat.RandDense(rng, m, n)
		cc := mat.NewCDense(m, n)
		for i := range cc.A {
			cc.A[i] = complex(2*rng.Float64()-1, 2*rng.Float64()-1)
		}
		variants := []struct {
			transB bool
			real   func(a, b *mat.Dense, sigma float64, c *mat.Dense) (*mat.Dense, error)
			cplx   func(a, b *mat.Dense, sigma complex128, c *mat.CDense) (*mat.CDense, error)
		}{{false, TrSylvN, TrSylvNC}, {true, TrSylvT, TrSylvTC}}
		for _, v := range variants {
			transB := v.transB
			got, err := v.real(a, b, sigma, c)
			if err != nil {
				t.Fatal(err)
			}
			want, err := refTrSylvReal(a, b, sigma, c, transB)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want.A {
				if !sameBits(got.A[i], want.A[i]) {
					t.Fatalf("trial %d transB=%v real: entry %d is %v, reference %v", trial, transB, i, got.A[i], want.A[i])
				}
			}
			gotC, err := v.cplx(a, b, csigma, cc)
			if err != nil {
				t.Fatal(err)
			}
			wantC, err := refTrSylvCplx(a, b, csigma, cc, transB)
			if err != nil {
				t.Fatal(err)
			}
			for i := range wantC.A {
				if !sameBits(real(gotC.A[i]), real(wantC.A[i])) || !sameBits(imag(gotC.A[i]), imag(wantC.A[i])) {
					t.Fatalf("trial %d transB=%v complex: entry %d is %v, reference %v", trial, transB, i, gotC.A[i], wantC.A[i])
				}
			}
		}
	}
	if twoByTwo == 0 {
		t.Fatal("no 2×2 Schur block was exercised")
	}
}
