package sylv

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"avtmor/internal/mat"
)

// symCase draws an n×n quasi-triangular A with 1×1 and 2×2 blocks, a
// symmetric C and a leading-block size m on a block boundary.
func symCase(rng *rand.Rand) (a *mat.Dense, c *mat.Dense, m int) {
	n := 1 + rng.Intn(14)
	a = randQuasiTri(rng, n)
	c = mat.RandDense(rng, n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			c.Set(i, j, c.At(j, i))
		}
	}
	var bounds []int
	for _, b := range blocks(a) {
		bounds = append(bounds, b[0]+b[1])
	}
	return a, c, bounds[rng.Intn(len(bounds))]
}

// TestTrSylvSymMatchesTrSylvT solves symmetric right-hand sides both
// ways, on the whole matrix and on a leading block with the rest of X
// given, and checks the result is exactly symmetric.
func TestTrSylvSymMatchesTrSylvT(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, c, m := symCase(rng)
		n := a.R
		sigma := -0.2 * rng.Float64()
		want, err := TrSylvT(a, a, sigma, c)
		if err != nil {
			t.Fatal(err)
		}
		for _, lead := range []int{n, m} {
			x := mat.CopyVec(c.A)
			for k := 0; k < lead; k++ {
				copy(x[k*n+lead:(k+1)*n], want.A[k*n+lead:(k+1)*n])
			}
			if err := TrSylvSym(a, sigma, x, lead); err != nil {
				t.Fatal(err)
			}
			for k := 0; k < lead; k++ {
				for l := 0; l < lead; l++ {
					if x[k*n+l] != x[l*n+k] {
						t.Fatalf("seed %d, m=%d: X[%d][%d] = %v but X[%d][%d] = %v", seed, lead, k, l, x[k*n+l], l, k, x[l*n+k])
					}
					if d := math.Abs(x[k*n+l] - want.A[k*n+l]); d > 1e-12*(1+want.MaxAbs()) {
						t.Fatalf("seed %d, m=%d: X[%d][%d] differs from TrSylvT by %g", seed, lead, k, l, d)
					}
				}
			}
		}
	}
}

// TestTrSylvSymCMatchesTrSylvTC is the complex-shift counterpart.
func TestTrSylvSymCMatchesTrSylvTC(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, cr, m := symCase(rng)
		n := a.R
		c := mat.NewCDense(n, n)
		for k := 0; k < n; k++ {
			for l := k; l < n; l++ {
				v := complex(cr.At(k, l), 2*rng.Float64()-1)
				c.Set(k, l, v)
				c.Set(l, k, v)
			}
		}
		sigma := complex(-0.2*rng.Float64(), 1.5*(2*rng.Float64()-1))
		want, err := TrSylvTC(a, a, sigma, c)
		if err != nil {
			t.Fatal(err)
		}
		for _, lead := range []int{n, m} {
			x := append([]complex128(nil), c.A...)
			for k := 0; k < lead; k++ {
				copy(x[k*n+lead:(k+1)*n], want.A[k*n+lead:(k+1)*n])
			}
			if err := TrSylvSymC(a, sigma, x, lead); err != nil {
				t.Fatal(err)
			}
			for k := 0; k < lead; k++ {
				for l := 0; l < lead; l++ {
					if x[k*n+l] != x[l*n+k] {
						t.Fatalf("seed %d, m=%d: X[%d][%d] = %v but X[%d][%d] = %v", seed, lead, k, l, x[k*n+l], l, k, x[l*n+k])
					}
					if d := cmplx.Abs(x[k*n+l] - want.A[k*n+l]); d > 1e-12*(1+want.MaxAbs()) {
						t.Fatalf("seed %d, m=%d: X[%d][%d] differs from TrSylvTC by %g", seed, lead, k, l, d)
					}
				}
			}
		}
	}
}

// TestTrSylvSymAllocatesNothing pins that the symmetric kernels work
// in place.
func TestTrSylvSymAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randQuasiTri(rng, 12)
	x := mat.RandVec(rng, 144)
	xc := make([]complex128, 144)
	if got := testing.AllocsPerRun(5, func() {
		if err := TrSylvSym(a, -0.1, x, 12); err != nil {
			t.Fatal(err)
		}
		if err := TrSylvSymC(a, -0.1+1i, xc, 12); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("%v allocations per solve", got)
	}
}
