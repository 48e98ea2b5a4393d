package qr

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"avtmor/internal/mat"
)

func TestOrthonormalizeBasic(t *testing.T) {
	cols := [][]float64{{1, 0, 0}, {1, 1, 0}, {1, 1, 1}}
	v := Orthonormalize(cols, 1e-10)
	if v == nil || v.C != 3 {
		t.Fatalf("expected 3 basis vectors, got %v", v)
	}
	if OrthoError(v) > 1e-13 {
		t.Fatalf("not orthonormal: %v", OrthoError(v))
	}
}

func TestOrthonormalizeDeflation(t *testing.T) {
	// Third column is a linear combination — must be dropped.
	cols := [][]float64{{1, 0, 0}, {0, 1, 0}, {2, 3, 0}}
	v := Orthonormalize(cols, 1e-10)
	if v.C != 2 {
		t.Fatalf("expected deflation to 2 vectors, got %d", v.C)
	}
	// A candidate holding an Inf or a NaN deflates, first or later,
	// and the finite candidates around it stay.
	inf := math.Inf(1)
	cols = [][]float64{{inf, 1, 0}, {1, 0, 0}, {math.NaN(), 0, 1}, {0, 1, -inf}, {0, 1, 0}}
	if v := Orthonormalize(cols, 1e-10); v == nil || v.C != 2 {
		t.Fatalf("non-finite candidates: basis %v, want 2 columns", v)
	}
}

// TestOrthonormalizeCutsTail: candidates whose entries decay over far
// more than 2^200, one from each end, come out with exactly their
// entries below 2^−200 of their largest zeroed. The second one's
// orthogonalization leaves tiny multiples of the first column where
// its own tail was cut, and the cut after normalizing removes them.
// The basis stays orthonormal.
func TestOrthonormalizeCutsTail(t *testing.T) {
	const n = 12
	down, up := make([]float64, n), make([]float64, n)
	for i := range down {
		// Entries 2^30 apart: none sits near the cut, before or after
		// normalizing.
		down[i] = (1 + float64(i)/16) * math.Ldexp(1, -30*i)
		if i%2 == 1 {
			down[i] = -down[i]
		}
		up[n-1-i] = math.Ldexp(1, -30*i)
	}
	cols := [][]float64{down, up}
	v := Orthonormalize(cols, 1e-10)
	if v == nil || v.C != 2 {
		t.Fatalf("basis %v, want 2 columns", v)
	}
	if e := OrthoError(v); e > 1e-14 {
		t.Fatalf("basis not orthonormal: %g", e)
	}
	for j, c := range cols {
		floor := math.Ldexp(mat.NormInf(c), -200)
		for i, x := range c {
			if cut, got := math.Abs(x) < floor, v.At(i, j); (got == 0) != cut {
				t.Errorf("column %d, entry %d: candidate %g, basis %g; want zero %v", j, i, x, got, cut)
			}
		}
	}
}

func TestOrthonormalizeZeroAndNil(t *testing.T) {
	if v := Orthonormalize([][]float64{{0, 0}}, 1e-10); v != nil {
		t.Fatal("zero column should deflate to nil basis")
	}
	if v := Orthonormalize(nil, 1e-10); v != nil {
		t.Fatal("empty input should give nil basis")
	}
}

func TestOrthonormalizeSpanPreserved(t *testing.T) {
	// Every input column must be reproducible from the basis: c = V Vᵀ c.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(10)
		k := 1 + rng.Intn(n)
		cols := make([][]float64, k)
		for i := range cols {
			cols[i] = mat.RandVec(rng, n)
		}
		v := Orthonormalize(cols, 1e-12)
		if v == nil {
			return false
		}
		for _, c := range cols {
			tmp := make([]float64, v.C)
			v.MulVecT(tmp, c)
			rec := make([]float64, n)
			v.MulVec(rec, tmp)
			mat.Axpy(-1, c, rec)
			if mat.Norm2(rec) > 1e-9*mat.Norm2(c) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestOrthonormalizeNearDependent(t *testing.T) {
	// A vector differing from span by 1e-14 must deflate at dropTol 1e-8.
	base := []float64{1, 2, 3}
	mat.ScaleVec(1/mat.Norm2(base), base)
	almost := mat.CopyVec(base)
	almost[0] += 1e-14
	v := Orthonormalize([][]float64{base, almost}, 1e-8)
	if v.C != 1 {
		t.Fatalf("expected deflation, got %d columns", v.C)
	}
}

func TestOrthoErrorDetects(t *testing.T) {
	m := mat.FromRows([][]float64{{1, 0.5}, {0, 1}})
	if OrthoError(m) < 0.4 {
		t.Fatal("OrthoError failed to flag non-orthogonal matrix")
	}
	if e := OrthoError(mat.Eye(4)); e != 0 {
		t.Fatalf("identity ortho error %v", e)
	}
}

func BenchmarkOrthonormalize(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cols := make([][]float64, 30)
	for i := range cols {
		cols[i] = mat.RandVec(rng, 200)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Orthonormalize(cols, 1e-10)
	}
}
