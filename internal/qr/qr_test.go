package qr

import (
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
