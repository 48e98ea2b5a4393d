package sparse

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"avtmor/internal/kron"
	"avtmor/internal/mat"
)

func randCSR(rng *rand.Rand, rows, cols, nnz int) *CSR {
	b := NewBuilder(rows, cols)
	for i := 0; i < nnz; i++ {
		b.Add(rng.Intn(rows), rng.Intn(cols), 2*rng.Float64()-1)
	}
	return b.Build()
}

func TestBuildSumsDuplicates(t *testing.T) {
	b := NewBuilder(2, 2)
	b.Add(0, 1, 1.5)
	b.Add(0, 1, 2.5)
	b.Add(1, 0, -1)
	b.Add(1, 0, 1) // cancels to zero → dropped
	m := b.Build()
	if m.NNZ() != 1 {
		t.Fatalf("NNZ = %d, want 1", m.NNZ())
	}
	if m.Dense().At(0, 1) != 4 {
		t.Fatalf("sum wrong: %v", m.Dense())
	}
}

func TestMulVecAgainstDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(20), 1+rng.Intn(20)
		m := randCSR(rng, rows, cols, rng.Intn(3*rows*cols/2+1))
		x := mat.RandVec(rng, cols)
		got := make([]float64, rows)
		m.MulVec(got, x)
		want := make([]float64, rows)
		m.Dense().MulVec(want, x)
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestAddMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randCSR(rng, 6, 4, 10)
	x := mat.RandVec(rng, 4)
	dst := mat.RandVec(rng, 6)
	orig := mat.CopyVec(dst)
	m.AddMulVec(dst, 2.0, x)
	mx := make([]float64, 6)
	m.MulVec(mx, x)
	for i := range dst {
		if math.Abs(dst[i]-(orig[i]+2*mx[i])) > 1e-13 {
			t.Fatal("AddMulVec wrong")
		}
	}
}

func TestFromDenseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := mat.RandDense(rng, 6, 8)
	if !FromDense(d).Dense().Equalish(d, 0) {
		t.Fatal("FromDense round trip failed")
	}
}

func TestQuadApplyAgainstKron(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		g2 := randCSR(rng, n, n*n, 2*n)
		x := mat.RandVec(rng, n)
		y := mat.RandVec(rng, n)
		got := make([]float64, n)
		g2.QuadApply(got, x, y)
		want := make([]float64, n)
		g2.MulVec(want, kron.VecKron(x, y))
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuadAddApply(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 4
	g2 := randCSR(rng, n, n*n, 8)
	x := mat.RandVec(rng, n)
	dst := mat.RandVec(rng, n)
	orig := mat.CopyVec(dst)
	g2.QuadAddApply(dst, -1.5, x, x)
	q := make([]float64, n)
	g2.QuadApply(q, x, x)
	for i := range dst {
		if math.Abs(dst[i]-(orig[i]-1.5*q[i])) > 1e-13 {
			t.Fatal("QuadAddApply wrong")
		}
	}
}

func TestQuadJacobianFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 5
	g2 := randCSR(rng, n, n*n, 12)
	x := mat.RandVec(rng, n)
	jac := make([]float64, n*n)
	g2.QuadJacobian(jac, 1, x)
	const h = 1e-6
	f0 := make([]float64, n)
	g2.QuadApply(f0, x, x)
	for j := 0; j < n; j++ {
		xp := mat.CopyVec(x)
		xp[j] += h
		fp := make([]float64, n)
		g2.QuadApply(fp, xp, xp)
		for i := 0; i < n; i++ {
			fd := (fp[i] - f0[i]) / h
			if math.Abs(fd-jac[i*n+j]) > 1e-4 {
				t.Fatalf("Jacobian (%d,%d): fd %v vs analytic %v", i, j, fd, jac[i*n+j])
			}
		}
	}
}

func TestCubeApplyAgainstKron(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 3
	g3 := randCSR(rng, n, n*n*n, 10)
	x := mat.RandVec(rng, n)
	got := make([]float64, n)
	g3.CubeApply(got, x)
	want := make([]float64, n)
	g3.MulVec(want, kron.VecKron(kron.VecKron(x, x), x))
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("CubeApply mismatch at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestCubeJacobianFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 4
	g3 := randCSR(rng, n, n*n*n, 10)
	x := mat.RandVec(rng, n)
	jac := make([]float64, n*n)
	g3.CubeJacobian(jac, 1, x)
	const h = 1e-6
	f0 := make([]float64, n)
	g3.CubeApply(f0, x)
	for j := 0; j < n; j++ {
		xp := mat.CopyVec(x)
		xp[j] += h
		fp := make([]float64, n)
		g3.CubeApply(fp, xp)
		for i := 0; i < n; i++ {
			fd := (fp[i] - f0[i]) / h
			if math.Abs(fd-jac[i*n+j]) > 1e-4 {
				t.Fatalf("cube Jacobian (%d,%d): fd %v vs analytic %v", i, j, fd, jac[i*n+j])
			}
		}
	}
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuilder(2, 2).Add(2, 0, 1)
}

func BenchmarkQuadApply100(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 100
	g2 := randCSR(rng, n, n*n, 4*n)
	x := mat.RandVec(rng, n)
	dst := make([]float64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g2.QuadApply(dst, x, x)
	}
}

// TestKronIndexConcurrentFirstUse: goroutines sharing one fresh G2/G3
// (concurrent simulations of one ROM) may race to decode the Kronecker
// factor indices; every caller must get the sequential answer. Run
// under -race.
func TestKronIndexConcurrentFirstUse(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 4
	x := mat.RandVec(rng, n)
	g2 := randCSR(rng, n, n*n, 10)
	g3 := randCSR(rng, n, n*n*n, 12)
	want2, want3 := make([]float64, n), make([]float64, n)
	FromDense(g2.Dense()).QuadApply(want2, x, x)
	FromDense(g3.Dense()).CubeApply(want3, x)

	const callers = 8
	got := make([][2][]float64, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = [2][]float64{make([]float64, n), make([]float64, n)}
			g2.QuadApply(got[i][0], x, x)
			g3.CubeApply(got[i][1], x)
		}(i)
	}
	wg.Wait()
	for i := range got {
		for j := 0; j < n; j++ {
			if got[i][0][j] != want2[j] || got[i][1][j] != want3[j] {
				t.Fatalf("caller %d, row %d: (%v, %v), want (%v, %v)", i, j, got[i][0][j], got[i][1][j], want2[j], want3[j])
			}
		}
	}
}
