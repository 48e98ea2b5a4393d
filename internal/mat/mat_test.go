package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewDenseZero(t *testing.T) {
	m := NewDense(3, 4)
	if m.R != 3 || m.C != 4 {
		t.Fatalf("got %d×%d", m.R, m.C)
	}
	for i := range m.A {
		if m.A[i] != 0 {
			t.Fatalf("nonzero init at %d", i)
		}
	}
}

func TestEyeDiag(t *testing.T) {
	e := Eye(3)
	d := Diag([]float64{1, 1, 1})
	if !e.Equalish(d, 0) {
		t.Fatal("Eye(3) != Diag(ones)")
	}
}

func TestAtSetAdd(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(1, 2, 5)
	m.Add(1, 2, 2.5)
	if got := m.At(1, 2); got != 7.5 {
		t.Fatalf("got %v", got)
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := RandDense(rng, 4, 7)
	if !m.T().T().Equalish(m, 0) {
		t.Fatal("(Mᵀ)ᵀ != M")
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := RandDense(rng, 5, 5)
	if !m.Mul(Eye(5)).Equalish(m, 1e-15) || !Eye(5).Mul(m).Equalish(m, 1e-15) {
		t.Fatal("identity multiplication failed")
	}
}

func TestMulAssociativity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := RandDense(r, 3, 4)
		b := RandDense(r, 4, 5)
		c := RandDense(r, 5, 2)
		return a.Mul(b).Mul(c).Equalish(a.Mul(b.Mul(c)), 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestMulTransposeIdentity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := RandDense(r, 3, 5)
		b := RandDense(r, 5, 4)
		// (AB)ᵀ = BᵀAᵀ
		return a.Mul(b).T().Equalish(b.T().Mul(a.T()), 1e-13)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMulVecAgainstMul(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := RandDense(rng, 6, 3)
	x := RandVec(rng, 3)
	dst := make([]float64, 6)
	a.MulVec(dst, x)
	xm := NewDense(3, 1)
	copy(xm.A, x)
	want := a.Mul(xm)
	for i := range dst {
		if math.Abs(dst[i]-want.At(i, 0)) > 1e-14 {
			t.Fatalf("row %d: %v vs %v", i, dst[i], want.At(i, 0))
		}
	}
}

func TestMulVecT(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := RandDense(rng, 6, 3)
	x := RandVec(rng, 6)
	dst := make([]float64, 3)
	a.MulVecT(dst, x)
	want := make([]float64, 3)
	a.T().MulVec(want, x)
	for i := range dst {
		if math.Abs(dst[i]-want[i]) > 1e-14 {
			t.Fatalf("col %d: %v vs %v", i, dst[i], want[i])
		}
	}
}

// HStack concatenates matrices left to right (equal row counts).
func HStack(ms ...*Dense) *Dense {
	if len(ms) == 0 {
		return NewDense(0, 0)
	}
	r := ms[0].R
	c := 0
	for _, m := range ms {
		if m.R != r {
			panic("mat: HStack row mismatch")
		}
		c += m.C
	}
	out := NewDense(r, c)
	off := 0
	for _, m := range ms {
		for i := 0; i < r; i++ {
			copy(out.A[i*c+off:i*c+off+m.C], m.Row(i))
		}
		off += m.C
	}
	return out
}

// VStack concatenates matrices top to bottom (equal column counts).
func VStack(ms ...*Dense) *Dense {
	if len(ms) == 0 {
		return NewDense(0, 0)
	}
	c := ms[0].C
	r := 0
	for _, m := range ms {
		if m.C != c {
			panic("mat: VStack column mismatch")
		}
		r += m.R
	}
	out := NewDense(r, c)
	row := 0
	for _, m := range ms {
		copy(out.A[row*c:(row+m.R)*c], m.A)
		row += m.R
	}
	return out
}

// Slice returns a copy of the submatrix rows [r0,r1) × cols [c0,c1).
func (m *Dense) Slice(r0, r1, c0, c1 int) *Dense {
	if r0 < 0 || r1 > m.R || c0 < 0 || c1 > m.C || r0 > r1 || c0 > c1 {
		panic("mat: Slice out of range")
	}
	out := NewDense(r1-r0, c1-c0)
	for i := r0; i < r1; i++ {
		copy(out.Row(i-r0), m.A[i*m.C+c0:i*m.C+c1])
	}
	return out
}

func TestHStackVStack(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5}, {6}})
	h := HStack(a, b)
	if h.R != 2 || h.C != 3 || h.At(0, 2) != 5 || h.At(1, 2) != 6 {
		t.Fatalf("HStack wrong: %v", h)
	}
	c := FromRows([][]float64{{7, 8}})
	v := VStack(a, c)
	if v.R != 3 || v.C != 2 || v.At(2, 0) != 7 || v.At(2, 1) != 8 {
		t.Fatalf("VStack wrong: %v", v)
	}
}

func TestSlice(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	s := m.Slice(1, 3, 0, 2)
	want := FromRows([][]float64{{4, 5}, {7, 8}})
	if !s.Equalish(want, 0) {
		t.Fatalf("Slice wrong: %v", s)
	}
}

func TestColSetCol(t *testing.T) {
	m := NewDense(3, 2)
	m.SetCol(1, []float64{1, 2, 3})
	got := m.Col(1)
	for i, want := range []float64{1, 2, 3} {
		if got[i] != want {
			t.Fatalf("col mismatch at %d", i)
		}
	}
}

func TestNorms(t *testing.T) {
	m := FromRows([][]float64{{3, -4}, {0, 0}})
	if m.MaxAbs() != 4 {
		t.Fatalf("maxabs = %v", m.MaxAbs())
	}
	if m.Norm1() != 4 {
		t.Fatalf("norm1 = %v", m.Norm1())
	}
}

func TestVecKernels(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	if Dot(x, y) != 32 {
		t.Fatalf("dot = %v", Dot(x, y))
	}
	if math.Abs(Norm2([]float64{3, 4})-5) > 1e-15 {
		t.Fatal("norm2")
	}
	if NormInf([]float64{-7, 2}) != 7 {
		t.Fatal("norminf")
	}
	z := CopyVec(y)
	Axpy(2, x, z) // z = y + 2x
	for i := range z {
		if z[i] != y[i]+2*x[i] {
			t.Fatal("axpy")
		}
	}
	d := make([]float64, 3)
	SubVec(d, y, x)
	if d[0] != 3 || d[1] != 3 || d[2] != 3 {
		t.Fatal("subvec")
	}
}

func TestNorm2Extreme(t *testing.T) {
	// Values whose squares overflow float64 must still produce a finite norm.
	x := []float64{1e200, 1e200}
	got := Norm2(x)
	want := math.Sqrt2 * 1e200
	if math.Abs(got-want)/want > 1e-14 {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestExpmDiagonal(t *testing.T) {
	m := Diag([]float64{0, 1, -2})
	e := Expm(m)
	want := Diag([]float64{1, math.E, math.Exp(-2)})
	if !e.Equalish(want, 1e-12) {
		t.Fatalf("Expm diag wrong:\n%v", e)
	}
}

func TestExpmNilpotent(t *testing.T) {
	// For strictly upper triangular N with N² = 0: e^N = I + N.
	n := FromRows([][]float64{{0, 3}, {0, 0}})
	e := Expm(n)
	want := FromRows([][]float64{{1, 3}, {0, 1}})
	if !e.Equalish(want, 1e-13) {
		t.Fatalf("Expm nilpotent wrong:\n%v", e)
	}
}

func TestExpmInverse(t *testing.T) {
	// e^A · e^{-A} = I for random A.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := RandDense(r, 4, 4)
		prod := Expm(a).Mul(Expm(a.Clone().Scale(-1)))
		return prod.Equalish(Eye(4), 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestCDenseMul(t *testing.T) {
	a := NewCDense(2, 2)
	a.Set(0, 0, 1i)
	a.Set(1, 1, 1i)
	p := a.Mul(a)
	if p.At(0, 0) != -1 || p.At(1, 1) != -1 {
		t.Fatalf("(iI)² != -I: %v", p.A)
	}
}

func TestComplexRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := RandDense(rng, 3, 3)
	c := m.Complex()
	for i := range m.A {
		if real(c.A[i]) != m.A[i] || imag(c.A[i]) != 0 {
			t.Fatal("Complex() mismatch")
		}
	}
	x := RandVec(rng, 3)
	cx := ToComplex(x)
	if NormInf(SubVecNew(RealPart(cx), x)) != 0 {
		t.Fatal("ToComplex/RealPart round trip")
	}
}

// SubVecNew is a tiny test helper returning x-y.
func SubVecNew(x, y []float64) []float64 {
	d := make([]float64, len(x))
	SubVec(d, x, y)
	return d
}

func TestCVecKernels(t *testing.T) {
	x := []complex128{1 + 1i, 2}
	y := []complex128{1 - 1i, 1i}
	// Unconjugated dot: (1+i)(1-i) + 2i = 2 + 2i.
	if got := CDot(x, y); got != 2+2i {
		t.Fatalf("CDot = %v", got)
	}
	if math.Abs(CNorm2([]complex128{3i, 4})-5) > 1e-15 {
		t.Fatal("CNorm2")
	}
	z := make([]complex128, 2)
	CAxpy(2i, x, z)
	if z[0] != (1+1i)*2i || z[1] != 4i {
		t.Fatal("CAxpy")
	}
}

func TestRandStableGershgorin(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := RandStable(rng, 8, 0.5)
	// Every Gershgorin disc must lie strictly in the left half plane.
	for i := 0; i < 8; i++ {
		radius := 0.0
		for j := 0; j < 8; j++ {
			if j != i {
				radius += math.Abs(m.At(i, j))
			}
		}
		if m.At(i, i)+radius >= 0 {
			t.Fatalf("row %d disc reaches %v", i, m.At(i, i)+radius)
		}
	}
}

func TestPanicsOnShapeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDense(2, 2).Mul(NewDense(3, 3))
}

// TestMulVecRowGroupsMatchRowSums pins MulVec's grouped rows to the
// plain row sums bit for bit, for every row count up to nine.
func TestMulVecRowGroupsMatchRowSums(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for r := 1; r <= 9; r++ {
		m := RandDense(rng, r, 1+rng.Intn(12))
		x := RandVec(rng, m.C)
		x[0] = math.Copysign(0, -1)
		got := make([]float64, r)
		m.MulVec(got, x)
		for i := 0; i < r; i++ {
			s := 0.0
			for j, v := range m.Row(i) {
				s += v * x[j]
			}
			if math.Float64bits(got[i]) != math.Float64bits(s) {
				t.Fatalf("%d rows: row %d = %v, want %v", r, i, got[i], s)
			}
		}
	}
}

// TestMulVecToMatchesMulVec: MulVecTo is MulVec by another name.
func TestMulVecToMatchesMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	m := RandDense(rng, 23, 17)
	x := RandVec(rng, 17)
	want := make([]float64, 23)
	m.MulVec(want, x)
	one := make([]float64, 23)
	m.MulVecTo(one, x)
	for i := range one {
		if one[i] != want[i] {
			t.Fatal("MulVecTo diverged from MulVec")
		}
	}
}
