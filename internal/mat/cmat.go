package mat

import (
	"fmt"
	"math"
	"math/cmplx"
)

// CDense is a row-major dense complex matrix.
type CDense struct {
	R, C int
	A    []complex128
}

// NewCDense returns an r×c zero complex matrix.
func NewCDense(r, c int) *CDense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %d×%d", r, c))
	}
	return &CDense{R: r, C: c, A: make([]complex128, r*c)}
}

// Complex converts a real matrix to complex.
func (m *Dense) Complex() *CDense {
	out := NewCDense(m.R, m.C)
	for i, v := range m.A {
		out.A[i] = complex(v, 0)
	}
	return out
}

// At returns element (i, j).
func (m *CDense) At(i, j int) complex128 { return m.A[i*m.C+j] }

// Set assigns element (i, j).
func (m *CDense) Set(i, j int, v complex128) { m.A[i*m.C+j] = v }

// Clone returns a deep copy.
func (m *CDense) Clone() *CDense {
	n := NewCDense(m.R, m.C)
	copy(n.A, m.A)
	return n
}

// Mul returns m*b.
func (m *CDense) Mul(b *CDense) *CDense {
	if m.C != b.R {
		panic("mat: CDense Mul shape mismatch")
	}
	out := NewCDense(m.R, b.C)
	for i := 0; i < m.R; i++ {
		arow := m.A[i*m.C : (i+1)*m.C]
		orow := out.A[i*b.C : (i+1)*b.C]
		for k, aik := range arow {
			if aik == 0 {
				continue
			}
			brow := b.A[k*b.C : (k+1)*b.C]
			for j, bkj := range brow {
				orow[j] += aik * bkj
			}
		}
	}
	return out
}

// MulVec computes dst = m*x for complex vectors.
func (m *CDense) MulVec(dst, x []complex128) {
	if len(x) != m.C || len(dst) != m.R {
		panic("mat: CDense MulVec length mismatch")
	}
	for i := 0; i < m.R; i++ {
		row := m.A[i*m.C : (i+1)*m.C]
		var s complex128
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
}

// MaxAbs returns the largest element modulus.
func (m *CDense) MaxAbs() float64 {
	mx := 0.0
	for _, v := range m.A {
		if a := cmplx.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// Complex vector helpers.

// CDot returns the unconjugated product xᵀy (bilinear, matching the
// real-coefficient algebra used by the transfer-function formulas).
func CDot(x, y []complex128) complex128 {
	if len(x) != len(y) {
		panic("mat: CDot length mismatch")
	}
	var s complex128
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// CNorm2 returns the Euclidean norm of a complex vector.
func CNorm2(x []complex128) float64 {
	s := 0.0
	for _, v := range x {
		s += real(v)*real(v) + imag(v)*imag(v)
	}
	return math.Sqrt(s)
}

// CAxpy computes y += a*x.
func CAxpy(a complex128, x, y []complex128) {
	if len(x) != len(y) {
		panic("mat: CAxpy length mismatch")
	}
	for i, v := range x {
		y[i] += a * v
	}
}

// ToComplex widens a real vector.
func ToComplex(x []float64) []complex128 {
	y := make([]complex128, len(x))
	for i, v := range x {
		y[i] = complex(v, 0)
	}
	return y
}

// RealPart extracts the real parts of x.
func RealPart(x []complex128) []float64 {
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = real(v)
	}
	return y
}

// ImagPart extracts the imaginary parts of x.
func ImagPart(x []complex128) []float64 {
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = imag(v)
	}
	return y
}
