// Package mat provides small dense real and complex matrices and the
// vector kernels used throughout avtmor.
//
// Matrices are row-major. Dimensions in this code base are moderate
// (n ≲ a few hundred on the dense side), so the package favours clarity
// and numerical robustness over blocking and cache tricks.
package mat

import (
	"fmt"
	"math"
	"strings"
)

// Dense is a row-major dense real matrix.
type Dense struct {
	R, C int
	A    []float64 // len R*C, element (i,j) at A[i*C+j]
}

// NewDense returns an r×c zero matrix.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %d×%d", r, c))
	}
	return &Dense{R: r, C: c, A: make([]float64, r*c)}
}

// FromRows builds a matrix from row slices, which must be equal length.
func FromRows(rows [][]float64) *Dense {
	r := len(rows)
	if r == 0 {
		return NewDense(0, 0)
	}
	c := len(rows[0])
	m := NewDense(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic("mat: ragged rows")
		}
		copy(m.A[i*c:(i+1)*c], row)
	}
	return m
}

// Eye returns the n×n identity.
func Eye(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.A[i*n+i] = 1
	}
	return m
}

// Diag returns a square matrix with d on the diagonal.
func Diag(d []float64) *Dense {
	n := len(d)
	m := NewDense(n, n)
	for i, v := range d {
		m.A[i*n+i] = v
	}
	return m
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.A[i*m.C+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.A[i*m.C+j] = v }

// Add increments element (i, j) by v.
func (m *Dense) Add(i, j int, v float64) { m.A[i*m.C+j] += v }

// Row returns a view of row i (shared storage).
func (m *Dense) Row(i int) []float64 { return m.A[i*m.C : (i+1)*m.C] }

// Col returns a copy of column j.
func (m *Dense) Col(j int) []float64 {
	v := make([]float64, m.R)
	for i := 0; i < m.R; i++ {
		v[i] = m.A[i*m.C+j]
	}
	return v
}

// SetCol assigns column j from v.
func (m *Dense) SetCol(j int, v []float64) {
	if len(v) != m.R {
		panic("mat: SetCol length mismatch")
	}
	for i := 0; i < m.R; i++ {
		m.A[i*m.C+j] = v[i]
	}
}

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	n := NewDense(m.R, m.C)
	copy(n.A, m.A)
	return n
}

// T returns the transpose as a new matrix.
func (m *Dense) T() *Dense {
	t := NewDense(m.C, m.R)
	for i := 0; i < m.R; i++ {
		for j := 0; j < m.C; j++ {
			t.A[j*t.C+i] = m.A[i*m.C+j]
		}
	}
	return t
}

// Scale multiplies every element by s, in place, and returns m.
func (m *Dense) Scale(s float64) *Dense {
	for i := range m.A {
		m.A[i] *= s
	}
	return m
}

// AddScaled adds s*b to m in place (m and b must be the same shape).
func (m *Dense) AddScaled(s float64, b *Dense) *Dense {
	if m.R != b.R || m.C != b.C {
		panic("mat: AddScaled shape mismatch")
	}
	for i := range m.A {
		m.A[i] += s * b.A[i]
	}
	return m
}

// Sub returns m - b as a new matrix.
func (m *Dense) Sub(b *Dense) *Dense {
	out := m.Clone()
	return out.AddScaled(-1, b)
}

// Plus returns m + b as a new matrix.
func (m *Dense) Plus(b *Dense) *Dense {
	out := m.Clone()
	return out.AddScaled(1, b)
}

// Mul returns m*b as a new matrix.
func (m *Dense) Mul(b *Dense) *Dense {
	if m.C != b.R {
		panic(fmt.Sprintf("mat: Mul shape mismatch %d×%d · %d×%d", m.R, m.C, b.R, b.C))
	}
	out := NewDense(m.R, b.C)
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

// MulVec computes dst = m*x. dst must have length m.R and must not alias x.
// Four rows advance together so that their sum chains overlap; each row
// still sums its products in ascending column order.
func (m *Dense) MulVec(dst, x []float64) {
	if len(x) != m.C || len(dst) != m.R {
		panic("mat: MulVec length mismatch")
	}
	c := m.C
	i := 0
	for ; i+4 <= m.R; i += 4 {
		r0, r1, r2, r3 := m.A[i*c:(i+1)*c], m.A[(i+1)*c:(i+2)*c], m.A[(i+2)*c:(i+3)*c], m.A[(i+3)*c:(i+4)*c]
		var s0, s1, s2, s3 float64
		for j, xj := range x {
			s0 += r0[j] * xj
			s1 += r1[j] * xj
			s2 += r2[j] * xj
			s3 += r3[j] * xj
		}
		dst[i], dst[i+1], dst[i+2], dst[i+3] = s0, s1, s2, s3
	}
	for ; i < m.R; i++ {
		row := m.A[i*c : (i+1)*c]
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
}

// MulVecTo is the in-place multiply under its batch-era name: it is
// exactly MulVec (dst = m*x, no allocation).
func (m *Dense) MulVecTo(dst, x []float64) { m.MulVec(dst, x) }

// MulVecT computes dst = mᵀ*x. dst must have length m.C and must not alias x.
func (m *Dense) MulVecT(dst, x []float64) {
	if len(x) != m.R || len(dst) != m.C {
		panic("mat: MulVecT length mismatch")
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < m.R; i++ {
		row := m.A[i*m.C : (i+1)*m.C]
		xi := x[i]
		if xi == 0 {
			continue
		}
		for j, v := range row {
			dst[j] += v * xi
		}
	}
}

// MaxAbs returns the largest absolute element value (0 for empty).
func (m *Dense) MaxAbs() float64 {
	mx := 0.0
	for _, v := range m.A {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// FrobNorm returns the Frobenius norm.
func (m *Dense) FrobNorm() float64 {
	s := 0.0
	for _, v := range m.A {
		s += v * v
	}
	return math.Sqrt(s)
}

// Norm1 returns the maximum absolute column sum.
func (m *Dense) Norm1() float64 {
	sums := make([]float64, m.C)
	for i := 0; i < m.R; i++ {
		for j := 0; j < m.C; j++ {
			sums[j] += math.Abs(m.A[i*m.C+j])
		}
	}
	mx := 0.0
	for _, s := range sums {
		if s > mx {
			mx = s
		}
	}
	return mx
}

// Equalish reports whether m and b agree elementwise within tol.
func (m *Dense) Equalish(b *Dense, tol float64) bool {
	if m.R != b.R || m.C != b.C {
		return false
	}
	for i := range m.A {
		if math.Abs(m.A[i]-b.A[i]) > tol {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging.
func (m *Dense) String() string {
	var sb strings.Builder
	for i := 0; i < m.R; i++ {
		for j := 0; j < m.C; j++ {
			fmt.Fprintf(&sb, "% .6g ", m.At(i, j))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
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
