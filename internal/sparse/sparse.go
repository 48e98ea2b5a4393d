// Package sparse provides compressed-sparse-row matrices for the circuit
// matrices of the QLDAE model. The quadratic coupling G2 ∈ R^{n×n²} and
// cubic coupling G3 ∈ R^{n×n³} are far too large to hold densely, but each
// row has only a handful of nonzeros (one per nonlinear branch); CSR plus
// dedicated x⊗x / x⊗x⊗x evaluation kernels keep every RHS evaluation
// O(nnz) without ever materializing the Kronecker powers.
package sparse

import (
	"fmt"
	"sort"
	"sync/atomic"

	"avtmor/internal/mat"
)

// Coord is one COO triplet.
type Coord struct {
	Row, Col int
	Val      float64
}

// CSR is a compressed-sparse-row matrix.
type CSR struct {
	Rows, Cols int
	RowPtr     []int
	ColIdx     []int
	Val        []float64

	// Cached Kronecker factor indices of each nonzero (decoded from
	// ColIdx on first use by the Quad/Cube kernels); see quadIndex and
	// cubeIndex in quadratic.go.
	quad, cube atomic.Pointer[kronIndex]
}

// Builder accumulates COO triplets; duplicate coordinates sum.
type Builder struct {
	rows, cols int
	entries    []Coord
}

// NewBuilder returns a builder for a rows×cols matrix.
func NewBuilder(rows, cols int) *Builder {
	return &Builder{rows: rows, cols: cols}
}

// Reset empties the builder for reuse, keeping its entry capacity, so
// assembly loops that rebuild a same-shape matrix many times — the
// per-Newton-iteration Jacobians of a stiff transient — amortize the
// triplet slab instead of regrowing it every call.
func (b *Builder) Reset() { b.entries = b.entries[:0] }

// Add accumulates v at (r, c).
func (b *Builder) Add(r, c int, v float64) {
	if r < 0 || r >= b.rows || c < 0 || c >= b.cols {
		panic(fmt.Sprintf("sparse: index (%d,%d) out of %d×%d", r, c, b.rows, b.cols))
	}
	if v == 0 {
		return
	}
	b.entries = append(b.entries, Coord{r, c, v})
}

// Build converts to CSR, summing duplicates and dropping exact zeros.
func (b *Builder) Build() *CSR {
	sort.Slice(b.entries, func(i, j int) bool {
		if b.entries[i].Row != b.entries[j].Row {
			return b.entries[i].Row < b.entries[j].Row
		}
		return b.entries[i].Col < b.entries[j].Col
	})
	m := &CSR{Rows: b.rows, Cols: b.cols, RowPtr: make([]int, b.rows+1)}
	for i := 0; i < len(b.entries); {
		j := i
		v := 0.0
		for j < len(b.entries) && b.entries[j].Row == b.entries[i].Row && b.entries[j].Col == b.entries[i].Col {
			v += b.entries[j].Val
			j++
		}
		if v != 0 {
			m.ColIdx = append(m.ColIdx, b.entries[i].Col)
			m.Val = append(m.Val, v)
			m.RowPtr[b.entries[i].Row+1]++
		}
		i = j
	}
	for r := 0; r < b.rows; r++ {
		m.RowPtr[r+1] += m.RowPtr[r]
	}
	return m
}

// NNZ returns the number of stored nonzeros.
func (m *CSR) NNZ() int { return len(m.Val) }

// MulVec computes dst = M·x (dst must not alias x).
func (m *CSR) MulVec(dst, x []float64) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic("sparse: MulVec length mismatch")
	}
	for r := 0; r < m.Rows; r++ {
		s := 0.0
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			s += m.Val[k] * x[m.ColIdx[k]]
		}
		dst[r] = s
	}
}

// MulVecTo is the in-place multiply under its batch-era name: exactly
// MulVec (dst = M·x, no allocation), the named sibling of
// mat.Dense.MulVecTo.
func (m *CSR) MulVecTo(dst, x []float64) { m.MulVec(dst, x) }

// AddMulVec computes dst += a·M·x.
func (m *CSR) AddMulVec(dst []float64, a float64, x []float64) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic("sparse: AddMulVec length mismatch")
	}
	for r := 0; r < m.Rows; r++ {
		s := 0.0
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			s += m.Val[k] * x[m.ColIdx[k]]
		}
		dst[r] += a * s
	}
}

// Dense expands to a dense matrix (small sizes / tests).
func (m *CSR) Dense() *mat.Dense {
	d := mat.NewDense(m.Rows, m.Cols)
	m.DenseTo(d)
	return d
}

// DenseTo writes M into the same-shape dense d, overwriting all of it.
func (m *CSR) DenseTo(d *mat.Dense) {
	if d.R != m.Rows || d.C != m.Cols {
		panic("sparse: DenseTo shape mismatch")
	}
	mat.Zero(d.A)
	for r := 0; r < m.Rows; r++ {
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			d.Add(r, m.ColIdx[k], m.Val[k])
		}
	}
}

// FromDense converts a dense matrix, dropping zeros.
func FromDense(d *mat.Dense) *CSR {
	b := NewBuilder(d.R, d.C)
	for i := 0; i < d.R; i++ {
		for j := 0; j < d.C; j++ {
			if v := d.At(i, j); v != 0 {
				b.Add(i, j, v)
			}
		}
	}
	return b.Build()
}

// Eye returns the n×n identity in CSR form.
func Eye(n int) *CSR {
	m := &CSR{Rows: n, Cols: n, RowPtr: make([]int, n+1), ColIdx: make([]int, n), Val: make([]float64, n)}
	for i := 0; i < n; i++ {
		m.RowPtr[i+1] = i + 1
		m.ColIdx[i] = i
		m.Val[i] = 1
	}
	return m
}

// Add returns alpha·a + beta·b for same-shape operands (b may be nil,
// giving alpha·a). The row-merge keeps the result sorted without a
// builder round-trip, so shifted-system assembly (G + s·C) is O(nnz).
func Add(alpha float64, a *CSR, beta float64, b *CSR) *CSR {
	if b == nil {
		out := &CSR{Rows: a.Rows, Cols: a.Cols,
			RowPtr: append([]int(nil), a.RowPtr...),
			ColIdx: append([]int(nil), a.ColIdx...),
			Val:    make([]float64, len(a.Val))}
		for i, v := range a.Val {
			out.Val[i] = alpha * v
		}
		return out
	}
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("sparse: Add shape mismatch")
	}
	out := &CSR{Rows: a.Rows, Cols: a.Cols, RowPtr: make([]int, a.Rows+1)}
	for r := 0; r < a.Rows; r++ {
		ka, ea := a.RowPtr[r], a.RowPtr[r+1]
		kb, eb := b.RowPtr[r], b.RowPtr[r+1]
		for ka < ea || kb < eb {
			switch {
			case kb >= eb || (ka < ea && a.ColIdx[ka] < b.ColIdx[kb]):
				out.ColIdx = append(out.ColIdx, a.ColIdx[ka])
				out.Val = append(out.Val, alpha*a.Val[ka])
				ka++
			case ka >= ea || b.ColIdx[kb] < a.ColIdx[ka]:
				out.ColIdx = append(out.ColIdx, b.ColIdx[kb])
				out.Val = append(out.Val, beta*b.Val[kb])
				kb++
			default:
				out.ColIdx = append(out.ColIdx, a.ColIdx[ka])
				out.Val = append(out.Val, alpha*a.Val[ka]+beta*b.Val[kb])
				ka++
				kb++
			}
		}
		out.RowPtr[r+1] = len(out.ColIdx)
	}
	return out
}

// MulDense computes M·X for a dense right factor, O(nnz·X.C).
func (m *CSR) MulDense(x *mat.Dense) *mat.Dense {
	if m.Cols != x.R {
		panic("sparse: MulDense shape mismatch")
	}
	out := mat.NewDense(m.Rows, x.C)
	for r := 0; r < m.Rows; r++ {
		orow := out.Row(r)
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			v := m.Val[k]
			xrow := x.Row(m.ColIdx[k])
			for j, xv := range xrow {
				orow[j] += v * xv
			}
		}
	}
	return out
}
