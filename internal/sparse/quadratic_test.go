package sparse

import (
	"math"
	"math/rand"
	"testing"
)

// The indexed transcriptions of QuadAddApply and QuadJacobian: one
// entry at a time, in CSR order, as the kernels ran before the full-row
// paths.

func quadAddApplyIndexed(m *CSR, dst []float64, a float64, x, y []float64) {
	n := len(x)
	for r := 0; r < m.Rows; r++ {
		s := 0.0
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			s += m.Val[k] * x[m.ColIdx[k]/n] * y[m.ColIdx[k]%n]
		}
		dst[r] += a * s
	}
}

func quadJacobianIndexed(m *CSR, dst []float64, a float64, x []float64) {
	n := len(x)
	for r := 0; r < m.Rows; r++ {
		row := dst[r*n : (r+1)*n]
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			p, q := m.ColIdx[k]/n, m.ColIdx[k]%n
			v := a * m.Val[k]
			row[p] += v * x[q]
			row[q] += v * x[p]
		}
	}
}

// signedVec draws a vector with exact and negative zeros among its
// entries.
func signedVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		switch rng.Intn(6) {
		case 0:
			v[i] = 0
		case 1:
			v[i] = math.Copysign(0, -1)
		default:
			v[i] = 2*rng.Float64() - 1
		}
	}
	return v
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestQuadFullRowsMatchIndexed pins the full-row paths of QuadAddApply
// and QuadJacobian (every monomial of every row stored, as in a
// projected ROM) to the indexed kernels bit for bit, for every row
// count up to nine so that each grouping remainder is covered, and
// checks that a G2 with one entry missing, or with its columns out of
// order, takes the indexed path with the same result.
func TestQuadFullRowsMatchIndexed(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for rows := 1; rows <= 9; rows++ {
		n := 2 + rng.Intn(6)
		b := NewBuilder(rows, n*n)
		for r := 0; r < rows; r++ {
			for c := 0; c < n*n; c++ {
				b.Add(r, c, 2*rng.Float64()-1)
			}
		}
		full := b.Build()
		if full.NNZ() != rows*n*n {
			t.Fatalf("the full G2 holds %d entries, want %d", full.NNZ(), rows*n*n)
		}
		b.Add(0, 0, -full.Val[0]) // cancels to an exact zero, which Build drops
		holed := b.Build()
		// A hand-made CSR with every count right but two columns of the
		// last row swapped is not a full G2 and must be read by its indices.
		swapped := &CSR{Rows: full.Rows, Cols: full.Cols, RowPtr: full.RowPtr,
			ColIdx: append([]int(nil), full.ColIdx...), Val: full.Val}
		last := len(swapped.ColIdx) - 1
		swapped.ColIdx[last], swapped.ColIdx[last-1] = swapped.ColIdx[last-1], swapped.ColIdx[last]
		for _, m := range []*CSR{full, holed, swapped} {
			for trial := 0; trial < 3; trial++ {
				x, y := signedVec(rng, n), signedVec(rng, n)
				a := []float64{1, -0.5, 3}[trial]
				dst := signedVec(rng, rows)
				want := append([]float64(nil), dst...)
				m.QuadAddApply(dst, a, x, y)
				quadAddApplyIndexed(m, want, a, x, y)
				sameBits(t, "QuadAddApply", dst, want)

				jac := signedVec(rng, rows*n)
				wantJ := append([]float64(nil), jac...)
				m.QuadJacobian(jac, a, x)
				quadJacobianIndexed(m, wantJ, a, x)
				sameBits(t, "QuadJacobian", jac, wantJ)
			}
		}
	}
}
