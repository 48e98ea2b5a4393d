package assoc

import (
	"fmt"
	"sort"

	"avtmor/internal/mat"
	"avtmor/internal/sparse"
)

// gather evaluates G·(Q⊗…⊗Q)·x̃ for a sparse G ∈ R^{rows×nᵈ} without
// mapping x̃ out of Schur coordinates. Only the columns G uses are
// formed, one mode at a time from the trailing (fastest) index, and
// each partial contraction is shared by every column with the same
// trailing indices: the first mode costs nᵈ per distinct trailing
// index (at most n^{d+1}), each further mode n^{d−j} per distinct
// trailing j-tuple, against d·n^{d+1} for the full back-transform.
type gather struct {
	n, d, rows int
	q          *mat.Dense
	// The nonzeros of G, ordered by their column's digits read from
	// the trailing one, so columns sharing trailing indices are
	// adjacent at every level of the contraction.
	ents []gatherEnt
}

type gatherEnt struct {
	col, row int
	val      float64
}

// newGather prepares the contraction of g (rows × nᵈ) against the
// orthogonal factor q (n×n).
func newGather(g *sparse.CSR, q *mat.Dense, d int) *gather {
	n := q.R
	size := 1
	for i := 0; i < d; i++ {
		size *= n
	}
	if g.Cols != size {
		panic(fmt.Sprintf("assoc: gather of a %d-column matrix over n=%d, d=%d", g.Cols, n, d))
	}
	ents := make([]gatherEnt, 0, g.NNZ())
	for r := 0; r < g.Rows; r++ {
		for k := g.RowPtr[r]; k < g.RowPtr[r+1]; k++ {
			ents = append(ents, gatherEnt{col: g.ColIdx[k], row: r, val: g.Val[k]})
		}
	}
	reversed := func(c int) int {
		rev := 0
		for i := 0; i < d; i++ {
			rev = rev*n + c%n
			c /= n
		}
		return rev
	}
	sort.SliceStable(ents, func(a, b int) bool { return reversed(ents[a].col) < reversed(ents[b].col) })
	return &gather{n: n, d: d, rows: g.Rows, q: q, ents: ents}
}

// apply sets dst[β·rows + r] = (G·(Q⊗…⊗Q)·x̃_β)[r] for every block
// x̃_β = t[β·nᵈ : (β+1)·nᵈ] of t.
func (g *gather) apply(dst, t []float64) {
	clear(dst)
	g.walk(dst, t, g.d, 0, len(g.ents))
}

// fiberBlock is the number of length-n fibers contracted against every
// selected row of Q before moving on, so each block of the tensor is
// read from memory once per level rather than once per row.
const fiberBlock = 32

// walk contracts the trailing mode of t (batch·n^m entries) against the
// rows of Q named by that digit of the columns in [lo, hi), then
// recurses once per distinct digit.
func (g *gather) walk(dst, t []float64, m, lo, hi int) {
	if m == 0 {
		// t[β] is this column's entry of (Q⊗…⊗Q)·x̃_β.
		for _, e := range g.ents[lo:hi] {
			for b, tb := range t {
				dst[b*g.rows+e.row] += e.val * tb
			}
		}
		return
	}
	div := 1
	for i := m; i < g.d; i++ {
		div *= g.n
	}
	digit := func(k int) int { return g.ents[k].col / div % g.n }
	type span struct{ digit, lo, hi int }
	var spans []span
	for lo < hi {
		end := lo + 1
		for end < hi && digit(end) == digit(lo) {
			end++
		}
		spans = append(spans, span{digit(lo), lo, end})
		lo = end
	}
	n := g.n
	size := len(t) / n
	next := make([]float64, len(spans)*size)
	for f0 := 0; f0 < size; f0 += fiberBlock {
		f1 := min(f0+fiberBlock, size)
		for si, sp := range spans {
			contractLast(next[si*size+f0:si*size+f1], t[f0*n:f1*n], g.q.Row(sp.digit))
		}
	}
	for si, sp := range spans {
		g.walk(dst, next[si*size:(si+1)*size], m-1, sp.lo, sp.hi)
	}
}

// contractLast sets next[f] = Σ_k t[f·n+k]·q[k] for every length-n
// fiber f of t, four fibers at a time so that no sum waits on another.
func contractLast(next, t, q []float64) {
	n := len(q)
	f := 0
	for ; f+4 <= len(next); f += 4 {
		t0 := t[f*n : (f+1)*n][:n]
		t1 := t[(f+1)*n : (f+2)*n][:n]
		t2 := t[(f+2)*n : (f+3)*n][:n]
		t3 := t[(f+3)*n : (f+4)*n][:n]
		var s0, s1, s2, s3 float64
		for k, qk := range q {
			s0 += qk * t0[k]
			s1 += qk * t1[k]
			s2 += qk * t2[k]
			s3 += qk * t3[k]
		}
		next[f], next[f+1], next[f+2], next[f+3] = s0, s1, s2, s3
	}
	for ; f < len(next); f++ {
		next[f] = mat.Dot(t[f*n:(f+1)*n], q)
	}
}
