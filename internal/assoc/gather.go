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
//
// A gather is built for one chain or one probe and applied by one
// goroutine at a time: the recursion keeps its digit spans and partial
// contractions in per-level buffers, grown on first use.
type gather struct {
	n, d, rows int
	q          *mat.Dense
	// The nonzeros of G, ordered by their column's digits read from
	// the trailing one, so columns sharing trailing indices are
	// adjacent at every level of the contraction.
	ents []gatherEnt
	// spans[m-1] and next[m-1] are the level-m digit spans and partial
	// contractions of walk. Every entry the recursion reads is written
	// first, so stale contents from an earlier application never leak.
	spans [][]gatherSpan
	next  [][]float64
}

type gatherEnt struct {
	col, row int
	val      float64
}

// gatherSpan is a run ents[lo:hi] sharing one digit at a level.
type gatherSpan struct{ digit, lo, hi int }

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
	return &gather{n: n, d: d, rows: g.Rows, q: q, ents: ents,
		spans: make([][]gatherSpan, d), next: make([][]float64, d)}
}

// apply sets dst[β·rows + r] = (G·(Q⊗…⊗Q)·x̃_β)[r] for every block
// x̃_β = t[β·nᵈ : (β+1)·nᵈ] of t.
func (g *gather) apply(dst, t []float64) {
	clear(dst)
	g.walk(dst, t, g.d, 0, len(g.ents), false)
}

// applySym is apply for an n³-entry t that keeps every entry when its
// two slowest indices swap: a batch of n blocks of a fully symmetric
// n³ tensor, or one fully symmetric n³ tensor. The first contraction
// is then symmetric in those indices, so only its upper triangle is
// formed and the rest mirrored; every value is bit-identical to
// apply's, since mirrored fibers hold the same entries.
func (g *gather) applySym(dst, t []float64) {
	if len(t) != g.n*g.n*g.n {
		panic("assoc: symmetric gather of a tensor that is not n³")
	}
	clear(dst)
	g.walk(dst, t, g.d, 0, len(g.ents), true)
}

// fiberBlock is the number of length-n fibers contracted against every
// selected row of Q before moving on, so each block of the tensor is
// read from memory once per group of digits rather than once per row.
const fiberBlock = 32

// spanBuf bounds the partial contractions one level holds at once
// (1 MiB). Unbounded, the first level of a batch-n, d = 2 gather (the
// quadratic H3 chain) would hold one n² block per distinct digit
// beside the n³ tensor, 8 MB at n = 100, and that pair would set the
// heap's high-water mark.
const spanBuf = 1 << 17

// walk contracts the trailing mode of t (batch·n^m entries) against the
// rows of Q named by that digit of the columns in [lo, hi), then
// recurses once per distinct digit. sym marks an n³-entry t whose
// fiber i·n+j equals fiber j·n+i (see applySym).
func (g *gather) walk(dst, t []float64, m, lo, hi int, sym bool) {
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
	spans := g.spans[m-1][:0]
	for lo < hi {
		end := lo + 1
		for end < hi && digit(end) == digit(lo) {
			end++
		}
		spans = append(spans, gatherSpan{digit(lo), lo, end})
		lo = end
	}
	g.spans[m-1] = spans
	n := g.n
	size := len(t) / n
	// The fibers to contract: all of them, or for a symmetric t the
	// fibers i·n+j with j ≥ i, row by row.
	rows, width := 1, size
	if sym {
		rows, width = n, n
	}
	// The digits are contracted a group at a time into one buffer, so
	// the partial contractions held at once stay near spanBuf entries
	// however many distinct digits G uses.
	group := min(len(spans), max(1, spanBuf/size))
	if len(g.next[m-1]) < group*size {
		g.next[m-1] = make([]float64, group*size)
	}
	next := g.next[m-1]
	for g0 := 0; g0 < len(spans); g0 += group {
		grp := spans[g0:min(g0+group, len(spans))]
		for i := 0; i < rows; i++ {
			start, end := i*width, (i+1)*width
			if sym {
				start += i
			}
			for f0 := start; f0 < end; f0 += fiberBlock {
				f1 := min(f0+fiberBlock, end)
				for si, sp := range grp {
					contractLast(next[si*size+f0:si*size+f1], t[f0*n:f1*n], g.q.Row(sp.digit))
				}
			}
		}
		for si, sp := range grp {
			out := next[si*size : (si+1)*size]
			if sym {
				for i := 1; i < n; i++ {
					for j := 0; j < i; j++ {
						out[i*n+j] = out[j*n+i]
					}
				}
			}
			g.walk(dst, out, m-1, sp.lo, sp.hi, false)
		}
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
