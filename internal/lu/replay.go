package lu

import (
	"context"
	"math"
	"sync"

	"avtmor/internal/mat"
)

// Record and replay of a dense factorization over a fixed sparsity
// pattern. A stiff transient factors thousands of Newton matrices whose
// nonzeros all lie on one pattern P, and whose factors hold far fewer
// nonzeros than n²: FactorInPlace sweeps every entry anyway. A Record
// keeps what one FactorInPlace run did structurally (its pivot
// sequence, each step's pivot candidates in the order the kernel scans
// them, and the elimination pattern S, which is P plus the fill that
// pivot sequence creates), and Refactor then factors a new matrix on P
// touching only S.
//
// Bit-exactness contract: a completed Refactor gives every entry of S
// the operations FactorInPlace would give it, in the same order, so its
// factors, and every solve through them, carry the same bits as a fresh
// FactorInPlace of the same matrix. Off S the fresh factors hold exact
// zeros. The operations Refactor skips are the kernel's updates by
// those zeros (ri[j] −= l·0, s −= 0·x[j]), which can change only the
// sign of an entry that is itself zero. The replay does not trust the
// recorded pivots: at every step it re-runs the kernel's max-magnitude
// scan over the recorded candidates and rejects on the first pivot that
// differs from the record. A rejection is not an error; the caller
// factors fresh and records again.

// Record is the structural record of one FactorInPlace run over a known
// sparsity pattern. Its structure is immutable once built and may serve
// any number of Refactor calls, concurrently if their matrices differ.
// The Refactored factorizations it yields share its solve scratch, so
// their solves take its lock in turn.
type Record struct {
	n   int
	piv []int // factor row i is row piv[i] of A
	// cand[candPtr[k]:candPtr[k+1]] are the rows with an entry of S in
	// column k that are unpivoted at step k, in the order the kernel
	// scans them: by their position in the partially permuted matrix.
	// front[k] is the row at position k then, where the scan starts.
	candPtr []int32
	cand    []int32
	front   []int32
	// The columns of factor row i in S: lcol[lptr[i]:lptr[i+1]] below
	// the diagonal, ucol[uptr[i]:uptr[i+1]] above it, both ascending.
	lptr, lcol []int32
	uptr, ucol []int32
	// fill lists the cells r·n + c of S outside P, which Refactor zeroes
	// before it eliminates.
	fill []int

	mu      sync.Mutex
	scratch []float64 // guarded by mu; grown to the widest batch
}

// NewRecord records the factorization f, which FactorInPlace computed
// from a matrix whose nonzeros all lie on the pattern given in
// compressed-row form (row r's columns are colIdx[rowPtr[r]:rowPtr[r+1]]).
// Every matrix later passed to Refactor must have its nonzeros on the
// same pattern. NewRecord returns nil when the pattern does not hold a
// pivot of f, that is, when f did not come from a matrix on it.
func NewRecord(f *LU, rowPtr, colIdx []int) *Record {
	n := f.N()
	if len(rowPtr) != n+1 {
		panic("lu: NewRecord pattern row count mismatch")
	}
	inS := make([]bool, n*n)
	for r := 0; r < n; r++ {
		for _, c := range colIdx[rowPtr[r]:rowPtr[r+1]] {
			inS[r*n+c] = true
		}
	}
	rec := &Record{
		n:       n,
		piv:     append([]int(nil), f.piv...),
		candPtr: make([]int32, n+1),
		front:   make([]int32, n),
		lptr:    make([]int32, n+1),
		uptr:    make([]int32, n+1),
	}
	// Replay the kernel's row swaps: the row it brought to position k is
	// piv[k], which stays there once step k is done.
	pos := make([]int, n) // row → position
	at := make([]int, n)  // position → row
	for i := range pos {
		pos[i], at[i] = i, i
	}
	var ucols []int32
	for k := 0; k < n; k++ {
		pr := rec.piv[k]
		rec.front[k] = int32(at[k])
		first := len(rec.cand)
		for i := k; i < n; i++ {
			if r := at[i]; inS[r*n+k] {
				rec.cand = append(rec.cand, int32(r))
			}
		}
		rec.candPtr[k+1] = int32(len(rec.cand))
		p := pos[pr]
		at[p], at[k] = at[k], pr
		pos[at[p]], pos[pr] = p, k
		// The pivot row is final once it pivots: later fill lands only in
		// unpivoted rows. Its columns past k spread into every other
		// candidate row.
		ucols = ucols[:0]
		for j := k + 1; j < n; j++ {
			if inS[pr*n+j] {
				ucols = append(ucols, int32(j))
			}
		}
		pivotFound := false
		for _, r32 := range rec.cand[first:] {
			r := int(r32)
			if r == pr {
				pivotFound = true
				continue
			}
			for _, j := range ucols {
				if c := r*n + int(j); !inS[c] {
					inS[c] = true
					rec.fill = append(rec.fill, c)
				}
			}
		}
		if !pivotFound {
			return nil
		}
	}
	// Column k of S is final at step k (fill lands right of the pivot
	// column only), so the final S splits into each factor row's L and
	// U columns.
	for i, r := range rec.piv {
		row := inS[r*n : (r+1)*n]
		for j := 0; j < i; j++ {
			if row[j] {
				rec.lcol = append(rec.lcol, int32(j))
			}
		}
		rec.lptr[i+1] = int32(len(rec.lcol))
		for j := i + 1; j < n; j++ {
			if row[j] {
				rec.ucol = append(rec.ucol, int32(j))
			}
		}
		rec.uptr[i+1] = int32(len(rec.ucol))
	}
	return rec
}

// NNZ returns the number of entries of the recorded elimination pattern
// S: the factors' L and U entries plus the diagonal.
func (rec *Record) NNZ() int { return rec.n + len(rec.lcol) + len(rec.ucol) }

// Refactor factors a in place through the record, reading a only on the
// recorded pattern: a's entries on P must hold the new matrix, the fill
// cells are zeroed here, and no other cell is read or written. The
// Refactored factors then own a's storage, as FactorInPlace's do. ok is
// false, with a holding a partial elimination, when a step's pivot
// differs from the recorded one; err is ErrSingular when a pivot column
// holds no nonzero candidate, at the step FactorInPlace would report.
func (rec *Record) Refactor(a *mat.Dense) (f *Refactored, ok bool, err error) {
	f, _, err = rec.refactor(a)
	return f, f != nil, err
}

// refactor is Refactor reporting the step that rejected the record or
// found the matrix singular (n after a completed factorization).
func (rec *Record) refactor(a *mat.Dense) (*Refactored, int, error) {
	n := rec.n
	if a.R != n || a.C != n {
		panic("lu: Refactor shape mismatch")
	}
	w := a.A
	for _, c := range rec.fill {
		w[c] = 0
	}
	for k := 0; k < n; k++ {
		cands := rec.cand[rec.candPtr[k]:rec.candPtr[k+1]]
		// FactorInPlace starts its scan at position k and moves to a later
		// row only on a strictly larger magnitude; rows off S hold zeros
		// and can never move it.
		front := int(rec.front[k])
		p, best := front, 0.0
		for ci, r32 := range cands {
			r := int(r32)
			v := math.Abs(w[r*n+k])
			if ci == 0 && r == front {
				best = v
				continue
			}
			if v > best {
				p, best = r, v
			}
		}
		if best == 0 {
			return nil, k, ErrSingular
		}
		pr := rec.piv[k]
		if p != pr {
			return nil, k, nil
		}
		rk := w[pr*n : (pr+1)*n]
		us := rec.ucol[rec.uptr[k]:rec.uptr[k+1]]
		lo, hi := span(us)
		inv := 1 / rk[k]
		for _, r32 := range cands {
			r := int(r32)
			if r == pr {
				continue
			}
			ri := w[r*n : (r+1)*n]
			l := ri[k] * inv
			ri[k] = l
			if l == 0 {
				continue
			}
			if hi-lo == len(us) {
				// The pivot row's U columns are one contiguous block.
				dst, src := ri[lo:hi], rk[lo:hi]
				for j := range dst {
					dst[j] -= l * src[j]
				}
				continue
			}
			for _, j := range us {
				ri[j] -= l * rk[j]
			}
		}
	}
	return &Refactored{rec: rec, lu: a}, n, nil
}

// Refactored is a factorization computed by Record.Refactor. Its factors
// live in the refactored matrix's storage, each factor row in the row of
// A it came from, and its solves read only the recorded pattern.
type Refactored struct {
	rec *Record
	lu  *mat.Dense
}

// N returns the matrix dimension.
func (f *Refactored) N() int { return f.rec.n }

// Solve computes x with A x = b, writing into dst (dst may alias b).
func (f *Refactored) Solve(dst, b []float64) {
	if len(b) != f.N() || len(dst) != f.N() {
		panic("lu: Solve length mismatch")
	}
	rec := f.rec
	rec.mu.Lock()
	defer rec.mu.Unlock()
	x := grow(&rec.scratch, f.N())
	_ = f.sweep(nil, x, b) // a nil ctx never aborts
	copy(dst, x)
}

// SolveBatch solves A·x = cols[c] for every column, in place, with the
// bits of LU.SolveBatch on the fresh factors (see Record).
func (f *Refactored) SolveBatch(cols [][]float64) {
	_ = f.solveBatch(nil, cols)
}

// SolveBatchCtx is SolveBatch with cooperative cancellation, polled as
// in LU.SolveBatchCtx; on abort the columns are left untouched.
func (f *Refactored) SolveBatchCtx(ctx context.Context, cols [][]float64) error {
	return f.solveBatch(ctx, cols)
}

func (f *Refactored) solveBatch(ctx context.Context, cols [][]float64) error {
	n := f.N()
	if len(cols) == 0 {
		return nil
	}
	for _, c := range cols {
		if len(c) != n {
			panic("lu: SolveBatch length mismatch")
		}
	}
	rec := f.rec
	rec.mu.Lock()
	defer rec.mu.Unlock()
	x := grow(&rec.scratch, len(cols)*n)
	for c, col := range cols {
		if err := f.sweep(ctx, x[c*n:(c+1)*n], col); err != nil {
			return err
		}
	}
	for c, col := range cols {
		copy(col, x[c*n:(c+1)*n])
	}
	return nil
}

// sweep writes the solution of A·x = b into x: both triangular
// substitutions of LU.Solve, each row summing its recorded columns in
// ascending order, which is the dense row sum without its zero terms.
func (f *Refactored) sweep(ctx context.Context, x, b []float64) error {
	rec, w, n := f.rec, f.lu.A, f.rec.n
	for i, r := range rec.piv {
		x[i] = b[r]
	}
	for i := 1; i < n; i++ {
		if ctx != nil && i%batchCtxStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		row := w[rec.piv[i]*n : (rec.piv[i]+1)*n]
		x[i] = subDot(x[i], row, x, rec.lcol[rec.lptr[i]:rec.lptr[i+1]])
	}
	for i := n - 1; i >= 0; i-- {
		if ctx != nil && i%batchCtxStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		row := w[rec.piv[i]*n : (rec.piv[i]+1)*n]
		x[i] = subDot(x[i], row, x, rec.ucol[rec.uptr[i]:rec.uptr[i+1]]) / row[i]
	}
	return nil
}

// subDot returns s − Σ row[j]·x[j] over the ascending columns cols,
// subtracted in that order.
func subDot(s float64, row, x []float64, cols []int32) float64 {
	if lo, hi := span(cols); hi-lo == len(cols) {
		r, xs := row[lo:hi], x[lo:hi]
		for j, v := range r {
			s -= v * xs[j]
		}
		return s
	}
	for _, j := range cols {
		s -= row[j] * x[j]
	}
	return s
}

// span returns the column range an ascending column list lies in: the
// list is that whole range exactly when hi − lo equals its length.
func span(cols []int32) (lo, hi int) {
	if len(cols) == 0 {
		return 0, 0
	}
	return int(cols[0]), int(cols[len(cols)-1]) + 1
}

// MinAbsPivot returns the smallest |U_ii|.
func (f *Refactored) MinAbsPivot() float64 {
	n := f.N()
	if n == 0 {
		return 0
	}
	m := math.Inf(1)
	for i, r := range f.rec.piv {
		if v := math.Abs(f.lu.A[r*n+i]); v < m {
			m = v
		}
	}
	return m
}
