package solver

import (
	"context"
	"fmt"
	"math"
	"sync"

	"avtmor/internal/sparse"
)

// Sparse LU: a left-looking Gilbert–Peierls factorization P·A·Q = L·U
// over CSR input. Q is the fill-reducing RCM column preorder (order.go);
// P is chosen per column by threshold pivoting — any row within
// defaultPivotTol of the column maximum is eligible, and the eligible
// row with the fewest original nonzeros wins (the Markowitz bias toward
// sparse pivot rows). Each column costs one symbolic reachability DFS
// over the partial L plus a numeric scatter/gather, so the total work
// is proportional to the flops of the fill-in actually produced, not
// n³.

// defaultPivotTol is the threshold-pivoting relaxation: a row is
// pivot-eligible when |candidate| ≥ defaultPivotTol·|column max|.
const defaultPivotTol = 0.1

// spLU is the sparse Factorization. The triangular factors are stored
// flat, CSC-style: column k of L occupies lidx/lval[lptr[k]:lptr[k+1]]
// (original-row indices and multipliers, unit diagonal implicit) and
// column k of U occupies uidx/uval[uptr[k]:uptr[k+1]] (earlier-step
// indices and values, diagonal in d). Flat slabs instead of per-column
// slices keep the factor build to O(log nnz) allocations — append-grown
// in step order, each column finalized before the next begins — and
// give the solves one contiguous metadata stream to traverse. The
// solves work in one scratch slice the factorization owns, so solves on
// one spLU take its lock in turn.
type spLU struct {
	n       int
	colperm []int // factored column k ↔ original column colperm[k]
	prow    []int // pivot (original) row of step k
	lptr    []int32
	lidx    []int32
	lval    []float64
	uptr    []int32
	uidx    []int32
	uval    []float64
	d       []float64

	mu sync.Mutex
	// scratch holds a batch's residuals in its first half and its
	// step-ordered solutions in the second.
	scratch []float64 // guarded by mu; grown to the widest batch
}

// halves returns two length-m halves of f's scratch with undefined
// contents, growing the scratch when it is shorter than 2m. Caller
// holds f.mu.
func (f *spLU) halves(m int) (res, z []float64) {
	if len(f.scratch) < 2*m {
		f.scratch = make([]float64, 2*m)
	}
	return f.scratch[:m], f.scratch[m : 2*m]
}

// ctxCheckStride is how many factored columns pass between ctx polls:
// coarse enough to stay invisible in the profile, fine enough that a
// canceled multi-thousand-column factorization aborts in well under a
// Krylov-step's worth of work.
const ctxCheckStride = 256

// factorCSR computes the factorization; a is not modified. ctx is
// polled every ctxCheckStride columns.
func factorCSR(ctx context.Context, a *sparse.CSR) (*spLU, error) {
	f, _, err := factorCSRRecord(ctx, a, false)
	return f, err
}

// factorCSRRecord is factorCSR with optional symbolic recording: with
// record set it additionally returns the symbolicLU capturing this
// factorization's pattern, pivot sequence, and scan orders for later
// numeric-only refactorizations (symbolic.go). The numeric path is
// byte-identical either way — recording only copies structure aside.
// The symbolic result is nil (with a valid factorization) when any L
// candidate was exactly zero: the fresh path drops such entries, so the
// recorded pattern would not describe what a fresh factorization of
// slightly different values does, and the replay's bit-exactness
// argument needs the recorded L structure to be drop-free.
func factorCSRRecord(ctx context.Context, a *sparse.CSR, record bool) (*spLU, *symbolicLU, error) {
	if a.Rows != a.Cols {
		return nil, nil, fmt.Errorf("solver: sparse LU needs a square matrix, got %d×%d", a.Rows, a.Cols)
	}
	n := a.Rows
	f := &spLU{
		n:       n,
		colperm: rcmOrder(a),
		prow:    make([]int, n),
		lptr:    make([]int32, n+1),
		lidx:    make([]int32, 0, a.NNZ()),
		lval:    make([]float64, 0, a.NNZ()),
		uptr:    make([]int32, n+1),
		uidx:    make([]int32, 0, a.NNZ()),
		uval:    make([]float64, 0, a.NNZ()),
		d:       make([]float64, n),
	}
	// CSC view of A (column pointers into row-index/value arrays).
	colPtr, rowIdx, vals, cscSrc := toCSC(a, record)
	var rec *symbolicLU
	if record {
		rec = &symbolicLU{
			n:      n,
			rowPtr: a.RowPtr,
			colIdx: a.ColIdx,
			cscPtr: colPtr,
			cscSrc: cscSrc,
			pptr:   make([]int32, n+1),
			prows:  make([]int32, 0, 2*a.NNZ()),
		}
	}
	dropped := false // an exactly-zero L candidate poisons the recording
	// Static Markowitz row weights: original nonzeros per row.
	rowCount := make([]int, n)
	for r := 0; r < n; r++ {
		rowCount[r] = a.RowPtr[r+1] - a.RowPtr[r]
	}
	rowStep := make([]int, n) // original row → pivot step, -1 while unpivoted
	for i := range rowStep {
		rowStep[i] = -1
	}
	x := make([]float64, n)       // sparse accumulator over original rows
	inPat := make([]int, n)       // stamp: row already in this column's pattern
	visited := make([]int, n)     // stamp: step already on the DFS reach
	pattern := make([]int, 0, 16) // nonzero original rows of the working column
	topo := make([]int, 0, 16)    // reached steps in DFS postorder
	dfsStack := make([]int, 0, 16)
	posStack := make([]int, 0, 16)
	scale := 0.0
	for _, v := range a.Val {
		if av := math.Abs(v); av > scale {
			scale = av
		}
	}
	for k := 0; k < n; k++ {
		if k%ctxCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
		}
		j := f.colperm[k]
		stamp := k + 1
		pattern = pattern[:0]
		topo = topo[:0]
		// Scatter A[:, j] and run the reachability DFS from its pivoted
		// rows: step s reaches step t when prow[t] appears in L[:, s],
		// and every row of a reached step's L column joins the pattern.
		for p := colPtr[j]; p < colPtr[j+1]; p++ {
			r := rowIdx[p]
			x[r] = vals[p]
			inPat[r] = stamp
			pattern = append(pattern, r)
		}
		for p := colPtr[j]; p < colPtr[j+1]; p++ {
			if s := rowStep[rowIdx[p]]; s >= 0 && visited[s] != stamp {
				dfsStack = append(dfsStack[:0], s)
				posStack = append(posStack[:0], 0)
				visited[s] = stamp
				for len(dfsStack) > 0 {
					top := len(dfsStack) - 1
					s := dfsStack[top]
					advanced := false
					l0, l1 := int(f.lptr[s]), int(f.lptr[s+1])
					for pos := posStack[top]; pos < l1-l0; pos++ {
						r := int(f.lidx[l0+pos])
						if inPat[r] != stamp {
							inPat[r] = stamp
							pattern = append(pattern, r)
							x[r] = 0
						}
						if t := rowStep[r]; t >= 0 && visited[t] != stamp {
							posStack[top] = pos + 1
							dfsStack = append(dfsStack, t)
							posStack = append(posStack, 0)
							visited[t] = stamp
							advanced = true
							break
						}
					}
					if !advanced {
						topo = append(topo, s)
						dfsStack = dfsStack[:top]
						posStack = posStack[:top]
					}
				}
			}
		}
		// The pattern is complete once the DFS ends; record its exact
		// append order — the pivot replay's strict comparisons make ties
		// fall to the earliest-scanned row, so scan order is structure.
		if record {
			for _, r := range pattern {
				rec.prows = append(rec.prows, int32(r))
			}
			rec.pptr[k+1] = int32(len(rec.prows))
		}
		// Numeric left-looking updates in topological (reverse-postorder)
		// dependency order.
		for i := len(topo) - 1; i >= 0; i-- {
			s := topo[i]
			uv := x[f.prow[s]]
			if uv != 0 {
				for p := int(f.lptr[s]); p < int(f.lptr[s+1]); p++ {
					x[f.lidx[p]] -= f.lval[p] * uv
				}
			}
			f.uidx = append(f.uidx, int32(s))
			f.uval = append(f.uval, uv)
		}
		// Pivot: max-magnitude row, relaxed to the sparsest row within
		// defaultPivotTol of the maximum.
		best, vmax := -1, 0.0
		for _, r := range pattern {
			if rowStep[r] >= 0 {
				continue
			}
			if av := math.Abs(x[r]); av > vmax {
				vmax, best = av, r
			}
		}
		if best < 0 || vmax == 0 || (scale > 0 && vmax < 1e-300*scale) {
			return nil, nil, fmt.Errorf("%w (column %d)", ErrSingular, j)
		}
		pivot := best
		bestCount := rowCount[pivot]
		for _, r := range pattern {
			if rowStep[r] >= 0 || r == pivot {
				continue
			}
			if av := math.Abs(x[r]); av >= defaultPivotTol*vmax && rowCount[r] < bestCount {
				pivot, bestCount = r, rowCount[r]
			}
		}
		piv := x[pivot]
		f.d[k] = piv
		f.prow[k] = pivot
		rowStep[pivot] = k
		for _, r := range pattern {
			if rowStep[r] >= 0 {
				continue
			}
			if v := x[r]; v != 0 {
				f.lidx = append(f.lidx, int32(r))
				f.lval = append(f.lval, v/piv)
			} else {
				dropped = true
			}
		}
		f.lptr[k+1] = int32(len(f.lidx))
		f.uptr[k+1] = int32(len(f.uidx))
	}
	if record && !dropped {
		rec.colperm = f.colperm
		rec.prow = f.prow
		rec.lptr, rec.lidx = f.lptr, f.lidx
		rec.uptr, rec.uidx = f.uptr, f.uidx
		rec.rowStepAll = rowStep
		rec.rowCount = rowCount
		return f, rec, nil
	}
	return f, nil, nil
}

// toCSC builds column-compressed access to a CSR matrix. With withSrc
// it also returns each CSC slot's CSR value index — the gather map a
// symbolic recording keeps so numeric refactorizations can re-scatter
// fresh values without rebuilding the CSC (src is nil otherwise).
func toCSC(a *sparse.CSR, withSrc bool) (colPtr, rowIdx []int, vals []float64, src []int32) {
	n := a.Cols
	colPtr = make([]int, n+1)
	for _, c := range a.ColIdx {
		colPtr[c+1]++
	}
	for c := 0; c < n; c++ {
		colPtr[c+1] += colPtr[c]
	}
	rowIdx = make([]int, len(a.ColIdx))
	vals = make([]float64, len(a.Val))
	if withSrc {
		src = make([]int32, len(a.Val))
	}
	next := append([]int(nil), colPtr...)
	for r := 0; r < a.Rows; r++ {
		for k := a.RowPtr[r]; k < a.RowPtr[r+1]; k++ {
			c := a.ColIdx[k]
			rowIdx[next[c]] = r
			vals[next[c]] = a.Val[k]
			if withSrc {
				src[next[c]] = int32(k)
			}
			next[c]++
		}
	}
	return colPtr, rowIdx, vals, src
}

// Solve computes x with A·x = b (dst may alias b). It works in the
// factorization's scratch, so chain iterations solve allocation-free.
func (f *spLU) Solve(dst, b []float64) {
	n := f.n
	if len(b) != n || len(dst) != n {
		panic("solver: sparse Solve length mismatch")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	// Forward: L·z = b over steps, consuming the residual in row space.
	res, z := f.halves(n)
	copy(res, b)
	for k := 0; k < n; k++ {
		zk := res[f.prow[k]]
		z[k] = zk
		if zk == 0 {
			continue
		}
		for p := int(f.lptr[k]); p < int(f.lptr[k+1]); p++ {
			res[f.lidx[p]] -= f.lval[p] * zk
		}
	}
	// Backward: U·w = z, column-oriented.
	for k := n - 1; k >= 0; k-- {
		wk := z[k] / f.d[k]
		z[k] = wk
		if wk == 0 {
			continue
		}
		for p := int(f.uptr[k]); p < int(f.uptr[k+1]); p++ {
			z[f.uidx[p]] -= f.uval[p] * wk
		}
	}
	for k := 0; k < n; k++ {
		dst[f.colperm[k]] = z[k]
	}
}

// SolveBatch solves A·x = cols[c] for every column, in place: each
// column is read as a right-hand side and overwritten with its
// solution. One traversal of the factor's step metadata (pivot rows,
// column pointers) serves the whole batch, with a column-major inner
// loop over the right-hand sides; per-column arithmetic is identical to
// a loop of Solve calls, so results are bit-exact either way. Columns
// must not alias one another.
func (f *spLU) SolveBatch(cols [][]float64) {
	_ = f.solveBatch(nil, cols)
}

// SolveBatchCtx is SolveBatch with cooperative cancellation, polled
// every batchCtxStride steps. On abort the columns are left untouched —
// solutions only scatter back once the whole batch completes.
func (f *spLU) SolveBatchCtx(ctx context.Context, cols [][]float64) error {
	return f.solveBatch(ctx, cols)
}

func (f *spLU) solveBatch(ctx context.Context, cols [][]float64) error {
	n := f.n
	k := len(cols)
	if k == 0 {
		return nil
	}
	for _, c := range cols {
		if len(c) != n {
			panic("solver: sparse SolveBatch length mismatch")
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	res, z := f.halves(k * n)
	for c, col := range cols {
		copy(res[c*n:(c+1)*n], col)
	}
	for step := 0; step < n; step++ {
		if ctx != nil && step%batchSolveCtxStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		pr := f.prow[step]
		p0, p1 := int(f.lptr[step]), int(f.lptr[step+1])
		for c := 0; c < k; c++ {
			rc := res[c*n : c*n+n]
			zk := rc[pr]
			z[c*n+step] = zk
			if zk == 0 {
				continue
			}
			for p := p0; p < p1; p++ {
				rc[f.lidx[p]] -= f.lval[p] * zk
			}
		}
	}
	for step := n - 1; step >= 0; step-- {
		if ctx != nil && step%batchSolveCtxStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		dk := f.d[step]
		p0, p1 := int(f.uptr[step]), int(f.uptr[step+1])
		for c := 0; c < k; c++ {
			zc := z[c*n : c*n+n]
			wk := zc[step] / dk
			zc[step] = wk
			if wk == 0 {
				continue
			}
			for p := p0; p < p1; p++ {
				zc[f.uidx[p]] -= f.uval[p] * wk
			}
		}
	}
	for c, col := range cols {
		zc := z[c*n : (c+1)*n]
		for step := 0; step < n; step++ {
			col[f.colperm[step]] = zc[step]
		}
	}
	return nil
}

// batchSolveCtxStride is the per-step ctx poll cadence of the batched
// sparse substitution.
const batchSolveCtxStride = 512

// MinAbsPivot returns min |U_kk|.
func (f *spLU) MinAbsPivot() float64 {
	if f.n == 0 {
		return 0
	}
	m := math.Abs(f.d[0])
	for _, v := range f.d[1:] {
		if a := math.Abs(v); a < m {
			m = a
		}
	}
	return m
}
