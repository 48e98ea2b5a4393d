package solver

import (
	"context"
	"math"
	"sync"
	"sync/atomic"

	"avtmor/internal/sparse"
)

// Symbolic/numeric split of the sparse LU. One factorization's cost has
// two unequal halves: the symbolic analysis (RCM preorder, CSC
// conversion, per-column reachability DFS, fill-pattern discovery, slab
// layout) depends only on the sparsity pattern, while the numeric phase
// (scatter, left-looking updates, pivoting, division) depends on the
// values. Every shifted pencil G + σ·C of a multipoint reduce and every
// Newton matrix of a stiff transient shares one pattern, so the
// analysis is pure per-pattern overhead that the pre-split code paid
// per factorization. A symbolicLU records the analysis once; Refactor
// then fills fresh values into the recorded structure with no DFS, no
// toCSC, no RCM.
//
// Bit-exactness contract: a completed Refactor is bit-identical to
// factorCSR on the same operand. The replay does not trust the
// recorded pivots — it re-runs the fresh selection rule (strict
// max-magnitude scan plus the Markowitz relaxation, over the recorded
// scan order, which equals the fresh scan order while all earlier
// pivots agree) and rejects on the first disagreement. An exactly-zero
// L candidate also rejects: the fresh path drops such entries from the
// pattern, which changes downstream reachability, so the recorded
// structure no longer describes what a fresh factorization would do.
// Rejection is not an error — the caller falls back to one fresh full
// factorization (which may also re-record). ROMs therefore stay
// byte-identical whether or not a symbolic cache is interposed.

// symbolicLU is the per-pattern symbolic object: everything a
// factorization of one sparsity pattern computes that its values cannot
// change. All fields are immutable after factorCSRRecord returns; the
// structural slices (colperm, prow, lptr/lidx, uptr/uidx) are shared by
// every spLU refactored from this object.
type symbolicLU struct {
	n int
	// Pattern identity of the analyzed operand. These alias the analyzed
	// CSR's index slabs (CSR structure is immutable by convention in this
	// codebase); matches compares against them before any reuse.
	rowPtr []int
	colIdx []int
	// Structure shared with every refactored spLU.
	colperm []int
	prow    []int
	lptr    []int32
	lidx    []int32
	uptr    []int32
	uidx    []int32
	// Replay state. rowStepAll maps original row → pivot step of the
	// recorded sequence (-1 never pivoted cannot occur: every row pivots
	// exactly once); "pivoted before step k" during replay is
	// rowStepAll[r] < k, which equals the fresh rowStep test while all
	// earlier pivots agree. rowCount is the static Markowitz weight
	// (original nonzeros per row — structural).
	rowStepAll []int
	rowCount   []int
	// CSC view of the pattern: column j's slots are cscPtr[j]:cscPtr[j+1]
	// and cscSrc maps each slot to its CSR value index — the gather map
	// that re-scatters fresh values without rebuilding the CSC.
	cscPtr []int
	cscSrc []int32
	// Per-step scatter pattern in the exact append order of the recording
	// factorization: prows[pptr[k]:pptr[k+1]], the first
	// cscPtr[j+1]-cscPtr[j] entries being column j's A rows in CSC order,
	// the rest the DFS fill in discovery order. The order is load-bearing:
	// the pivot replay's strict comparisons make ties fall to the
	// earliest-scanned row, exactly as in the fresh scan.
	pptr  []int32
	prows []int32
}

// matches reports whether a carries exactly the analyzed sparsity
// pattern. Shared index slabs short-circuit; otherwise one O(nnz)
// integer compare — noise next to even a numeric-only refactor.
func (s *symbolicLU) matches(a *sparse.CSR) bool {
	if a.Rows != s.n || a.Cols != s.n || len(a.ColIdx) != len(s.colIdx) {
		return false
	}
	if &a.RowPtr[0] == &s.rowPtr[0] && (len(s.colIdx) == 0 || &a.ColIdx[0] == &s.colIdx[0]) {
		return true
	}
	for i, p := range s.rowPtr {
		if a.RowPtr[i] != p {
			return false
		}
	}
	for i, c := range s.colIdx {
		if a.ColIdx[i] != c {
			return false
		}
	}
	return true
}

// Refactor fills fresh numeric values into the recorded structure — no
// DFS, no CSC rebuild, no RCM — and reports ok=false when threshold
// pivoting rejects the recorded pivot sequence for these values (or a
// computed L entry is exactly zero, which would have changed the fresh
// pattern). The caller answers a rejection with one fresh full
// factorization; a completed refactor is bit-identical to what that
// fresh factorization would have produced. a must match the recorded
// pattern (the caller checks matches).
func (s *symbolicLU) Refactor(ctx context.Context, a *sparse.CSR) (f *spLU, ok bool, err error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	n := s.n
	// The step scratch is the first half of the new factorization's
	// solve scratch, sized for a one-column solve.
	scratch := make([]float64, 2*n)
	f = &spLU{
		n:       n,
		colperm: s.colperm,
		prow:    s.prow,
		lptr:    s.lptr,
		lidx:    s.lidx,
		uptr:    s.uptr,
		uidx:    s.uidx,
		lval:    make([]float64, len(s.lidx)),
		uval:    make([]float64, len(s.uidx)),
		d:       make([]float64, n),
		scratch: scratch,
	}
	scale := 0.0
	for _, v := range a.Val {
		if av := math.Abs(v); av > scale {
			scale = av
		}
	}
	x := scratch[:n]
	for k := 0; k < n; k++ {
		if k%ctxCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, false, err
			}
		}
		if !s.refactorStep(f, a.Val, scale, k, x) {
			return nil, false, nil
		}
	}
	return f, true, nil
}

// refactorStep computes step k's numeric column into f using scratch x
// (length n, arbitrary prior contents — every read slot is written by
// the scatter first). It returns false when the recorded pivot sequence
// is rejected for these values.
func (s *symbolicLU) refactorStep(f *spLU, vals []float64, scale float64, k int, x []float64) bool {
	j := s.colperm[k]
	rows := s.prows[s.pptr[k]:s.pptr[k+1]]
	c0 := s.cscPtr[j]
	na := s.cscPtr[j+1] - c0
	// Scatter A[:, j] through the recorded gather map, zero the fill.
	for i, r := range rows {
		if i < na {
			x[r] = vals[s.cscSrc[c0+i]]
		} else {
			x[r] = 0
		}
	}
	// Left-looking updates in the recorded application order (fresh
	// stores uidx in reverse postorder, i.e. already in the order it
	// applied them — replay walks it forward).
	for q := int(s.uptr[k]); q < int(s.uptr[k+1]); q++ {
		st := s.uidx[q]
		uv := x[s.prow[st]]
		f.uval[q] = uv
		if uv != 0 {
			for p := int(s.lptr[st]); p < int(s.lptr[st+1]); p++ {
				x[s.lidx[p]] -= f.lval[p] * uv
			}
		}
	}
	// Pivot replay: re-run the fresh selection rule over the recorded
	// scan order and reject on any disagreement with the recorded pivot.
	best, vmax := -1, 0.0
	for _, r32 := range rows {
		r := int(r32)
		if st := s.rowStepAll[r]; st < k {
			continue // pivoted at an earlier step of the agreed sequence
		}
		if av := math.Abs(x[r]); av > vmax {
			vmax, best = av, r
		}
	}
	if best < 0 || vmax == 0 || (scale > 0 && vmax < 1e-300*scale) {
		return false // fresh would report ErrSingular; let it say so
	}
	pivot := best
	bestCount := s.rowCount[pivot]
	for _, r32 := range rows {
		r := int(r32)
		if s.rowStepAll[r] < k || r == pivot {
			continue
		}
		if av := math.Abs(x[r]); av >= defaultPivotTol*vmax && s.rowCount[r] < bestCount {
			pivot, bestCount = r, s.rowCount[r]
		}
	}
	if pivot != s.prow[k] {
		return false
	}
	piv := x[pivot]
	f.d[k] = piv
	for p := int(s.lptr[k]); p < int(s.lptr[k+1]); p++ {
		v := x[s.lidx[p]]
		if v == 0 {
			return false // fresh would drop this entry and change the pattern
		}
		f.lval[p] = v / piv
	}
	return true
}

// SymbolicCache holds one symbolic analysis and serves numeric-only
// refactorizations against it. It is the reuse unit the layers above
// hold per system: ShiftedCache keeps one for G + σ·C across all
// shifts, ode.TrapezoidalSolverCtx one across all Newton matrices of a
// transient. The zero value is ready to use; a nil *SymbolicCache
// degrades to plain backend factorization.
type SymbolicCache struct {
	mu  sync.Mutex
	sym *symbolicLU // guarded by mu

	analyses  atomic.Int64 // full symbolic+numeric factorizations recorded
	refactors atomic.Int64 // factorizations served numeric-only
}

// Stats reports how many factorizations paid the full symbolic
// analysis and how many were served numeric-only from the cached
// pattern.
func (c *SymbolicCache) Stats() (analyses, refactors int64) {
	if c == nil {
		return 0, 0
	}
	return c.analyses.Load(), c.refactors.Load()
}

// FactorCtx factors m through ls, serving the numeric-only path when ls
// resolves to the sparse backend and m matches the cached pattern. On a
// pattern miss or a pivot rejection it runs the fresh factorization and
// re-records the symbolic object (the new pattern, or the pivot
// sequence that suits the new values). Dense-routed operands pass
// through untouched. Results are bit-identical to ls.FactorCtx in every
// case — the cache changes the cost of a factorization, never its bits.
func (c *SymbolicCache) FactorCtx(ctx context.Context, ls LinearSolver, m *Matrix) (Factorization, error) {
	if a, ok := ls.(Auto); ok {
		ls = a.Pick(m)
	}
	if _, ok := ls.(Sparse); !ok || c == nil {
		return ls.FactorCtx(ctx, m)
	}
	a := m.AsCSR()
	c.mu.Lock()
	sym := c.sym
	c.mu.Unlock()
	if sym != nil && sym.matches(a) {
		f, ok, err := sym.Refactor(ctx, a)
		if err != nil {
			return nil, err
		}
		if ok {
			c.refactors.Add(1)
			return f, nil
		}
	}
	f, rec, err := factorCSRRecord(ctx, a, true)
	if err != nil {
		return nil, err
	}
	c.analyses.Add(1)
	if rec != nil {
		c.mu.Lock()
		c.sym = rec
		c.mu.Unlock()
	}
	return f, nil
}
