// Package lu implements LU factorization with partial pivoting for dense
// real and complex matrices, with solve, inverse, and determinant helpers.
//
// Shift-invert Krylov iteration (paper §2.3: "expanding at s = 0 ... at the
// expense of computing the matrix factorization (e.g., LU) of G1 for once")
// needs exactly this: factor once, back-solve many times.
package lu

import (
	"context"
	"errors"
	"math"
	"sync"

	"avtmor/internal/mat"
)

// ErrSingular is returned when a pivot vanishes (to working precision the
// matrix is not invertible).
var ErrSingular = errors.New("lu: matrix is singular")

// LU holds a factorization P·A = L·U of a real square matrix. Its
// solves work in one scratch slice the factorization owns, so solves on
// one LU take its lock in turn.
type LU struct {
	lu  *mat.Dense
	piv []int // row i of lu came from row piv[i] of A

	mu      sync.Mutex
	scratch []float64 // guarded by mu; grown to the widest batch
}

// Factor computes the LU factorization of a. The input is not modified:
// Factor is FactorInPlace on a clone.
func Factor(a *mat.Dense) (*LU, error) {
	return FactorInPlace(a.Clone())
}

// FactorInPlace computes the LU factorization of a in a's own storage,
// which the returned LU keeps as its factors: the caller hands a over
// and must not read or write it while the factorization is in use. On
// error a holds a partial elimination.
func FactorInPlace(a *mat.Dense) (*LU, error) {
	f, _, err := factorInPlace(a)
	return f, err
}

// factorInPlace is FactorInPlace reporting, on ErrSingular, the
// elimination step whose pivot column held no nonzero candidate.
func factorInPlace(a *mat.Dense) (*LU, int, error) {
	if a.R != a.C {
		return nil, 0, errors.New("lu: matrix must be square")
	}
	n := a.R
	f := &LU{lu: a, piv: make([]int, n)}
	for i := range f.piv {
		f.piv[i] = i
	}
	w := f.lu
	for k := 0; k < n; k++ {
		p, best := k, math.Abs(w.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(w.At(i, k)); v > best {
				p, best = i, v
			}
		}
		if best == 0 {
			return nil, k, ErrSingular
		}
		if p != k {
			swapRows(w, p, k)
			f.piv[p], f.piv[k] = f.piv[k], f.piv[p]
		}
		inv := 1 / w.At(k, k)
		for i := k + 1; i < n; i++ {
			l := w.At(i, k) * inv
			w.Set(i, k, l)
			if l == 0 {
				continue
			}
			ri, rk := w.Row(i), w.Row(k)
			for j := k + 1; j < n; j++ {
				ri[j] -= l * rk[j]
			}
		}
	}
	return f, n, nil
}

// N returns the matrix dimension.
func (f *LU) N() int { return f.lu.R }

// Solve computes x with A x = b, writing into dst (dst may alias b).
// The permuted working copy is the factorization's scratch, so
// steady-state chain iterations solve without allocating.
func (f *LU) Solve(dst, b []float64) {
	n := f.N()
	if len(b) != n || len(dst) != n {
		panic("lu: Solve length mismatch")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	x := grow(&f.scratch, n)
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	w := f.lu
	for i := 1; i < n; i++ {
		row := w.Row(i)
		s := x[i]
		for j := 0; j < i; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s
	}
	for i := n - 1; i >= 0; i-- {
		row := w.Row(i)
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
	}
	copy(dst, x)
}

// SolveBatch solves A·x = cols[c] for every column of the batch, in
// place: each cols[c] is read as a right-hand side and overwritten with
// its solution. The substitution sweeps the triangular factors once per
// batch with a column-major inner loop over the right-hand sides, so
// every factor row is fetched once for the whole batch instead of once
// per column; per-column arithmetic is identical (same operations, same
// order) to a loop of Solve calls, so results are bit-exact either way.
// Columns must not alias one another.
func (f *LU) SolveBatch(cols [][]float64) {
	_ = f.solveBatch(nil, cols)
}

// SolveBatchCtx is SolveBatch with cooperative cancellation: ctx is
// polled between row sweeps (every batchCtxStride rows). On abort the
// columns are left untouched — solutions only scatter back once the
// whole batch completes.
func (f *LU) SolveBatchCtx(ctx context.Context, cols [][]float64) error {
	return f.solveBatch(ctx, cols)
}

// batchCtxStride is the row cadence of ctx polls inside a batched
// substitution — coarse enough to vanish from the profile, fine enough
// that a canceled large solve aborts in a few thousand row updates.
const batchCtxStride = 512

func (f *LU) solveBatch(ctx context.Context, cols [][]float64) error {
	n := f.N()
	k := len(cols)
	if k == 0 {
		return nil
	}
	for _, c := range cols {
		if len(c) != n {
			panic("lu: SolveBatch length mismatch")
		}
	}
	// Contiguous k×n scratch: column c lives at [c*n, (c+1)*n).
	f.mu.Lock()
	defer f.mu.Unlock()
	x := grow(&f.scratch, k*n)
	for c, col := range cols {
		xc := x[c*n : (c+1)*n]
		for i := 0; i < n; i++ {
			xc[i] = col[f.piv[i]]
		}
	}
	w := f.lu
	for i := 1; i < n; i++ {
		if ctx != nil && i%batchCtxStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		row := w.Row(i)
		for c := 0; c < k; c++ {
			xc := x[c*n : c*n+n]
			s := xc[i]
			for j := 0; j < i; j++ {
				s -= row[j] * xc[j]
			}
			xc[i] = s
		}
	}
	for i := n - 1; i >= 0; i-- {
		if ctx != nil && i%batchCtxStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		row := w.Row(i)
		for c := 0; c < k; c++ {
			xc := x[c*n : c*n+n]
			s := xc[i]
			for j := i + 1; j < n; j++ {
				s -= row[j] * xc[j]
			}
			xc[i] = s / row[i]
		}
	}
	for c, col := range cols {
		copy(col, x[c*n:(c+1)*n])
	}
	return nil
}

// MinAbsPivot returns the smallest |U_ii| of the factorization — a cheap
// near-singularity witness: for a structurally rank-deficient matrix it
// sits at rounding level relative to the matrix scale.
func (f *LU) MinAbsPivot() float64 {
	n := f.N()
	if n == 0 {
		return 0
	}
	m := math.Abs(f.lu.At(0, 0))
	for i := 1; i < n; i++ {
		if v := math.Abs(f.lu.At(i, i)); v < m {
			m = v
		}
	}
	return m
}

// Solve is a convenience one-shot solve of A x = b.
func Solve(a *mat.Dense, b []float64) ([]float64, error) {
	f, err := Factor(a)
	if err != nil {
		return nil, err
	}
	x := make([]float64, len(b))
	f.Solve(x, b)
	return x, nil
}

// grow returns (*buf)[:n] with undefined contents, replacing *buf by a
// length-n slice when it is shorter.
func grow(buf *[]float64, n int) []float64 {
	if len(*buf) < n {
		*buf = make([]float64, n)
	}
	return (*buf)[:n]
}

func swapRows(m *mat.Dense, i, j int) {
	ri, rj := m.Row(i), m.Row(j)
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}
