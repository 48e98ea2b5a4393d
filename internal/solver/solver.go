// Package solver is the sparse-direct spine of avtmor: a LinearSolver
// abstraction over the square real systems that dominate the paper's
// runtime — the shift-inverted Krylov back-solves of the moment
// generation (§2.3's "one LU of G1, then cheap back-solves per moment")
// and the Newton steps of the implicit transient integrators. A
// LinearSolver factors an operand once (FactorCtx); the Factorization
// then serves Solve, the batched SolveBatch/SolveBatchCtx and the
// MinAbsPivot near-singularity witness.
//
// Two backends implement the interface: the existing dense LU with
// partial pivoting (package lu, O(n³) factor / O(n²) solve) and a sparse
// LU over CSR with a fill-reducing RCM preorder and threshold/Markowitz
// pivoting (O(nnz·fill) factor, O(nnz(L+U)) solve). Auto picks by
// dimension and nonzero density, which is what every layer above — the
// associated-transform realizations, NORM, and ode.TrapezoidalSolverCtx —
// consumes by default.
package solver

import (
	"context"
	"errors"
	"math"
	"sync"

	"avtmor/internal/lu"
	"avtmor/internal/mat"
	"avtmor/internal/sparse"
)

// ErrSingular is returned when a factorization encounters a vanishing
// pivot column.
var ErrSingular = errors.New("solver: matrix is singular")

// Factorization is a ready-to-reuse triangular factorization of a square
// matrix A: the factor step is paid once, back-solves are cheap. A
// Factorization is safe for concurrent solves (scratch comes from a
// shared pool, never from factorization state).
type Factorization interface {
	// Solve computes x with A·x = b, writing into dst (dst may alias b).
	Solve(dst, b []float64)
	// SolveBatch solves A·x = cols[c] for every column of the batch, in
	// place: each column is read as a right-hand side and overwritten
	// with its solution. One traversal of the factor structure serves
	// the whole batch (column-major inner loops), and per-column
	// arithmetic is identical to a loop of Solve calls — results are
	// bit-exact either way. Columns must not alias one another.
	SolveBatch(cols [][]float64)
	// SolveBatchCtx is SolveBatch with cooperative cancellation: ctx is
	// polled along the substitution sweeps, and on abort the columns
	// are left untouched (solutions scatter back only on completion).
	SolveBatchCtx(ctx context.Context, cols [][]float64) error
	// MinAbsPivot returns the smallest |U_ii| — the cheap
	// near-singularity witness the shifted-system callers check against
	// the matrix scale.
	MinAbsPivot() float64
}

// Matrix is a square solver operand carrying a dense and/or a CSR
// representation; either may be nil, and conversions are cached. Large
// circuits carry only the CSR side, which is what makes the n ≈ 10³–10⁴
// regime reachable without ever materializing n² dense entries.
//
// The cached conversions make the Matrix stateful, and ShiftedCache
// hands the same operand to concurrent factorizations, so every access
// to the representation fields is mutex-guarded.
type Matrix struct {
	mu    sync.Mutex
	dense *mat.Dense  // guarded by mu
	csr   *sparse.CSR // guarded by mu
	// scratch is set at construction (Scratch) and never changes: the
	// dense backend may factor the dense side in place.
	scratch bool
}

// FromDense wraps a dense operand.
func FromDense(d *mat.Dense) *Matrix { return &Matrix{dense: d} }

// Scratch wraps a dense operand the caller gives up: the dense backend
// factors it in place, and the Factorization then owns d's storage. The
// caller must not read or write d again until it has dropped that
// Factorization — refilling d for the next factorization is fine once
// the previous one is dead. The sparse backend copies d to CSR as for
// FromDense and never writes it.
func Scratch(d *mat.Dense) *Matrix { return &Matrix{dense: d, scratch: true} }

// FromCSR wraps a sparse operand.
func FromCSR(c *sparse.CSR) *Matrix { return &Matrix{csr: c} }

// Operand bundles whichever representations exist (either may be nil,
// not both).
func Operand(d *mat.Dense, c *sparse.CSR) *Matrix {
	if d == nil && c == nil {
		panic("solver: empty operand")
	}
	return &Matrix{dense: d, csr: c}
}

// N returns the matrix dimension.
func (m *Matrix) N() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.csr != nil {
		return m.csr.Rows
	}
	return m.dense.R
}

// HasDense reports whether a dense representation is present.
func (m *Matrix) HasDense() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dense != nil
}

// NNZ returns the stored-nonzero count (falls back to a dense scan).
func (m *Matrix) NNZ() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.csr != nil {
		return m.csr.NNZ()
	}
	nnz := 0
	for _, v := range m.dense.A {
		if v != 0 {
			nnz++
		}
	}
	return nnz
}

// AsDense returns (and caches) the dense representation.
func (m *Matrix) AsDense() *mat.Dense {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dense == nil {
		m.dense = m.csr.Dense()
	}
	return m.dense
}

// AsCSR returns (and caches) the sparse representation.
func (m *Matrix) AsCSR() *sparse.CSR {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.csr == nil {
		m.csr = sparse.FromDense(m.dense)
	}
	return m.csr
}

// MaxAbs returns max |a_ij|, the scale the near-singularity checks
// normalize against.
func (m *Matrix) MaxAbs() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.csr != nil {
		worst := 0.0
		for _, v := range m.csr.Val {
			if a := math.Abs(v); a > worst {
				worst = a
			}
		}
		return worst
	}
	return m.dense.MaxAbs()
}

// LinearSolver factors solver operands.
type LinearSolver interface {
	// Name identifies the backend ("dense", "sparse", "auto").
	Name() string
	// FactorCtx computes a factorization of a; a is not modified,
	// except that a Scratch operand's dense storage may become the
	// factors. Long factorizations (the sparse-LU column loop) poll ctx
	// and abort with its error, so a caller that gives up on a
	// reduction is not stuck behind an O(nnz·fill) factor step.
	FactorCtx(ctx context.Context, a *Matrix) (Factorization, error)
}

// Dense is the dense-LU backend (partial pivoting, package lu).
type Dense struct{}

// Name returns "dense".
func (Dense) Name() string { return "dense" }

// FactorCtx runs the dense LU (the ctx is checked on entry only; the
// dense kernel is a tight third-party-free loop kept check-free). A
// Scratch operand is factored in place; any other is cloned first.
func (Dense) FactorCtx(ctx context.Context, a *Matrix) (Factorization, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	factor := lu.Factor
	if a.scratch {
		factor = lu.FactorInPlace
	}
	f, err := factor(a.AsDense())
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Sparse is the sparse-LU backend (RCM preorder, threshold pivoting with
// a Markowitz-style sparsity tie-break).
type Sparse struct{}

// Name returns "sparse".
func (Sparse) Name() string { return "sparse" }

// FactorCtx runs the sparse LU of splu.go, polling ctx along the
// column loop.
func (Sparse) FactorCtx(ctx context.Context, a *Matrix) (Factorization, error) {
	return factorCSR(ctx, a.AsCSR())
}

// Auto routing thresholds: below AutoDenseCutoff states the dense LU's
// simplicity wins (and matches the seed's numerics bit for bit); above
// it, matrices sparser than autoMaxDensity go through the sparse LU.
// AutoDenseCutoff is exported so layers that assemble operands before
// routing (ode's Newton matrices) stay in sync with the policy.
const (
	AutoDenseCutoff = 256
	autoMaxDensity  = 0.05
)

// Auto selects dense vs sparse per operand by dimension and density.
type Auto struct{}

// Name returns "auto".
func (Auto) Name() string { return "auto" }

// Pick returns the backend Auto would route a to.
func (Auto) Pick(m *Matrix) LinearSolver {
	n := m.N()
	if n < AutoDenseCutoff && m.HasDense() {
		return Dense{}
	}
	nnz := m.NNZ()
	if float64(nnz) <= autoMaxDensity*float64(n)*float64(n) || !m.HasDense() {
		return Sparse{}
	}
	return Dense{}
}

// FactorCtx routes to the picked backend with cancellation.
func (a Auto) FactorCtx(ctx context.Context, m *Matrix) (Factorization, error) {
	return a.Pick(m).FactorCtx(ctx, m)
}

// Kind names a backend selection policy for the layers above (core's
// Options, the experiment harness, cmd flags).
type Kind int

const (
	// KindAuto picks per matrix by size and density (the default).
	KindAuto Kind = iota
	// KindDense forces the dense LU.
	KindDense
	// KindSparse forces the sparse LU.
	KindSparse
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindDense:
		return "dense"
	case KindSparse:
		return "sparse"
	default:
		return "auto"
	}
}

// ByKind returns the backend for a policy.
func ByKind(k Kind) LinearSolver {
	switch k {
	case KindDense:
		return Dense{}
	case KindSparse:
		return Sparse{}
	default:
		return Auto{}
	}
}
