package avtmor

import (
	"context"
	"errors"
	"time"

	"avtmor/internal/core"
)

// ROM is a reduced-order model — the durable artifact of a reduction.
// It simulates (Simulate), probes its frequency-domain error against
// the full model it was reduced from (H1Error, H2Error, H3Error),
// evaluates its own transfer function (TransferH1), lifts reduced
// states back to full coordinates (Lift), and serializes to a
// versioned binary format (WriteTo/ReadFrom) for caching and reuse
// across processes. A built or loaded ROM is safe for concurrent
// reads (Simulate, probes, TransferH1, WriteTo); ReadFrom replaces the
// contents and must not race with them.
type ROM struct {
	rom *core.ROM
	// shared marks a ROM owned by a Reducer cache; set once before the
	// instance is published to any caller. ReadFrom refuses to mutate
	// shared instances so one caller cannot poison the cache.
	shared bool
}

// Stats is the build report of a reduction. None of it is serialized:
// the artifact carries only what its cache key determines, so a ROM
// loaded by ReadROM or ReadFrom reports Order and zero elsewhere.
type Stats struct {
	// Candidates is the number of moment/Krylov vectors generated
	// before deflation; Order the final ROM dimension q.
	Candidates int
	Order      int
	// Build is the wall-clock time of subspace construction plus
	// projection.
	Build time.Duration
	// Backend names the linear-solver backend that factored the shifted
	// pencils ("dense" or "sparse", routed from the operand's size and
	// density); Factorizations counts the factor steps paid,
	// SolveCacheHits the factor requests answered by the shared cache
	// instead.
	Backend        string
	Factorizations int64
	SolveCacheHits int64
	// BatchSolves counts the block back-solve (SolveBatch) calls the
	// moment generators issued against the cached factorizations and
	// BatchColumns the right-hand-side columns those blocks carried —
	// BatchColumns/BatchSolves is the realized multi-RHS width. Allocs
	// is the approximate heap-allocation count of the build
	// (process-wide delta; concurrent activity inflates it).
	BatchSolves  int64
	BatchColumns int64
	Allocs       uint64
	// SymbolicAnalyses counts the sparse factor steps that paid a full
	// symbolic analysis (fill-pattern DFS, RCM preorder, CSC conversion)
	// and NumericRefactors those served numeric-only from the pencil's
	// recorded symbolic object. Every expansion shift of a reduction
	// presents one sparsity pattern, but a later shift refactors only
	// while threshold pivoting keeps the recorded pivot sequence;
	// otherwise it pays a fresh analysis. Widely spaced shifts usually
	// do. Dense-backend builds report zero for both.
	SymbolicAnalyses int64
	NumericRefactors int64
}

// Order returns the reduced dimension q.
func (r *ROM) Order() int { return r.rom.Sys.N }

// Method returns the reduction method, "assoc" or "norm".
func (r *ROM) Method() string { return r.rom.Method }

// Inputs returns the input count m.
func (r *ROM) Inputs() int { return r.rom.Sys.Inputs() }

// Outputs returns the output count p.
func (r *ROM) Outputs() int { return r.rom.Sys.Outputs() }

// FullStates returns the state dimension of the full model, or the
// projection-basis row count for a deserialized ROM (0 if the basis
// was not stored).
func (r *ROM) FullStates() int {
	if r.rom.Full != nil {
		return r.rom.Full.N
	}
	if r.rom.V != nil {
		return r.rom.V.R
	}
	return 0
}

// Stats returns the build report; a deserialized ROM reports only its
// Order.
func (r *ROM) Stats() Stats {
	s := r.rom.Stats
	return Stats{
		Candidates:     s.Candidates,
		Order:          s.Order,
		Build:          s.Build,
		Backend:        s.Backend,
		Factorizations: s.Factorizations,
		SolveCacheHits: s.SolveCacheHits,
		BatchSolves:    s.BatchSolves,
		BatchColumns:   s.BatchColumns,
		Allocs:         s.Allocs,

		SymbolicAnalyses: s.SymbolicAnalyses,
		NumericRefactors: s.NumericRefactors,
	}
}

// Simulate integrates the reduced model from the origin (or
// WithInitialState, in reduced coordinates) over [0, tEnd] under u.
func (r *ROM) Simulate(ctx context.Context, u Input, tEnd float64, opts ...SimOption) (*Result, error) {
	return simulate(ctx, r.rom.Sys, u, tEnd, opts)
}

// errNoFull flags probes that need the full model a deserialized ROM
// no longer carries.
var errNoFull = errors.New("avtmor: this ROM carries no full model (deserialized artifact); error probes need the originating Reduce call")

// H1Error returns the relative output error of H1 between the full
// model and the ROM at frequency s (input column in).
func (r *ROM) H1Error(in int, s complex128) (float64, error) {
	if r.rom.Full == nil {
		return 0, errNoFull
	}
	return r.rom.H1Error(in, s)
}

// H2Error returns the relative output error of the associated A2(H2)
// for input pair (i, j) at s.
func (r *ROM) H2Error(i, j int, s complex128) (float64, error) {
	if r.rom.Full == nil {
		return 0, errNoFull
	}
	return r.rom.H2Error(i, j, s)
}

// H3Error returns the relative output error of the associated A3(H3)
// at s (SISO systems).
func (r *ROM) H3Error(s complex128) (float64, error) {
	if r.rom.Full == nil {
		return 0, errNoFull
	}
	return r.rom.H3Error(s)
}

// TransferH1 evaluates the ROM's own first-order transfer function at
// complex frequency s: y = L̂·(sI − Ĝ1)⁻¹·b̂ for input column in. The
// reduced system is small, so the dense complex evaluation is cheap
// regardless of the full-order size; it needs no full model, so it
// works on deserialized ROMs too.
func (r *ROM) TransferH1(in int, s complex128) ([]complex128, error) {
	return r.rom.TransferH1(in, s)
}

// Lift maps a reduced state back to full coordinates: x = V·x̂.
// Returns an error when the projection basis was not stored.
func (r *ROM) Lift(xhat []float64) ([]float64, error) {
	if r.rom.V == nil {
		return nil, errors.New("avtmor: this ROM carries no projection basis")
	}
	if len(xhat) != r.rom.V.C {
		return nil, errors.New("avtmor: Lift state length mismatch")
	}
	x := make([]float64, r.rom.V.R)
	r.rom.V.MulVec(x, xhat)
	return x, nil
}
