// Package core exposes the nonlinear model order reduction entry points:
//
//   - ReduceContext — the paper's associated-transform NMOR: one single-s
//     Krylov subspace per Volterra order (H1, A2(H2), A3(H3)), projection
//     size O(k1+k2+k3).
//   - ReduceNORMContext — the classical NORM baseline (Li & Pileggi), which
//     moment-matches the multivariate H2(s1,s2), H3(s1,s2,s3) directly and
//     grows as O(k1 + k2³ + k3⁴).
//
// Both return a Galerkin-projected QLDAE that package ode simulates
// directly, plus the projection basis and bookkeeping for the experiment
// harness.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"avtmor/internal/assoc"
	"avtmor/internal/mat"
	"avtmor/internal/qldae"
	"avtmor/internal/qr"
	"avtmor/internal/solver"
)

// Options selects moment counts and the expansion point.
type Options struct {
	// K1, K2, K3 are the matched moment counts of H1(s), A2(H2)(s),
	// A3(H3)(s) (or their multivariate counterparts for NORM). Zero skips
	// the order.
	K1, K2, K3 int
	// S0 is the (real) expansion frequency; 0 gives DC moment matching
	// (paper §2.3: more accurate for low-pass responses at the cost of
	// one LU of G1).
	S0 float64
	// ExtraPoints adds further expansion frequencies: H1 and H2 moments
	// are generated about S0 and every extra point (multipoint moment
	// matching, §4 bullet 3 — "particularly straightforward with this
	// associated transform approach" since every Hn(s) is single-s).
	// H3 moments are generated about S0 only.
	ExtraPoints []float64
	// DropTol is the deflation tolerance of the rank-revealing
	// orthonormalization; 0 selects 1e-8.
	DropTol float64
	// Solver selects the linear-solver backend for every shift-invert
	// factorization: auto (dense below the routing cutoff, sparse LU for
	// large sparse G1), or forced dense/sparse. Auto is what makes
	// ≥10³-state circuits reduce in O(nnz·fill) instead of O(n³). It is
	// an internal override for backend comparisons (exper.CompareBackends)
	// and benchmarks: the public facade and the wire always route Auto.
	Solver solver.Kind
	// Parallel fans the independent moment generators out over
	// goroutines: one per expansion point (H1+H2 about S0 and every
	// ExtraPoints entry) plus one per Volterra-3 branch, with concurrent
	// execution clamped to runtime.GOMAXPROCS(0) so the fan-out never
	// oversubscribes the host. Candidate ordering — and therefore the
	// ROM — is identical to the serial path; only wall-clock changes.
	Parallel bool
	// BlockSize is ignored: the moment generators batch every column
	// that shares a shifted factorization. It remains only for callers
	// that still set it.
	BlockSize int
	// DecoupledH2 is ignored: H2 moments always come from the Eq.-(17)
	// block-triangular chain, which spans what the Eq.-(18) decoupled
	// chains span. It remains only for callers that still set it.
	DecoupledH2 bool
}

func (o Options) dropTol() float64 {
	if o.DropTol > 0 {
		return o.DropTol
	}
	return 1e-8
}

// ROM is a reduced-order model together with its projection data.
type ROM struct {
	V    *mat.Dense    // n×q orthonormal projection basis
	Sys  *qldae.System // the reduced QLDAE
	Full *qldae.System // the original system
	// Method is "assoc" or "norm".
	Method string
	Stats  Stats

	mu   sync.Mutex
	full *assoc.Realization // guarded by mu; lazy, for the error probes
	red  *assoc.Realization // guarded by mu; lazy, for the probes and TransferH1
}

// Stats records reduction bookkeeping for the experiment tables. It is
// the in-memory build report; artifacts never serialize it.
type Stats struct {
	// Candidates is the number of moment/Krylov vectors generated before
	// deflation; Order is the final ROM dimension q.
	Candidates int
	Order      int
	// Build is the wall-clock time of subspace construction + projection
	// (the "Arnoldi" row of Table 1).
	Build time.Duration
	// Backend names the linear-solver backend that actually factored
	// the shifted pencils ("dense" or "sparse"; the Auto policy is
	// resolved to its per-operand routing decision).
	Backend string
	// Factorizations counts the shifted-pencil factor steps actually
	// paid; SolveCacheHits counts the factor requests answered by
	// solver.ShiftedCache instead — the paper's "LU of G1 for once"
	// amortization made observable.
	Factorizations int64
	SolveCacheHits int64
	// BatchSolves counts the SolveBatch calls issued against the cached
	// shifted factorizations and BatchColumns the right-hand-side
	// columns they carried; BatchColumns/BatchSolves is the realized
	// multi-RHS width of the block solve path.
	BatchSolves  int64
	BatchColumns int64
	// SymbolicAnalyses counts the sparse factor steps that paid the full
	// symbolic analysis (pattern DFS, RCM, CSC conversion) and
	// NumericRefactors those served numeric-only from the pencil's cached
	// symbolic object — the per-pattern amortization of the
	// symbolic/numeric split made observable. Dense-routed builds report
	// zero for both.
	SymbolicAnalyses int64
	NumericRefactors int64
	// Allocs is the approximate heap-allocation count of the build
	// (process-wide /gc/heap/allocs:objects delta, so concurrent
	// activity in the same process inflates it): the zero-allocation
	// workspace discipline of the chain iterations made observable.
	Allocs uint64
}

// heapAllocs reads the process's cumulative heap allocation count via
// runtime/metrics (cheap — no stop-the-world).
func heapAllocs() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() == metrics.KindUint64 {
		return sample[0].Value.Uint64()
	}
	return 0
}

// ReduceContext runs the proposed associated-transform NMOR. All
// shift-invert factorizations route through the backend named by
// opt.Solver and are cached per expansion point inside the shared
// realization; with opt.Parallel the per-point and per-order generators
// run concurrently (they are independent Krylov chains — §2.3's "can be
// computed in parallel" remark) while the candidate ordering stays
// deterministic. ctx is threaded through every moment chain, Arnoldi
// step, and shifted factorization (including the sparse-LU column
// loop), so a canceled reduction returns within one Krylov step's worth
// of work.
func ReduceContext(ctx context.Context, sys *qldae.System, opt Options) (*ROM, error) {
	start := time.Now() //avtmorlint:ignore detrom wall-clock feeds Stats.Build only, a build-report field that is never serialized; the numerics and the cache key never read it

	allocs0 := heapAllocs()
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if opt.K1 <= 0 && opt.K2 <= 0 && opt.K3 <= 0 {
		return nil, errors.New("core: at least one moment count must be positive")
	}
	r, err := assoc.NewWithSolverCtx(ctx, sys, solver.ByKind(opt.Solver))
	if err != nil {
		return nil, err
	}
	points := append([]float64{opt.S0}, opt.ExtraPoints...)
	// Independent generator tasks, gathered in deterministic order.
	type genOut struct {
		cols [][]float64
		err  error
	}
	wantH2 := sys.G2 != nil || sys.D1 != nil
	wantH3 := wantH2 && opt.K3 > 0 && sys.Inputs() == 1
	wantH3Cubic := sys.G3 != nil && opt.K3 > 0 && sys.Inputs() == 1
	slots := make([]genOut, 2*len(points)+2)
	var wg sync.WaitGroup
	failed := false // serial mode short-circuits after the first error
	// Parallel fan-out is clamped to the scheduler's actual parallelism:
	// unbounded goroutine-per-task was measurably slower than serial on a
	// single-CPU host (oversubscribed Krylov chains thrash the shifted
	// cache's memory instead of overlapping compute). Results land in
	// their per-task slots and are gathered by index, so the clamp —
	// like the fan-out itself — cannot reorder candidates or change the
	// ROM.
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	run := func(slot int, f func() ([][]float64, error)) {
		if !opt.Parallel {
			if failed || ctx.Err() != nil {
				return
			}
			slots[slot].cols, slots[slot].err = f()
			failed = slots[slot].err != nil
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			slots[slot].cols, slots[slot].err = f()
		}()
	}
	for i, s0 := range points {
		i, s0 := i, s0
		run(2*i, func() ([][]float64, error) {
			h1, err := r.H1Moments(opt.K1, s0)
			if err != nil {
				return nil, fmt.Errorf("core: H1 moments at s0=%g: %w", s0, err)
			}
			return h1, nil
		})
		if !wantH2 {
			continue
		}
		run(2*i+1, func() ([][]float64, error) {
			h2, err := r.H2Candidates(opt.K2, s0)
			if err != nil {
				return nil, fmt.Errorf("core: H2 candidates at s0=%g: %w", s0, err)
			}
			return h2, nil
		})
	}
	if wantH3 {
		run(2*len(points), func() ([][]float64, error) {
			h3, err := r.H3Moments(opt.K3, opt.S0)
			if err != nil {
				return nil, fmt.Errorf("core: H3 moments: %w", err)
			}
			return h3, nil
		})
	}
	if wantH3Cubic {
		run(2*len(points)+1, func() ([][]float64, error) {
			s2, err := r.Sum2()
			if err != nil {
				return nil, err
			}
			h3c, err := r.H3MomentsCubic(s2.Sum3(), opt.K3, opt.S0)
			if err != nil {
				return nil, fmt.Errorf("core: cubic H3 moments: %w", err)
			}
			return h3c, nil
		})
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var cols [][]float64
	for _, s := range slots {
		if s.err != nil {
			return nil, s.err
		}
		cols = append(cols, s.cols...)
	}
	rom, err := finish(ctx, sys, cols, opt, "assoc", start)
	if err != nil {
		return nil, err
	}
	rom.fillSolverStats(r.SolverBackend(), r.SolverStats())
	rom.Stats.Allocs = heapAllocs() - allocs0
	return rom, nil
}

// fillSolverStats copies the shifted-cache observability counters into
// the ROM's stats. backend is the backend that actually factored the
// pencil (Auto resolved), not the requested policy.
func (r *ROM) fillSolverStats(backend string, cs solver.CacheStats) {
	r.Stats.Backend = backend
	r.Stats.Factorizations = cs.Factorizations
	r.Stats.SolveCacheHits = cs.Hits
	r.Stats.BatchSolves = cs.BatchSolves
	r.Stats.BatchColumns = cs.BatchColumns
	r.Stats.SymbolicAnalyses = cs.SymbolicAnalyses
	r.Stats.NumericRefactors = cs.NumericRefactors
}

// finish orthonormalizes the candidate set and projects. ctx is
// polled around the orthonormalize/projection tail so a canceled
// reduction reports cancellation deterministically instead of
// completing (and, via the Reducer, being cached) by accident.
func finish(ctx context.Context, sys *qldae.System, cols [][]float64, opt Options, method string, start time.Time) (*ROM, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	v := qr.Orthonormalize(cols, opt.dropTol())
	if v == nil {
		return nil, errors.New("core: all candidate vectors deflated; nothing to project onto")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rom := &ROM{
		V:      v,
		Sys:    sys.Project(v),
		Full:   sys,
		Method: method,
	}
	rom.Stats = Stats{
		Candidates: len(cols),
		Order:      v.C,
		Build:      time.Since(start),
	}
	return rom, nil
}
