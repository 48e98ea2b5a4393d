package solver

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"avtmor/internal/sparse"
)

// ShiftedCache caches factorizations of the shifted pencil G + σ·C per
// expansion point σ, with C = I when no descriptor is supplied — the
// paper's "compute the LU of G1 for once" amortization, shared across
// H1/H2/H3 moment generation and across multipoint expansion
// frequencies. It is safe for concurrent use, and concurrent requests
// for distinct shifts factor in parallel.
//
// Same-shift concurrency is a per-shift singleflight: the first
// requester becomes the leader and factors; every concurrent request
// for the same σ waits on the leader's outcome instead of factoring
// again, so each shift pays exactly one factor step no matter how many
// WithParallel workers race on it. A leader abandoned by its context
// evicts its entry, and a live-context waiter then retries as the new
// leader rather than inheriting the stale cancellation error.
type ShiftedCache struct {
	g, c *Matrix // c == nil means identity
	ls   LinearSolver

	// sym holds the symbolic analysis the shifts share: for σ ≠ 0 the
	// shifted pencil is assembled as the union pattern of G and C (exact
	// cancellations keep their explicit slots — see sparse.Add), so every
	// expansion point presents the identical sparsity pattern. A cache
	// miss pays only the numeric phase while threshold pivoting keeps the
	// recorded pivot sequence; a rejected replay pays a fresh
	// factorization and re-records. Widely spaced shifts (s0 = 0, 0.4,
	// 0.9 on an RLC line) are rejected every time; closely spaced ones
	// mostly refactor.
	sym SymbolicCache

	factorizations atomic.Int64 // completed factor steps
	hits           atomic.Int64 // Factor calls served from the cache
	batchSolves    atomic.Int64 // SolveBatch calls on cached factorizations
	batchColumns   atomic.Int64 // total RHS columns across those calls

	mu      sync.Mutex
	entries map[float64]*shiftEntry // guarded by mu
}

// shiftEntry is one singleflight slot: done closes when the leader's
// factor step resolves, after which f/err are immutable.
type shiftEntry struct {
	done chan struct{}
	f    Factorization
	err  error
}

// CacheStats is the observable outcome of a ShiftedCache's lifetime:
// how many pencils were actually factored, how many Factor calls found
// a ready (or in-flight) entry instead, and how the block solve path
// was used. The layers above surface these in core.Stats, the
// experiment reports, and the serving tier's /metrics.
type CacheStats struct {
	Factorizations int64
	Hits           int64
	// BatchSolves counts SolveBatch/SolveBatchCtx calls issued against
	// factorizations served by this cache; BatchColumns the total
	// right-hand-side columns they carried. BatchColumns/BatchSolves is
	// the realized batching width — the multi-RHS amortization made
	// observable.
	BatchSolves  int64
	BatchColumns int64
	// SymbolicAnalyses counts sparse factorizations that paid the full
	// symbolic analysis (pattern discovery, RCM, reachability DFS);
	// NumericRefactors counts those served numeric-only from the cached
	// pattern. Dense-routed pencils count under neither, so for a sparse
	// workload Factorizations = SymbolicAnalyses + NumericRefactors and
	// the refactor share is the symbolic amortization made observable.
	SymbolicAnalyses int64
	NumericRefactors int64
}

// NewShiftedCache prepares a cache over G + σ·C for the given backend
// (nil backend selects Auto). Pass c == nil for the identity descriptor
// of the trimmed QLDAE form.
func NewShiftedCache(g *Matrix, c *Matrix, ls LinearSolver) *ShiftedCache {
	if ls == nil {
		ls = Auto{}
	}
	return &ShiftedCache{g: g, c: c, ls: ls, entries: map[float64]*shiftEntry{}}
}

// BackendName names the backend the pencil actually factors through:
// for Auto it resolves the per-operand routing decision ("dense" or
// "sparse"), so the observability layer reports what ran, not the
// policy that was requested.
func (sc *ShiftedCache) BackendName() string {
	if a, ok := sc.ls.(Auto); ok {
		return a.Pick(sc.g).Name()
	}
	return sc.ls.Name()
}

// Scale returns max |g_ij|, the reference for pivot-ratio checks.
func (sc *ShiftedCache) Scale() float64 { return sc.g.MaxAbs() }

// Stats reports factorization, hit, and batch-solve counters.
func (sc *ShiftedCache) Stats() CacheStats {
	analyses, refactors := sc.sym.Stats()
	return CacheStats{
		Factorizations:   sc.factorizations.Load(),
		Hits:             sc.hits.Load(),
		BatchSolves:      sc.batchSolves.Load(),
		BatchColumns:     sc.batchColumns.Load(),
		SymbolicAnalyses: analyses,
		NumericRefactors: refactors,
	}
}

// FactorCtx returns the cached factorization of G + σ·C, computing it
// on first use, with cooperative cancellation. A factorization
// aborted by ctx is NOT cached: the leader evicts its entry, so a later
// (or concurrently waiting) request with a live context recomputes it
// instead of inheriting the stale cancellation error.
func (sc *ShiftedCache) FactorCtx(ctx context.Context, sigma float64) (Factorization, error) {
	for {
		sc.mu.Lock()
		e, ok := sc.entries[sigma]
		if !ok {
			// Leader: factor under no lock, publish, wake the waiters.
			e = &shiftEntry{done: make(chan struct{})}
			sc.entries[sigma] = e
			sc.mu.Unlock()
			f, err := sc.sym.FactorCtx(ctx, sc.ls, sc.shifted(sigma))
			if err == nil {
				sc.factorizations.Add(1)
				// The counting wrapper is created once and cached, so
				// repeat hits observe the identical Factorization value.
				e.f = &countedFact{inner: f, sc: sc}
			} else {
				e.err = err
				if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
					sc.mu.Lock()
					if sc.entries[sigma] == e {
						delete(sc.entries, sigma)
					}
					sc.mu.Unlock()
				}
			}
			close(e.done)
			return e.f, e.err
		}
		sc.mu.Unlock()
		select {
		case <-e.done:
			if e.err != nil &&
				(errors.Is(e.err, context.Canceled) || errors.Is(e.err, context.DeadlineExceeded)) &&
				ctx.Err() == nil {
				// The leader was canceled but this waiter is still live:
				// loop and retry (the canceled leader evicted its entry,
				// so the retry elects a new leader). Not a cache hit —
				// the retry pays the factor step itself.
				continue
			}
			// Only requests actually served by the entry count as hits
			// (a waiter that aborts on its own context was served
			// nothing, and a retrying waiter is counted on its retry).
			sc.hits.Add(1)
			return e.f, e.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// countedFact wraps a cached factorization so the cache can observe the
// batch-solve traffic flowing through it. Solve semantics are forwarded
// untouched; only counters move.
type countedFact struct {
	inner Factorization
	sc    *ShiftedCache
}

func (c *countedFact) MinAbsPivot() float64   { return c.inner.MinAbsPivot() }
func (c *countedFact) Solve(dst, b []float64) { c.inner.Solve(dst, b) }

func (c *countedFact) SolveBatch(cols [][]float64) {
	c.sc.batchSolves.Add(1)
	c.sc.batchColumns.Add(int64(len(cols)))
	c.inner.SolveBatch(cols)
}

func (c *countedFact) SolveBatchCtx(ctx context.Context, cols [][]float64) error {
	c.sc.batchSolves.Add(1)
	c.sc.batchColumns.Add(int64(len(cols)))
	return c.inner.SolveBatchCtx(ctx, cols)
}

// shifted assembles G + σ·C in whichever representation the backend
// will consume, without densifying a sparse-only G.
func (sc *ShiftedCache) shifted(sigma float64) *Matrix {
	if sigma == 0 {
		return sc.g
	}
	if wantsDense(sc.ls, sc.g) {
		d := sc.g.AsDense().Clone()
		if sc.c == nil {
			for i := 0; i < d.R; i++ {
				d.Add(i, i, sigma)
			}
		} else {
			d.AddScaled(sigma, sc.c.AsDense())
		}
		return FromDense(d)
	}
	g := sc.g.AsCSR()
	var c *sparse.CSR
	if sc.c == nil {
		c = sparse.Eye(g.Rows)
	} else {
		c = sc.c.AsCSR()
	}
	return FromCSR(sparse.Add(1, g, sigma, c))
}

// wantsDense reports whether the backend would factor m densely, so the
// shift is applied in the representation that will actually be used.
func wantsDense(ls LinearSolver, m *Matrix) bool {
	if a, ok := ls.(Auto); ok {
		ls = a.Pick(m)
	}
	_, dense := ls.(Dense)
	return dense
}
