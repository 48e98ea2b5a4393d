package ode

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"avtmor/internal/mat"
	"avtmor/internal/qldae"
	"avtmor/internal/solver"
	"avtmor/internal/sparse"
)

// mustCtxFact fails the test if the context-free SolveBatch is ever
// used: every solve of TrapezoidalSolverCtx must stay on the
// cancellable SolveBatchCtx path (the ctxflow contract this package was
// once caught violating). It reports each SolveBatchCtx to onSolve.
type mustCtxFact struct {
	solver.Factorization
	onSolve func(cols int, err error)
}

func (mustCtxFact) SolveBatch([][]float64) {
	panic("ode: SolveBatch used where the cancellable SolveBatchCtx is required")
}

func (f mustCtxFact) SolveBatchCtx(ctx context.Context, cols [][]float64) error {
	err := f.Factorization.SolveBatchCtx(ctx, cols)
	if f.onSolve != nil {
		f.onSolve(len(cols), err)
	}
	return err
}

// wrapSolver decorates a backend so every factorization it hands out
// rejects context-free batch solves, and optionally runs a hook after
// each successful factor step and after each batch solve.
type wrapSolver struct {
	inner    solver.LinearSolver
	onFactor func()
	onSolve  func(cols int, err error)
}

func (w *wrapSolver) Name() string { return w.inner.Name() }

func (w *wrapSolver) FactorCtx(ctx context.Context, a *solver.Matrix) (solver.Factorization, error) {
	f, err := w.inner.FactorCtx(ctx, a)
	if err != nil {
		return nil, err
	}
	if w.onFactor != nil {
		w.onFactor()
	}
	return mustCtxFact{f, w.onSolve}, nil
}

// cancelSystems are a quadratic system, which runs the Newton loop, and
// the same system without its G2, which runs the linear one-solve loop.
func cancelSystems() []newtonCase {
	rng := rand.New(rand.NewSource(11))
	n := 6
	g2b := sparse.NewBuilder(n, n*n)
	for i := 0; i < 2*n; i++ {
		g2b.Add(rng.Intn(n), rng.Intn(n*n), 0.3*(2*rng.Float64()-1))
	}
	quad := &qldae.System{
		N:  n,
		G1: mat.RandStable(rng, n, 0.5),
		G2: g2b.Build(),
		B:  mat.RandDense(rng, n, 1),
		L:  mat.RandDense(rng, 1, n),
	}
	lin := *quad
	lin.G2 = nil
	u := func(ts float64) []float64 { return []float64{0.4 * math.Cos(3*ts)} }
	return []newtonCase{{"quadratic", quad, u, false}, {"linear", &lin, u, true}}
}

// TestTrapezoidalNewtonUsesCtxSolves pins the cancellation plumbing of
// the implicit integrator: the whole run must go through SolveBatchCtx
// (mustCtxFact panics otherwise) and still produce a finite trajectory.
// A linear run factors once and solves one column per step.
func TestTrapezoidalNewtonUsesCtxSolves(t *testing.T) {
	for _, tc := range cancelSystems() {
		t.Run(tc.name, func(t *testing.T) {
			if tc.sys.Linear() != tc.linear {
				t.Fatalf("Linear() = %v, want %v", tc.sys.Linear(), tc.linear)
			}
			factors, solves := 0, 0
			ls := &wrapSolver{inner: solver.Dense{}, onFactor: func() { factors++ }, onSolve: func(cols int, err error) {
				if cols != 1 || err != nil {
					t.Errorf("a solve of %d columns returned %v; want one column, no error", cols, err)
				}
				solves++
			}}
			res, err := TrapezoidalSolverCtx(context.Background(), tc.sys, make([]float64, tc.sys.N), tc.u, 1, 100, ls)
			if err != nil {
				t.Fatal(err)
			}
			if res.NewtonIters == 0 || solves == 0 {
				t.Fatalf("%d Newton iterations, %d solves; the test exercised nothing", res.NewtonIters, solves)
			}
			if tc.linear && (factors != 1 || solves != res.Steps) {
				t.Fatalf("the wrapper saw %d factorizations and %d solves in %d steps; want 1 and %d",
					factors, solves, res.Steps, res.Steps)
			}
			for _, y := range res.Y {
				if math.IsNaN(y[0]) || math.IsInf(y[0], 0) {
					t.Fatalf("non-finite output %v", y[0])
				}
			}
		})
	}
}

// TestTrapezoidalCancelMidNewton cancels the context between the first
// factorization and its back-solve: the integrator must surface
// context.Canceled from that first solve instead of completing the step
// (SolveBatchCtx aborts; the old SolveBatch call could not). The Newton
// loop factors inside the iteration, the linear loop before its first
// step.
func TestTrapezoidalCancelMidNewton(t *testing.T) {
	for _, tc := range cancelSystems() {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var solveErrs []error
			ls := &wrapSolver{inner: solver.Dense{}, onFactor: cancel, onSolve: func(_ int, err error) { solveErrs = append(solveErrs, err) }}
			_, err := TrapezoidalSolverCtx(ctx, tc.sys, make([]float64, tc.sys.N), tc.u, 1, 100, ls)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled after mid-Newton cancel, got %v", err)
			}
			if len(solveErrs) != 1 || !errors.Is(solveErrs[0], context.Canceled) {
				t.Fatalf("solves returned %v; want one, returning context.Canceled", solveErrs)
			}
		})
	}
}
