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
// used: the Newton correction of TrapezoidalSolverCtx must stay on the
// cancellable SolveBatchCtx path (the ctxflow contract this package was
// once caught violating).
type mustCtxFact struct{ solver.Factorization }

func (mustCtxFact) SolveBatch([][]float64) {
	panic("ode: SolveBatch used where the cancellable SolveBatchCtx is required")
}

// wrapSolver decorates a backend so every factorization it hands out
// rejects context-free batch solves, and optionally runs a hook after
// each successful factor step.
type wrapSolver struct {
	inner    solver.LinearSolver
	onFactor func()
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
	return mustCtxFact{f}, nil
}

func nonlinearCancelSystem() *qldae.System {
	rng := rand.New(rand.NewSource(11))
	n := 6
	g2b := sparse.NewBuilder(n, n*n)
	for i := 0; i < 2*n; i++ {
		g2b.Add(rng.Intn(n), rng.Intn(n*n), 0.3*(2*rng.Float64()-1))
	}
	return &qldae.System{
		N:  n,
		G1: mat.RandStable(rng, n, 0.5),
		G2: g2b.Build(),
		B:  mat.RandDense(rng, n, 1),
		L:  mat.RandDense(rng, 1, n),
	}
}

// TestTrapezoidalNewtonUsesCtxSolves pins the cancellation plumbing of
// the implicit integrator: the whole run must go through SolveBatchCtx
// (mustCtxFact panics otherwise) and still produce a finite trajectory.
func TestTrapezoidalNewtonUsesCtxSolves(t *testing.T) {
	sys := nonlinearCancelSystem()
	u := func(ts float64) []float64 { return []float64{0.4 * math.Cos(3*ts)} }
	res, err := TrapezoidalSolverCtx(context.Background(), sys, make([]float64, sys.N), u, 1, 100, &wrapSolver{inner: solver.Dense{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.NewtonIters == 0 {
		t.Fatal("Newton never iterated; the test exercised nothing")
	}
	for _, y := range res.Y {
		if math.IsNaN(y[0]) || math.IsInf(y[0], 0) {
			t.Fatalf("non-finite output %v", y[0])
		}
	}
}

// TestTrapezoidalCancelMidNewton cancels the context between a Newton
// factorization and its back-solve: the integrator must surface
// context.Canceled from inside the iteration instead of completing the
// step (SolveBatchCtx aborts; the old SolveBatch call could not).
func TestTrapezoidalCancelMidNewton(t *testing.T) {
	sys := nonlinearCancelSystem()
	u := func(ts float64) []float64 { return []float64{0.4 * math.Cos(3*ts)} }
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ls := &wrapSolver{inner: solver.Dense{}, onFactor: cancel}
	_, err := TrapezoidalSolverCtx(ctx, sys, make([]float64, sys.N), u, 1, 100, ls)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled after mid-Newton cancel, got %v", err)
	}
}
