package avtmor

import (
	"context"
	"fmt"

	"avtmor/internal/ode"
	"avtmor/internal/qldae"
)

// Input is a vector-valued input signal u(t); it must return a slice
// of length Inputs().
type Input func(t float64) []float64

// ConstInput wraps a constant input vector.
func ConstInput(u []float64) Input {
	return func(float64) []float64 { return u }
}

// Result is a recorded trajectory: outputs Y[k] at times T[k].
type Result struct {
	T []float64
	Y [][]float64
	// Steps counts accepted integrator steps; Rejected counts adaptive
	// rejections; NewtonIters counts total Newton iterations and
	// Factorizations the Newton matrices factored (implicit methods
	// only). A linear system's trapezoidal step is one exact Newton
	// step, so a linear run's NewtonIters equals its Steps.
	Steps, Rejected, NewtonIters, Factorizations int

	res *ode.Result
}

func wrapResult(r *ode.Result) *Result {
	return &Result{T: r.T, Y: r.Y, Steps: r.Steps, Rejected: r.Rejected, NewtonIters: r.NewtonIters,
		Factorizations: r.Factorizations, res: r}
}

// OutputAt linearly interpolates output channel ch at time t.
func (r *Result) OutputAt(t float64, ch int) float64 { return r.res.OutputAt(t, ch) }

// MaxRelErr returns the maximum pointwise relative error of output
// channel ch between a reference and an approximate trajectory,
// normalized by the reference peak (the paper's relative-error
// convention, well behaved near zero crossings).
func MaxRelErr(ref, approx *Result, ch int) float64 {
	return ode.MaxRelErr(ref.res, approx.res, ch)
}

type simMethod int

const (
	simRK4 simMethod = iota
	simTrapezoidal
	simDopri5
)

type simConfig struct {
	method     simMethod
	steps      int
	rtol, atol float64
	x0         []float64
}

// SimOption configures a Simulate call.
type SimOption func(*simConfig)

// WithRK4 selects the classical fixed-step fourth-order Runge–Kutta
// integrator with the given step count (the default, 4000 steps).
func WithRK4(steps int) SimOption {
	return func(c *simConfig) { c.method, c.steps = simRK4, steps }
}

// WithTrapezoidal selects the implicit trapezoidal rule — the right
// choice for stiff systems. The Newton matrix I − h/2·∂f/∂x is factored
// through the auto-routed solver layer (sparse assembly for large
// CSR-mirrored systems). A nonlinear system runs Newton iteration and
// refactors once per step. A linear one, whose Newton matrix never
// changes, is factored once per run, and each step is one back-solve
// with no G1 product. Result.Factorizations counts the factorizations.
func WithTrapezoidal(steps int) SimOption {
	return func(c *simConfig) { c.method, c.steps = simTrapezoidal, steps }
}

// WithDopri5 selects the adaptive Dormand–Prince 5(4) pair with the
// given relative/absolute local error tolerances.
func WithDopri5(rtol, atol float64) SimOption {
	return func(c *simConfig) { c.method, c.rtol, c.atol = simDopri5, rtol, atol }
}

// WithInitialState sets the initial state (default: the origin).
func WithInitialState(x0 []float64) SimOption {
	return func(c *simConfig) { c.x0 = x0 }
}

// simulate drives an internal QLDAE with the resolved configuration.
func simulate(ctx context.Context, sys *qldae.System, u Input, tEnd float64, opts []SimOption) (*Result, error) {
	c := simConfig{method: simRK4, steps: 4000, rtol: 1e-7, atol: 1e-9}
	for _, o := range opts {
		o(&c)
	}
	if c.steps < 1 {
		return nil, fmt.Errorf("avtmor: Simulate needs a positive step count, got %d", c.steps)
	}
	x0 := c.x0
	if x0 == nil {
		x0 = make([]float64, sys.N)
	}
	if len(x0) != sys.N {
		return nil, fmt.Errorf("avtmor: initial state has %d entries, system has %d states", len(x0), sys.N)
	}
	var (
		res *ode.Result
		err error
	)
	switch c.method {
	case simTrapezoidal:
		res, err = ode.TrapezoidalSolverCtx(ctx, sys, x0, ode.Input(u), tEnd, c.steps, nil)
	case simDopri5:
		res, err = ode.Dopri5Ctx(ctx, sys, x0, ode.Input(u), tEnd, c.rtol, c.atol)
	default:
		res, err = ode.RK4Ctx(ctx, sys, x0, ode.Input(u), tEnd, c.steps)
	}
	if err != nil {
		return nil, err
	}
	return wrapResult(res), nil
}

// Simulate integrates the full system from the origin (or
// WithInitialState) over [0, tEnd] under input u.
func (s *System) Simulate(ctx context.Context, u Input, tEnd float64, opts ...SimOption) (*Result, error) {
	return simulate(ctx, s.sys, u, tEnd, opts)
}
