// Package ode integrates QLDAE systems (full models and ROMs) for the
// paper's transient experiments: classical RK4, adaptive Dormand–Prince
// RK45 for the smooth receiver/transmission-line waveforms, and an
// implicit trapezoidal method with Newton iteration for the stiff varistor
// surge simulation of §3.4.
package ode

import (
	"context"
	"errors"
	"fmt"
	"math"

	"avtmor/internal/lu"
	"avtmor/internal/mat"
	"avtmor/internal/qldae"
	"avtmor/internal/solver"
	"avtmor/internal/sparse"
)

// Input is a scalar-per-channel input signal u(t).
type Input func(t float64) []float64

// workspace is the per-integrator scratch set: the stage, residual, and
// Newton vectors every step reuses, borrowed from the shared pool for
// the lifetime of one integration and returned on exit. Combined with
// the allocation-free System.Eval and the pooled solver substitutions,
// it keeps the inner stepping loops of all three integrators from
// allocating per step.
type workspace struct{ bufs [][]float64 }

// vec borrows a length-n scratch vector for the integration. The
// buffer deliberately outlives this function: the workspace tracks it
// until release() hands it back to the pool.
func (w *workspace) vec(n int) []float64 {
	b := mat.GetVec(n)
	w.bufs = append(w.bufs, b) //avtmorlint:ignore wspool the workspace owns b until release() returns it to the pool
	return b                   //avtmorlint:ignore wspool callers borrow through the workspace, which releases on integrator exit
}

// release returns every borrowed vector to the pool.
func (w *workspace) release() {
	for _, b := range w.bufs {
		mat.PutVec(b)
	}
	w.bufs = nil
}

// Result is a recorded trajectory.
type Result struct {
	T []float64
	// Y[k] is the output vector at T[k].
	Y [][]float64
	// Steps counts accepted integrator steps; Rejected counts adaptive
	// rejections; NewtonIters counts total Newton iterations and
	// Factorizations the Newton matrices factored (implicit methods
	// only).
	Steps, Rejected, NewtonIters, Factorizations int
	// Recorded and Replayed split the Factorizations of a nonlinear
	// trapezoidal run on the dense LU: Recorded ran the fresh kernel and
	// recorded its pivot sequence and fill, Replayed refactored through
	// that record. ReplayRejected counts replays abandoned at a pivot
	// the record did not predict; each is followed by a Recorded one.
	Recorded, Replayed, ReplayRejected int
}

// OutputAt linearly interpolates output channel ch at time t.
func (r *Result) OutputAt(t float64, ch int) float64 {
	y, _ := r.outputFrom(0, t, ch)
	return y
}

// outputFrom is OutputAt with the interval scan starting at index k,
// which must not lie past t's interval. It also returns the interval it
// stopped at, so a caller sampling ascending times resumes from there.
func (r *Result) outputFrom(k int, t float64, ch int) (float64, int) {
	for k < len(r.T)-1 && r.T[k+1] < t {
		k++
	}
	if k >= len(r.T)-1 {
		return r.Y[len(r.Y)-1][ch], k
	}
	t0, t1 := r.T[k], r.T[k+1]
	if t1 == t0 {
		return r.Y[k][ch], k
	}
	w := (t - t0) / (t1 - t0)
	return (1-w)*r.Y[k][ch] + w*r.Y[k+1][ch], k
}

// RK4Ctx integrates with the classical fixed-step fourth-order
// Runge–Kutta scheme from x0 over [0, tEnd] with nSteps steps, recording
// the output at every step. ctx is polled once per step and the partial
// trajectory is discarded on abort.
func RK4Ctx(ctx context.Context, sys *qldae.System, x0 []float64, u Input, tEnd float64, nSteps int) (*Result, error) {
	n := sys.N
	if len(x0) != n {
		panic("ode: RK4 state length mismatch")
	}
	h := tEnd / float64(nSteps)
	x := mat.CopyVec(x0)
	res := &Result{}
	res.T = append(res.T, 0)
	res.Y = append(res.Y, sys.Output(x))
	f := sys.Prepare()
	ws := &workspace{}
	defer ws.release()
	k1 := ws.vec(n)
	k2 := ws.vec(n)
	k3 := ws.vec(n)
	k4 := ws.vec(n)
	xs := ws.vec(n)
	for s := 0; s < nSteps; s++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t := float64(s) * h
		f.Eval(k1, x, u(t))
		for i := range xs {
			xs[i] = x[i] + 0.5*h*k1[i]
		}
		f.Eval(k2, xs, u(t+0.5*h))
		for i := range xs {
			xs[i] = x[i] + 0.5*h*k2[i]
		}
		f.Eval(k3, xs, u(t+0.5*h))
		for i := range xs {
			xs[i] = x[i] + h*k3[i]
		}
		f.Eval(k4, xs, u(t+h))
		for i := range x {
			x[i] += h / 6 * (k1[i] + 2*k2[i] + 2*k3[i] + k4[i])
		}
		res.Steps++
		res.T = append(res.T, t+h)
		res.Y = append(res.Y, sys.Output(x))
	}
	return res, nil
}

// dopri5 Butcher tableau (Dormand–Prince 5(4)).
var (
	dpA = [7][6]float64{
		{},
		{1.0 / 5},
		{3.0 / 40, 9.0 / 40},
		{44.0 / 45, -56.0 / 15, 32.0 / 9},
		{19372.0 / 6561, -25360.0 / 2187, 64448.0 / 6561, -212.0 / 729},
		{9017.0 / 3168, -355.0 / 33, 46732.0 / 5247, 49.0 / 176, -5103.0 / 18656},
		{35.0 / 384, 0, 500.0 / 1113, 125.0 / 192, -2187.0 / 6784, 11.0 / 84},
	}
	dpC = [7]float64{0, 1.0 / 5, 3.0 / 10, 4.0 / 5, 8.0 / 9, 1, 1}
	dpE = [7]float64{ // b5 − b4 error weights
		35.0/384 - 5179.0/57600, 0, 500.0/1113 - 7571.0/16695,
		125.0/192 - 393.0/640, -2187.0/6784 + 92097.0/339200,
		11.0/84 - 187.0/2100, -1.0 / 40,
	}
)

// Dopri5Ctx integrates with the adaptive Dormand–Prince 5(4) pair.
// rtol/atol control the local error; outputs are recorded at every
// accepted step. ctx is polled once per attempted step.
func Dopri5Ctx(ctx context.Context, sys *qldae.System, x0 []float64, u Input, tEnd, rtol, atol float64) (*Result, error) {
	n := sys.N
	x := mat.CopyVec(x0)
	res := &Result{}
	res.T = append(res.T, 0)
	res.Y = append(res.Y, sys.Output(x))
	f := sys.Prepare()
	ws := &workspace{}
	defer ws.release()
	k := make([][]float64, 7)
	for i := range k {
		k[i] = ws.vec(n)
	}
	xs := ws.vec(n)
	t := 0.0
	h := tEnd / 100
	hMin := tEnd * 1e-12
	const maxSteps = 10_000_000
	for t < tEnd {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if res.Steps+res.Rejected > maxSteps {
			return nil, errors.New("ode: Dopri5 exceeded step budget")
		}
		if t+h > tEnd {
			h = tEnd - t
		}
		f.Eval(k[0], x, u(t))
		for stage := 1; stage < 7; stage++ {
			copy(xs, x)
			for j := 0; j < stage; j++ {
				a := dpA[stage][j]
				if a == 0 {
					continue
				}
				mat.Axpy(h*a, k[j], xs)
			}
			f.Eval(k[stage], xs, u(t+dpC[stage]*h))
		}
		// 5th-order solution is the last stage state (FSAL structure).
		// Error estimate.
		errNorm := 0.0
		for i := 0; i < n; i++ {
			e := 0.0
			for st := 0; st < 7; st++ {
				e += dpE[st] * k[st][i]
			}
			e *= h
			sc := atol + rtol*math.Max(math.Abs(x[i]), math.Abs(xs[i]))
			r := e / sc
			errNorm += r * r
		}
		errNorm = math.Sqrt(errNorm / float64(n))
		if math.IsNaN(errNorm) {
			// An overflowed stage makes the estimate Inf − Inf. Read it
			// as infinite: the step is rejected and h shrinks by the
			// minimum factor, so the hMin guard ends a run that cannot
			// recover instead of NaN steps spinning to the step budget.
			errNorm = math.Inf(1)
		}
		if errNorm <= 1 {
			t += h
			copy(x, xs)
			res.Steps++
			res.T = append(res.T, t)
			res.Y = append(res.Y, sys.Output(x))
		} else {
			res.Rejected++
		}
		// Step controller.
		fac := 0.9 * math.Pow(math.Max(errNorm, 1e-10), -0.2)
		fac = math.Min(5, math.Max(0.2, fac))
		h *= fac
		if h < hMin {
			return nil, fmt.Errorf("ode: Dopri5 step collapsed at t=%g", t)
		}
	}
	return res, nil
}

// newtonRefresh is the modified-Newton refactorization cadence: the
// step's Jacobian is factored once at the predictor state and reused;
// while the iteration has not converged, it is refactored at the
// current iterate every newtonRefresh iterations (an unconditional
// cadence — there is no separate stall detector). A linear system's
// Newton matrix never changes, so it is factored once per run instead.
const newtonRefresh = 6

// TrapezoidalSolverCtx integrates with the implicit trapezoidal rule
// and Newton iteration, suitable for the stiff varistor surge of §3.4
// where explicit methods need punishing step sizes. ls is the
// linear-solver backend (nil selects solver.Auto). The Newton matrix
// I − h/2·∂f/∂x is factored through the LinearSolver interface — in CSR
// form for systems carrying a sparse G1 mirror beyond the dense routing
// cutoff — once per step, or once per run when the Jacobian is G1 alone
// (qldae.System.Linear), since the fixed step then makes every Newton
// matrix identical. Large circuits thus pay O(nnz·fill) per factor, not
// O(n³) per Newton iteration, and a linear one pays it once. A
// nonlinear run on the dense LU records its first factorization's
// pivot sequence and fill, and replays that record on the nonzeros
// alone at every later step. ctx is polled once per step and inside the
// Newton refactorization, so even a stiff large-system run aborts
// within one factor-plus-a-few-solves of the cancel.
func TrapezoidalSolverCtx(ctx context.Context, sys *qldae.System, x0 []float64, u Input, tEnd float64, nSteps int, ls solver.LinearSolver) (*Result, error) {
	n := sys.N
	if ls == nil {
		ls = solver.Auto{}
	}
	// Assemble the Newton matrix in the representation the backend will
	// factor: CSR whenever the dense G1 is absent, or when the system is
	// mirrored sparse and large (or the caller forced the sparse LU).
	sparseAssembly := sys.G1 == nil
	switch ls.(type) {
	case solver.Sparse:
		sparseAssembly = true
	case solver.Dense:
		sparseAssembly = sys.G1 == nil
	default:
		sparseAssembly = sparseAssembly || (sys.G1S != nil && n >= solver.AutoDenseCutoff)
	}
	prep := sys.Prepare()
	var eye *sparse.CSR
	var jb *sparse.Builder
	var jd *mat.Dense
	if sparseAssembly {
		eye = sparse.Eye(n)
		jb = sparse.NewBuilder(n, n)
	} else {
		jd = mat.NewDense(n, n)
	}
	// The dense Newton matrix is assembled into jd, one buffer per run,
	// and factored in place (a Scratch operand). Refilling jd only ever
	// happens right before the next factorization replaces the one that
	// owned it.
	assembleDense := func(xn, u1 []float64, h float64) {
		prep.JacobianInto(jd, xn, u1)
		jd.Scale(-0.5 * h)
		for i := 0; i < n; i++ {
			jd.Add(i, i, 1)
		}
	}
	newtonMatrix := func(xn []float64, u1 []float64, h float64) *solver.Matrix {
		if sparseAssembly {
			return solver.FromCSR(sparse.Add(1, eye, -0.5*h, prep.JacobianCSRInto(jb, xn, u1)))
		}
		assembleDense(xn, u1, h)
		return solver.Scratch(jd)
	}
	// One symbolic analysis serves the whole transient: Newton matrices
	// share the Jacobian's sparsity pattern across iterations, steps, and
	// step-size changes (h scales values, not structure), so every sparse
	// refactorization after the first is numeric-only unless threshold
	// pivoting rejects the recorded sequence or the pattern genuinely
	// moves (a D1 block switching on with its input re-analyzes once).
	// Either way the factors — and the trajectory — are bit-identical to
	// factoring fresh every time.
	var sym solver.SymbolicCache
	// A linear system's Newton matrix I − h/2·G1 is the same at every
	// iterate of every step, so its one factorization serves the whole
	// run: the same bits a per-step refactor would produce.
	linear := sys.Linear()
	res := &Result{}
	// A nonlinear run that the dense LU factors records its first
	// factorization over the run's assembly pattern P and replays the
	// record from then on (DESIGN.md §15): the Newton matrix is
	// re-assembled on P alone and eliminated on the recorded fill alone,
	// with the bits of a fresh factorization. A pivot the record did not
	// predict sends that factorization down the fresh path, which
	// records again. A custom LinearSolver, and Auto wherever it routes
	// by density, keep the fresh path.
	var pat *qldae.NewtonPattern
	var rec *lu.Record
	if !sparseAssembly && !linear && routesDense(ls, n) {
		pat = prep.NewtonPattern()
	}
	factor := func(xn, u1 []float64, h float64) (solver.Factorization, error) {
		if pat == nil {
			return sym.FactorCtx(ctx, ls, newtonMatrix(xn, u1, h))
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if rec != nil {
			prep.NewtonInto(jd, pat, xn, u1, h)
			f, ok, err := rec.Refactor(jd)
			if err != nil {
				return nil, err
			}
			if ok {
				res.Replayed++
				return f, nil
			}
			res.ReplayRejected++
		}
		assembleDense(xn, u1, h)
		f, err := lu.FactorInPlace(jd)
		if err != nil {
			return nil, err
		}
		rec = lu.NewRecord(f, pat.RowPtr, pat.ColIdx)
		res.Recorded++
		return f, nil
	}
	var fac solver.Factorization
	h := tEnd / float64(nSteps)
	x := mat.CopyVec(x0)
	res.T = append(res.T, 0)
	res.Y = append(res.Y, sys.Output(x))
	ws := &workspace{}
	defer ws.release()
	f0 := ws.vec(n)
	f1 := ws.vec(n)
	g := ws.vec(n)
	xn := ws.vec(n)
	// The Newton correction solves through the factorization's batch
	// path with a persistent one-column block (g solved in place), so a
	// stiff run's thousands of Newton iterations share one workspace
	// instead of allocating per solve.
	newton := [][]float64{g}
	const maxNewton = 25
	for s := 0; s < nSteps; s++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t := float64(s) * h
		u0 := u(t)
		u1 := u(t + h)
		prep.Eval(f0, x, u0)
		// Predictor: forward Euler.
		copy(xn, x)
		mat.Axpy(h, f0, xn)
		converged := false
		if !linear {
			fac = nil
		}
		for it := 0; it < maxNewton; it++ {
			res.NewtonIters++
			prep.Eval(f1, xn, u1)
			// g = xn − x − h/2 (f0 + f1).
			for i := 0; i < n; i++ {
				g[i] = xn[i] - x[i] - 0.5*h*(f0[i]+f1[i])
			}
			gn := mat.NormInf(g)
			scale := 1 + mat.NormInf(xn)
			if gn <= 1e-12*scale {
				converged = true
				break
			}
			if fac == nil || (!linear && it > 0 && it%newtonRefresh == 0) {
				var err error
				fac, err = factor(xn, u1, h)
				if err != nil {
					if ctx.Err() != nil {
						return nil, ctx.Err()
					}
					return nil, fmt.Errorf("ode: Newton Jacobian singular at t=%g: %w", t, err)
				}
				res.Factorizations++
			}
			// The Newton correction must stay abortable: SolveBatch would
			// strand a cancellation until the next step boundary on large
			// systems (the back-solve is O(n²) per iteration).
			if err := fac.SolveBatchCtx(ctx, newton); err != nil {
				return nil, err
			}
			mat.Axpy(-1, g, xn)
			if mat.NormInf(g) <= 1e-10*scale {
				converged = true
				break
			}
		}
		if !converged {
			return nil, fmt.Errorf("ode: Newton failed to converge at t=%g", t)
		}
		copy(x, xn)
		res.Steps++
		res.T = append(res.T, t+h)
		res.Y = append(res.Y, sys.Output(x))
	}
	return res, nil
}

// routesDense reports whether ls factors every n×n dense Newton matrix
// with the dense LU, whatever its values.
func routesDense(ls solver.LinearSolver, n int) bool {
	switch ls.(type) {
	case solver.Dense:
		return true
	case solver.Auto:
		return n < solver.AutoDenseCutoff
	}
	return false
}

// RelErrSeries returns the pointwise relative error |yref − y|/max|yref|
// of output channel ch, with both results sampled on ref's time grid.
// Normalizing by the peak (rather than the pointwise value) matches how
// the paper's relative-error plots behave near zero crossings.
func RelErrSeries(ref, approx *Result, ch int) ([]float64, []float64) {
	peak := 0.0
	for _, y := range ref.Y {
		if a := math.Abs(y[ch]); a > peak {
			peak = a
		}
	}
	if peak == 0 {
		peak = 1
	}
	ts := make([]float64, len(ref.T))
	es := make([]float64, len(ref.T))
	// ref.T ascends, so one forward cursor walks approx's grid once for
	// the whole series, keeping it linear in the two lengths. A
	// descending sample restarts the scan, as OutputAt would.
	cur := 0
	for k, t := range ref.T {
		if k > 0 && t < ref.T[k-1] {
			cur = 0
		}
		var y float64
		y, cur = approx.outputFrom(cur, t, ch)
		ts[k] = t
		es[k] = math.Abs(ref.Y[k][ch]-y) / peak
	}
	return ts, es
}

// MaxRelErr returns the maximum of RelErrSeries.
func MaxRelErr(ref, approx *Result, ch int) float64 {
	_, es := RelErrSeries(ref, approx, ch)
	m := 0.0
	for _, e := range es {
		if e > m {
			m = e
		}
	}
	return m
}
