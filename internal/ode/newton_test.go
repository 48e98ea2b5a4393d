package ode

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"avtmor/internal/mat"
	"avtmor/internal/qldae"
	"avtmor/internal/solver"
	"avtmor/internal/sparse"
)

// oracleTrapezoidal is a plain transcription of the trapezoidal Newton
// loop before the constant Newton matrix was hoisted: it assembles the
// Jacobian at every step (and every newtonRefresh iterations), factors
// it fresh through the auto-routed backend, and copies a new predictor
// each step. Eval prefers the dense G1 whenever both representations
// exist, as qldae.System.MulG1 once did. It returns the trajectory and
// the number of factorizations it performed.
func oracleTrapezoidal(sys *qldae.System, x0 []float64, u Input, tEnd float64, nSteps int) (*Result, int, error) {
	n := sys.N
	evalSys := sys
	if sys.G1 != nil && sys.G1S != nil {
		dense := *sys
		dense.G1S = nil
		evalSys = &dense
	}
	ls := solver.Auto{}
	sparseAssembly := sys.G1 == nil || (sys.G1S != nil && n >= solver.AutoDenseCutoff)
	newtonMatrix := func(xn, u1 []float64, h float64) *solver.Matrix {
		if sparseAssembly {
			return solver.FromCSR(sparse.Add(1, sparse.Eye(n), -0.5*h, sys.JacobianCSR(xn, u1)))
		}
		jac := sys.Jacobian(xn, u1).Scale(-0.5 * h)
		for i := 0; i < n; i++ {
			jac.Add(i, i, 1)
		}
		return solver.FromDense(jac)
	}
	factorizations := 0
	h := tEnd / float64(nSteps)
	x := mat.CopyVec(x0)
	res := &Result{T: []float64{0}, Y: [][]float64{sys.Output(x)}}
	f0 := make([]float64, n)
	f1 := make([]float64, n)
	g := make([]float64, n)
	for s := 0; s < nSteps; s++ {
		t := float64(s) * h
		u0 := u(t)
		u1 := u(t + h)
		evalSys.Eval(f0, x, u0)
		xn := mat.CopyVec(x)
		mat.Axpy(h, f0, xn)
		converged := false
		var fac solver.Factorization
		for it := 0; it < 25; it++ {
			res.NewtonIters++
			evalSys.Eval(f1, xn, u1)
			for i := 0; i < n; i++ {
				g[i] = xn[i] - x[i] - 0.5*h*(f0[i]+f1[i])
			}
			scale := 1 + mat.NormInf(xn)
			if mat.NormInf(g) <= 1e-12*scale {
				converged = true
				break
			}
			if fac == nil || (it > 0 && it%newtonRefresh == 0) {
				var err error
				if fac, err = ls.Factor(newtonMatrix(xn, u1, h)); err != nil {
					return nil, 0, err
				}
				factorizations++
			}
			fac.SolveBatch([][]float64{g})
			mat.Axpy(-1, g, xn)
			if mat.NormInf(g) <= 1e-10*scale {
				converged = true
				break
			}
		}
		if !converged {
			return nil, 0, fmt.Errorf("oracle: Newton failed at t=%g", t)
		}
		copy(x, xn)
		res.Steps++
		res.T = append(res.T, t+h)
		res.Y = append(res.Y, sys.Output(x))
	}
	return res, factorizations, nil
}

type newtonCase struct {
	name   string
	sys    *qldae.System
	u      Input
	linear bool
}

// newtonCases covers every shape of Jacobian the Newton loop sees: G1
// alone on the dense and on the sparse (CSR-only) route, and the three
// state- or input-dependent terms.
func newtonCases() []newtonCase {
	rng := rand.New(rand.NewSource(21))
	wave := func(t float64) []float64 { return []float64{0.6 * math.Sin(2*t) * math.Exp(-0.2*t)} }
	randSparse := func(rows, cols, nnz int, scale float64) *sparse.CSR {
		b := sparse.NewBuilder(rows, cols)
		for i := 0; i < nnz; i++ {
			b.Add(rng.Intn(rows), rng.Intn(cols), scale*(2*rng.Float64()-1))
		}
		return b.Build()
	}

	dense := &qldae.System{N: 8, G1: mat.RandStable(rng, 8, 0.5), B: mat.RandDense(rng, 8, 1), L: mat.RandDense(rng, 1, 8)}

	// A CSR-only RC ladder: no dense G1, so the Newton matrix is
	// assembled and factored sparse.
	const nl = 40
	lb := sparse.NewBuilder(nl, nl)
	for i := 0; i < nl; i++ {
		lb.Add(i, i, -2.1)
		if i > 0 {
			lb.Add(i, i-1, 1)
		}
		if i < nl-1 {
			lb.Add(i, i+1, 1)
		}
	}
	ladder := &qldae.System{N: nl, G1S: lb.Build(), B: mat.NewDense(nl, 1), L: mat.NewDense(1, nl)}
	ladder.B.Set(0, 0, 1)
	ladder.L.Set(0, nl-1, 1)

	g1q := mat.RandStable(rng, 6, 0.5)
	quad := &qldae.System{N: 6, G1: g1q, G1S: sparse.FromDense(g1q), G2: randSparse(6, 36, 12, 0.3),
		B: mat.RandDense(rng, 6, 1), L: mat.RandDense(rng, 1, 6)}

	cubic := &qldae.System{N: 5, G1: mat.RandStable(rng, 5, 0.5), G3: randSparse(5, 125, 10, 0.4),
		B: mat.RandDense(rng, 5, 1), L: mat.RandDense(rng, 1, 5)}

	bilinear := &qldae.System{N: 6, G1: mat.RandStable(rng, 6, 0.5), D1: []*mat.Dense{mat.RandDense(rng, 6, 6).Scale(0.2)},
		B: mat.RandDense(rng, 6, 1), L: mat.RandDense(rng, 1, 6)}

	return []newtonCase{
		{"dense-linear", dense, wave, true},
		{"csr-linear", ladder, wave, true},
		{"quadratic", quad, wave, false},
		{"cubic", cubic, wave, false},
		{"bilinear-D1", bilinear, func(t float64) []float64 { return []float64{0.4 * math.Cos(3*t)} }, false},
	}
}

func sameBits(t *testing.T, got, want *Result) {
	t.Helper()
	if len(got.T) != len(want.T) || got.Steps != want.Steps || got.NewtonIters != want.NewtonIters {
		t.Fatalf("got %d samples, %d steps, %d Newton iterations; want %d, %d, %d",
			len(got.T), got.Steps, got.NewtonIters, len(want.T), want.Steps, want.NewtonIters)
	}
	for k := range want.T {
		if math.Float64bits(got.T[k]) != math.Float64bits(want.T[k]) {
			t.Fatalf("T[%d] = %v, want %v", k, got.T[k], want.T[k])
		}
		for c := range want.Y[k] {
			if math.Float64bits(got.Y[k][c]) != math.Float64bits(want.Y[k][c]) {
				t.Fatalf("Y[%d][%d] = %v, want %v (bit mismatch)", k, c, got.Y[k][c], want.Y[k][c])
			}
		}
	}
}

// TestTrapezoidalMatchesOracleLoop pins the Newton loop bit for bit to
// the per-step-refactor transcription above, and pins what hoisting
// buys: a linear system is factored exactly once per run, every other
// one as often as before. Both the auto backend (with its symbolic
// cache) and a counting wrapper must agree.
func TestTrapezoidalMatchesOracleLoop(t *testing.T) {
	const tEnd, steps = 2.0, 200
	for _, tc := range newtonCases() {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.sys.Linear(); got != tc.linear {
				t.Fatalf("Linear() = %v, want %v", got, tc.linear)
			}
			x0 := make([]float64, tc.sys.N)
			want, wantFact, err := oracleTrapezoidal(tc.sys, x0, tc.u, tEnd, steps)
			if err != nil {
				t.Fatal(err)
			}
			if wantFact < steps {
				t.Fatalf("the oracle factored %d times in %d steps; the case exercises too little", wantFact, steps)
			}
			if tc.linear {
				wantFact = 1
			}
			auto, err := TrapezoidalSolverCtx(context.Background(), tc.sys, x0, tc.u, tEnd, steps, nil)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, auto, want)
			seen := 0
			counted, err := TrapezoidalSolverCtx(context.Background(), tc.sys, x0, tc.u, tEnd, steps,
				&wrapSolver{inner: solver.Auto{}, onFactor: func() { seen++ }})
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, counted, want)
			if seen != wantFact || counted.Factorizations != wantFact || auto.Factorizations != wantFact {
				t.Fatalf("factorizations: wrapper saw %d, Result says %d (auto %d), want %d",
					seen, counted.Factorizations, auto.Factorizations, wantFact)
			}
		})
	}
}

// TestRelErrSeriesMatchesScan pins the forward cursor of RelErrSeries to
// the per-sample OutputAt scan it replaced, bit for bit, on a uniform
// (RK4) grid, a non-uniform (Dopri5) grid, and a grid that runs
// backwards, in both directions.
func TestRelErrSeriesMatchesScan(t *testing.T) {
	sys := linearScalar(-1.7)
	u := func(t float64) []float64 { return []float64{math.Sin(5 * t)} }
	uniform := RK4(sys, []float64{1}, u, 3, 700)
	adaptive, err := Dopri5(sys, []float64{1}, u, 3, 1e-6, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.Steps < 10 || adaptive.Steps == uniform.Steps {
		t.Fatalf("adaptive grid has %d steps; the test needs a distinct non-uniform grid", adaptive.Steps)
	}
	reversed := &Result{}
	for k := len(adaptive.T) - 1; k >= 0; k-- {
		reversed.T = append(reversed.T, adaptive.T[k])
		reversed.Y = append(reversed.Y, adaptive.Y[k])
	}
	scan := func(ref, approx *Result) []float64 {
		peak := 0.0
		for _, y := range ref.Y {
			peak = math.Max(peak, math.Abs(y[0]))
		}
		es := make([]float64, len(ref.T))
		for k, t := range ref.T {
			es[k] = math.Abs(ref.Y[k][0]-approx.OutputAt(t, 0)) / peak
		}
		return es
	}
	for _, p := range []struct {
		name        string
		ref, approx *Result
	}{
		{"uniform-ref", uniform, adaptive},
		{"adaptive-ref", adaptive, uniform},
		{"descending-ref", reversed, uniform},
	} {
		ts, es := RelErrSeries(p.ref, p.approx, 0)
		want := scan(p.ref, p.approx)
		for k := range want {
			if ts[k] != p.ref.T[k] || math.Float64bits(es[k]) != math.Float64bits(want[k]) {
				t.Fatalf("%s: sample %d: got (%v, %v), want (%v, %v)", p.name, k, ts[k], es[k], p.ref.T[k], want[k])
			}
		}
	}
}
