package ode

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"avtmor/internal/lu"
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
	evalPrep := evalSys.Prepare()
	ls := solver.Auto{}
	sparseAssembly := sys.G1 == nil || (sys.G1S != nil && n >= solver.AutoDenseCutoff)
	prep, jb := sys.Prepare(), sparse.NewBuilder(n, n)
	newtonMatrix := func(xn, u1 []float64, h float64) *solver.Matrix {
		if sparseAssembly {
			return solver.FromCSR(sparse.Add(1, sparse.Eye(n), -0.5*h, prep.JacobianCSRInto(jb, xn, u1)))
		}
		jac := mat.NewDense(n, n)
		prep.JacobianInto(jac, xn, u1)
		jac = jac.Scale(-0.5 * h)
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
		evalPrep.Eval(f0, x, u0)
		xn := mat.CopyVec(x)
		mat.Axpy(h, f0, xn)
		converged := false
		var fac solver.Factorization
		for it := 0; it < 25; it++ {
			res.NewtonIters++
			evalPrep.Eval(f1, xn, u1)
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
				if fac, err = ls.FactorCtx(context.Background(), newtonMatrix(xn, u1, h)); err != nil {
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

	return append([]newtonCase{
		{"dense-linear", dense, wave, true},
		{"csr-linear", ladder, wave, true},
		{"quadratic", quad, wave, false},
		{"cubic", cubic, wave, false},
		{"bilinear-D1", bilinear, func(t float64) []float64 { return []float64{0.4 * math.Cos(3*t)} }, false},
	}, replayCases(rng)...)
}

// replayCases are the Newton systems that exercise the record/replay of
// the dense LU: a sparse quadratic chain whose factors are a small
// fraction of n², a sparse D1 block whose input is exactly zero for
// part of the run, and a D1 coupling that moves the first pivot back
// and forth as its input swings.
func replayCases(rng *rand.Rand) []newtonCase {
	chain := func(n int) *mat.Dense {
		g := mat.NewDense(n, n)
		for i := 0; i < n; i++ {
			g.Set(i, i, -2.5-rng.Float64())
			if i > 0 {
				g.Set(i, i-1, 0.5+rng.Float64())
			}
			if i < n-1 {
				g.Set(i, i+1, 0.5+rng.Float64())
			}
		}
		return g
	}
	const nq = 120
	g1q := chain(nq)
	g2q := sparse.NewBuilder(nq, nq*nq)
	for i := 0; i < nq; i += 3 {
		g2q.Add(i, i*nq+i, -0.3)
		if i+1 < nq {
			g2q.Add(i+1, i*nq+i+1, 0.2)
		}
	}
	bq := mat.NewDense(nq, 1)
	bq.Set(0, 0, 1)
	bq.Set(nq/2, 0, 0.5)
	lq := mat.NewDense(1, nq)
	lq.Set(0, nq-1, 1)
	sparseQuad := &qldae.System{N: nq, G1: g1q, G1S: sparse.FromDense(g1q), G2: g2q.Build(), B: bq, L: lq}

	const nd = 40
	g1d := chain(nd)
	d1 := mat.NewDense(nd, nd)
	for i := 0; i < nd; i += 4 {
		d1.Set(i, i, -0.8)
		if i+1 < nd {
			d1.Set(i+1, i, 0.6)
		}
	}
	bd := mat.NewDense(nd, 2)
	bd.Set(0, 0, 1)
	bd.Set(nd-1, 1, 0.3)
	ld := mat.NewDense(1, nd)
	ld.Set(0, nd/2, 1)
	gated := &qldae.System{N: nd, G1: g1d, G1S: sparse.FromDense(g1d), D1: []*mat.Dense{nil, d1}, B: bd, L: ld}
	gatedInput := func(t float64) []float64 {
		u1 := 0.0
		if t < 0.5 || t >= 1.3 {
			u1 = 0.5 * math.Cos(3*t)
		}
		return []float64{0.6 * math.Sin(2*t), u1}
	}

	// Column 0 of the Newton matrix is (1 + h/2, 150·h·u, h/10): row 1
	// takes the first pivot whenever |u| > (1 + h/2)/(150·h).
	flip := &qldae.System{N: 3,
		G1: mat.FromRows([][]float64{{-1, 0, 0}, {0, -1, 0}, {0.2, 0.1, -1.5}}),
		D1: []*mat.Dense{mat.FromRows([][]float64{{0, 0, 0}, {-300, 0, 0}, {0, 0, 0}})},
		B:  mat.FromRows([][]float64{{1}, {0}, {0}}), L: mat.FromRows([][]float64{{0, 0, 1}})}

	return []newtonCase{
		{"sparse-quadratic", sparseQuad, func(t float64) []float64 { return []float64{0.8 * math.Sin(2*t)} }, false},
		{"sparse-D1-gated", gated, gatedInput, false},
		{"pivot-flip", flip, func(t float64) []float64 { return []float64{1.2 * math.Sin(3*t)} }, false},
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

// TestTrapezoidalReplayCounts pins how the dense route splits a
// nonlinear run's factorizations: one recording and a replay for every
// other factorization, plus a rejection (and a fresh recording) each
// time the pivot order moves. Linear runs and custom backends never
// record.
func TestTrapezoidalReplayCounts(t *testing.T) {
	const tEnd, steps = 2.0, 200
	// recorded, replayed, rejected
	want := map[string][3]int{
		"dense-linear":     {0, 0, 0},
		"csr-linear":       {0, 0, 0},
		"quadratic":        {1, 199, 0},
		"cubic":            {1, 199, 0},
		"bilinear-D1":      {1, 199, 0},
		"sparse-quadratic": {1, 199, 0},
		"sparse-D1-gated":  {1, 199, 0},
		"pivot-flip":       {5, 195, 4},
	}
	for _, tc := range newtonCases() {
		t.Run(tc.name, func(t *testing.T) {
			x0 := make([]float64, tc.sys.N)
			res, err := TrapezoidalSolverCtx(context.Background(), tc.sys, x0, tc.u, tEnd, steps, nil)
			if err != nil {
				t.Fatal(err)
			}
			got := [3]int{res.Recorded, res.Replayed, res.ReplayRejected}
			if w, ok := want[tc.name]; !ok || got != w {
				t.Fatalf("recorded, replayed, rejected = %v, want %v", got, w)
			}
			if !tc.linear && res.Recorded+res.Replayed != res.Factorizations {
				t.Fatalf("%d recorded + %d replayed != %d factorizations", res.Recorded, res.Replayed, res.Factorizations)
			}
			custom, err := TrapezoidalSolverCtx(context.Background(), tc.sys, x0, tc.u, tEnd, steps, &wrapSolver{inner: solver.Auto{}})
			if err != nil {
				t.Fatal(err)
			}
			if custom.Recorded+custom.Replayed+custom.ReplayRejected != 0 {
				t.Fatalf("a custom LinearSolver recorded %d and replayed %d", custom.Recorded, custom.Replayed)
			}
		})
	}
}

// TestReplaySkipsWork checks that the sparse quadratic case is one the
// record actually thins out: P is a few nonzeros per row, and the
// recorded factors hold a small fraction of n² entries.
func TestReplaySkipsWork(t *testing.T) {
	for _, tc := range newtonCases() {
		if tc.name != "sparse-quadratic" {
			continue
		}
		n := tc.sys.N
		prep := tc.sys.Prepare()
		pat := prep.NewtonPattern()
		jd := mat.NewDense(n, n)
		prep.NewtonInto(jd, pat, make([]float64, n), tc.u(0.3), 0.01)
		f, err := lu.FactorInPlace(jd)
		if err != nil {
			t.Fatal(err)
		}
		rec := lu.NewRecord(f, pat.RowPtr, pat.ColIdx)
		if len(pat.ColIdx) > 5*n || rec == nil || 10*rec.NNZ() > n*n {
			t.Fatalf("P has %d entries and the factors %d of n² = %d; the case is not sparse", len(pat.ColIdx), rec.NNZ(), n*n)
		}
		return
	}
	t.Fatal("no sparse-quadratic case")
}

// TestRelErrSeriesMatchesScan pins the forward cursor of RelErrSeries to
// the per-sample OutputAt scan it replaced, bit for bit, on a uniform
// (RK4) grid, a non-uniform (Dopri5) grid, and a grid that runs
// backwards, in both directions.
func TestRelErrSeriesMatchesScan(t *testing.T) {
	sys := linearScalar(-1.7)
	u := func(t float64) []float64 { return []float64{math.Sin(5 * t)} }
	uniform, _ := RK4Ctx(context.Background(), sys, []float64{1}, u, 3, 700)
	adaptive, err := Dopri5Ctx(context.Background(), sys, []float64{1}, u, 3, 1e-6, 1e-9)
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
