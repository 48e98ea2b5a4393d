package ode

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"avtmor/internal/mat"
	"avtmor/internal/qldae"
	"avtmor/internal/sparse"
)

// Const wraps a constant input vector.
func Const(u []float64) Input {
	return func(float64) []float64 { return u }
}

// linearScalar builds dx/dt = a·x + u with output x.
func linearScalar(a float64) *qldae.System {
	return &qldae.System{
		N:  1,
		G1: mat.Diag([]float64{a}),
		B:  mat.FromRows([][]float64{{1}}),
		L:  mat.FromRows([][]float64{{1}}),
	}
}

func TestRK4ExponentialDecay(t *testing.T) {
	sys := linearScalar(-2)
	res, _ := RK4Ctx(context.Background(), sys, []float64{1}, Const([]float64{0}), 1, 200)
	want := math.Exp(-2)
	got := res.Y[len(res.Y)-1][0]
	if math.Abs(got-want) > 1e-8 {
		t.Fatalf("RK4 decay: got %v want %v", got, want)
	}
	if res.Factorizations != 0 {
		t.Fatalf("RK4 reports %d factorizations", res.Factorizations)
	}
}

func TestRK4ConvergenceOrder(t *testing.T) {
	// Halving h must cut the error by ~2⁴.
	sys := linearScalar(-1.3)
	exact := math.Exp(-1.3)
	coarse, _ := RK4Ctx(context.Background(), sys, []float64{1}, Const([]float64{0}), 1, 10)
	fine, _ := RK4Ctx(context.Background(), sys, []float64{1}, Const([]float64{0}), 1, 20)
	err1 := math.Abs(coarse.Y[10][0] - exact)
	err2 := math.Abs(fine.Y[20][0] - exact)
	ratio := err1 / err2
	if ratio < 12 || ratio > 20 {
		t.Fatalf("RK4 order ratio %v, want ≈16", ratio)
	}
}

func TestDopri5MatchesRK4(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 8
	g2b := sparse.NewBuilder(n, n*n)
	for i := 0; i < 2*n; i++ {
		g2b.Add(rng.Intn(n), rng.Intn(n*n), 0.2*(2*rng.Float64()-1))
	}
	sys := &qldae.System{
		N:  n,
		G1: mat.RandStable(rng, n, 0.5),
		G2: g2b.Build(),
		B:  mat.RandDense(rng, n, 1),
		L:  mat.RandDense(rng, 1, n),
	}
	u := func(t float64) []float64 { return []float64{0.5 * math.Sin(2*t) * math.Exp(-0.3*t)} }
	x0 := make([]float64, n)
	ref, _ := RK4Ctx(context.Background(), sys, x0, u, 5, 20000)
	got, err := Dopri5Ctx(context.Background(), sys, x0, u, 5, 1e-9, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	// Compare on the adaptive grid (the dense RK4 grid interpolates
	// accurately there; the reverse direction would measure linear
	// interpolation error across the large adaptive steps).
	if e := MaxRelErr(got, ref, 0); e > 1e-6 {
		t.Fatalf("Dopri5 vs RK4 error %g", e)
	}
	if got.Steps == 0 || got.T[len(got.T)-1] != 5 {
		t.Fatal("Dopri5 did not integrate to tEnd")
	}
}

func TestDopri5AdaptsToTolerance(t *testing.T) {
	sys := linearScalar(-1)
	loose, err := Dopri5Ctx(context.Background(), sys, []float64{1}, Const([]float64{0}), 2, 1e-3, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := Dopri5Ctx(context.Background(), sys, []float64{1}, Const([]float64{0}), 2, 1e-10, 1e-13)
	if err != nil {
		t.Fatal(err)
	}
	if tight.Steps <= loose.Steps {
		t.Fatalf("tolerance did not change step count: %d vs %d", loose.Steps, tight.Steps)
	}
	if loose.Factorizations != 0 || tight.Factorizations != 0 {
		t.Fatal("Dopri5 reports factorizations")
	}
}

// TestDopri5NaNErrorCollapses: x' = −x + 1e300·x² overflows in its
// first stages, so the error estimate is Inf − Inf. The run must end
// with the step-collapse error, not spin on NaN step sizes until the
// step budget or the context ends it.
func TestDopri5NaNErrorCollapses(t *testing.T) {
	g2 := sparse.NewBuilder(1, 1)
	g2.Add(0, 0, 1e300)
	sys := &qldae.System{
		N:  1,
		G1: mat.Diag([]float64{-1}),
		G2: g2.Build(),
		B:  mat.FromRows([][]float64{{1}}),
		L:  mat.FromRows([][]float64{{1}}),
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_, err := Dopri5Ctx(ctx, sys, []float64{1}, Const([]float64{0}), 1, 1e-7, 1e-9)
	if err == nil || !strings.Contains(err.Error(), "step collapsed") {
		t.Fatalf("err = %v, want the step-collapse error", err)
	}
}

func TestTrapezoidalStiffDecay(t *testing.T) {
	// λ = −10⁴: explicit RK4 with 100 steps over [0,1] would explode;
	// trapezoidal stays stable and accurate at the resolved scale. Every
	// sample of x' = λx, x(0) = 1 is the closed-form trapezoid Rᵏ,
	// R = (1 + hλ/2)/(1 − hλ/2), for the stiff λ and two mild ones.
	const steps = 400
	for _, lambda := range []float64{-1e4, -1.7, -0.01} {
		res, err := TrapezoidalSolverCtx(context.Background(), linearScalar(lambda), []float64{1}, Const([]float64{0}), 1, steps, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Y[len(res.Y)-1][0]; lambda == -1e4 && math.Abs(got) > 1e-3 {
			t.Fatalf("stiff decay not damped: %v", got)
		}
		if res.NewtonIters == 0 {
			t.Fatal("Newton iteration counter not incremented")
		}
		hl := 1.0 / steps * lambda / 2
		r := (1 + hl) / (1 - hl)
		for k, y := range res.Y {
			if want := math.Pow(r, float64(k)); math.Abs(y[0]-want) > 1e-12*math.Abs(want) {
				t.Fatalf("λ = %g: y[%d] = %v, want Rᵏ = %v", lambda, k, y[0], want)
			}
		}
	}
}

func TestTrapezoidalMatchesRK4OnNonlinear(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 6
	g2b := sparse.NewBuilder(n, n*n)
	for i := 0; i < 2*n; i++ {
		g2b.Add(rng.Intn(n), rng.Intn(n*n), 0.3*(2*rng.Float64()-1))
	}
	sys := &qldae.System{
		N:  n,
		G1: mat.RandStable(rng, n, 0.5),
		G2: g2b.Build(),
		D1: []*mat.Dense{mat.RandDense(rng, n, n).Scale(0.1)},
		B:  mat.RandDense(rng, n, 1),
		L:  mat.RandDense(rng, 1, n),
	}
	u := func(t float64) []float64 { return []float64{0.4 * math.Cos(3*t)} }
	x0 := make([]float64, n)
	ref, _ := RK4Ctx(context.Background(), sys, x0, u, 3, 30000)
	got, err := TrapezoidalSolverCtx(context.Background(), sys, x0, u, 3, 3000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e := MaxRelErr(ref, got, 0); e > 1e-4 {
		t.Fatalf("trapezoidal vs RK4 error %g", e)
	}
}

func TestOutputAtInterpolation(t *testing.T) {
	r := &Result{T: []float64{0, 1, 2}, Y: [][]float64{{0}, {2}, {6}}}
	if v := r.OutputAt(0.5, 0); math.Abs(v-1) > 1e-15 {
		t.Fatalf("interp: %v", v)
	}
	if v := r.OutputAt(1.5, 0); math.Abs(v-4) > 1e-15 {
		t.Fatalf("interp: %v", v)
	}
	if v := r.OutputAt(99, 0); v != 6 {
		t.Fatalf("extrapolation clamp: %v", v)
	}
}

func TestRelErrSeries(t *testing.T) {
	a := &Result{T: []float64{0, 1}, Y: [][]float64{{2}, {4}}}
	b := &Result{T: []float64{0, 1}, Y: [][]float64{{2}, {3}}}
	_, es := RelErrSeries(a, b, 0)
	if math.Abs(es[0]) > 1e-15 || math.Abs(es[1]-0.25) > 1e-15 {
		t.Fatalf("rel err series: %v", es)
	}
	if m := MaxRelErr(a, b, 0); math.Abs(m-0.25) > 1e-15 {
		t.Fatalf("max rel err: %v", m)
	}
}

// TestVolterraSecondOrderResponse validates the association theory in the
// time domain (Fig. 1 of the paper): for an impulse-like excitation of a
// D1-free quadratic system, the ε²-component of the response equals the
// diagonal kernel h2(t,t), whose Laplace transform is A2(H2). We compare
// the Richardson-extrapolated simulation against the explicit realization
// c̃2·e^{G̃2·t}·b̃2 evaluated by dense matrix exponential.
func TestVolterraSecondOrderResponse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 4
	g2b := sparse.NewBuilder(n, n*n)
	for i := 0; i < 2*n; i++ {
		g2b.Add(rng.Intn(n), rng.Intn(n*n), 0.5*(2*rng.Float64()-1))
	}
	sys := &qldae.System{
		N:  n,
		G1: mat.RandStable(rng, n, 0.5),
		G2: g2b.Build(),
		B:  mat.RandDense(rng, n, 1),
		L:  mat.Eye(n), // observe the full state
	}
	// Impulse of area ε through b ≡ initial condition x(0) = ε·b.
	const eps = 1e-3
	b := sys.B.Col(0)
	x0 := mat.CopyVec(b)
	mat.ScaleVec(eps, x0)
	tEnd := 1.2
	res, _ := RK4Ctx(context.Background(), sys, x0, Const([]float64{0}), tEnd, 4000)
	// h1(t) = e^{G1·t}·b via Expm; h2(t,t) = c̃2·e^{G̃2·t}·b̃2.
	n2 := n + n*n
	gt2 := mat.NewDense(n2, n2)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			gt2.Set(i, j, sys.G1.At(i, j))
		}
	}
	g2d := sys.G2.Dense()
	for i := 0; i < n; i++ {
		for j := 0; j < n*n; j++ {
			gt2.Set(i, n+j, g2d.At(i, j))
		}
	}
	// ⊕²G1 block.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				// (G1⊗I)[(i,k),(j,k)] and (I⊗G1)[(k,i),(k,j)].
				gt2.Add(n+i*n+k, n+j*n+k, sys.G1.At(i, j))
				gt2.Add(n+k*n+i, n+k*n+j, sys.G1.At(i, j))
			}
		}
	}
	bt2 := make([]float64, n2)
	for p := 0; p < n; p++ {
		for q := 0; q < n; q++ {
			bt2[n+p*n+q] = b[p] * b[q]
		}
	}
	for _, tt := range []float64{0.3, 0.7, 1.1} {
		// Simulated second-order component.
		h1 := make([]float64, n)
		mat.Expm(sys.G1.Clone().Scale(tt)).MulVec(h1, b)
		x2 := make([]float64, n)
		for i := 0; i < n; i++ {
			x2[i] = (res.OutputAt(tt, i) - eps*h1[i]) / (eps * eps)
		}
		// Realization value.
		full := make([]float64, n2)
		mat.Expm(gt2.Clone().Scale(tt)).MulVec(full, bt2)
		want := full[:n]
		d := make([]float64, n)
		mat.SubVec(d, x2, want)
		if mat.Norm2(d) > 2e-2*(1+mat.Norm2(want)) {
			t.Fatalf("t=%v: simulated h2(t,t)=%v vs realization %v", tt, x2, want)
		}
	}
}
