package balance

import (
	"math/rand"
	"testing"

	"avtmor/internal/mat"
)

func lyapResidual(a, x, rhs *mat.Dense) float64 {
	// ‖A·X + X·Aᵀ + RHS‖∞.
	return a.Mul(x).Plus(x.Mul(a.T())).Plus(rhs).MaxAbs()
}

func TestGramiansResiduals(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := mat.RandStable(rng, 12, 0.3)
	b := mat.RandDense(rng, 12, 2)
	c := mat.RandDense(rng, 1, 12)
	p, q, err := Gramians(a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	if r := lyapResidual(a, p, b.Mul(b.T())); r > 1e-8 {
		t.Fatalf("P residual %g", r)
	}
	if r := lyapResidual(a.T(), q, c.T().Mul(c)); r > 1e-8 {
		t.Fatalf("Q residual %g", r)
	}
	// Gramians of a stable system are PSD: check xᵀPx ≥ 0 on probes.
	for trial := 0; trial < 10; trial++ {
		x := mat.RandVec(rng, 12)
		px := make([]float64, 12)
		p.MulVec(px, x)
		if mat.Dot(x, px) < -1e-10 {
			t.Fatal("P not PSD")
		}
	}
}

func TestHSVDiagonalKnown(t *testing.T) {
	// For A = diag(−a_i), B = C ᵀ = e_i-ish decoupled SISO sums the HSVs
	// are b_i·c_i/(2a_i).
	a := mat.Diag([]float64{-1, -2})
	b := mat.FromRows([][]float64{{1}, {2}})
	c := mat.FromRows([][]float64{{3, 1}})
	hsv, err := HSV(a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	// P = diag(b_i²/(2a_i)) + coupling; compute reference numerically via
	// the known closed form for this 2×2 case is messy — instead check
	// monotonicity and positivity, and cross-check σ_max against the
	// Hankel-norm lower bound ‖H‖_∞/2 ≤ ... keep it simple: positive,
	// sorted.
	if len(hsv) != 2 || hsv[0] < hsv[1] || hsv[1] < 0 {
		t.Fatalf("hsv = %v", hsv)
	}
	if hsv[0] < 1 { // the (b=2,c=1,a=2) + (b=1,c=3,a=1) system is not tiny
		t.Fatalf("σ_max = %v suspiciously small", hsv[0])
	}
}

func TestSuggestOrder(t *testing.T) {
	hsv := []float64{1, 0.5, 1e-3, 1e-9}
	if k := SuggestOrder(hsv, 1e-2); k != 2 {
		t.Fatalf("k = %d, want 2", k)
	}
	if k := SuggestOrder(hsv, 1e-6); k != 3 {
		t.Fatalf("k = %d, want 3", k)
	}
	if k := SuggestOrder(nil, 1e-2); k != 0 {
		t.Fatalf("empty: %d", k)
	}
	if k := SuggestOrder([]float64{1}, 2); k != 1 {
		t.Fatalf("floor: %d", k)
	}
}
