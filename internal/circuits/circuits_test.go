package circuits

import (
	"math"
	"testing"

	"avtmor/internal/mat"
	"avtmor/internal/ode"
	"avtmor/internal/schur"
)

// RawNTLVoltageRHS evaluates the original (pre-linearization) nonlinear
// ODE of the NTLVoltage circuit on the nV node voltages: the fidelity
// oracle showing the quadratic-linearization is exact (up to the invariant
// z = e^{40w} manifold).
func RawNTLVoltageRHS(nV int, dst, v []float64, u float64) {
	iD := func(w float64) float64 { return math.Exp(40*w) - 1 }
	for k := 0; k < nV; k++ {
		var s float64
		switch {
		case k == 0:
			s = u - 2*v[0] - iD(v[0]) - iD(v[0]-at(v, 1))
			if nV > 1 {
				s += v[1]
			}
		case k < nV-1:
			s = v[k-1] - 2*v[k] + v[k+1] + iD(v[k-1]-v[k]) - iD(v[k]-v[k+1])
		default:
			s = v[k-1] - 2*v[k] + iD(v[k-1]-v[k])
		}
		dst[k] = s
	}
}

func at(v []float64, i int) float64 {
	if i < len(v) {
		return v[i]
	}
	return 0
}

func checkWorkload(t *testing.T, w *Workload, wantN int) {
	t.Helper()
	if w.Sys.N != wantN {
		t.Fatalf("%s: n = %d, want %d", w.Name, w.Sys.N, wantN)
	}
	if err := w.Sys.Validate(); err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	// The origin must be an equilibrium with zero input.
	dst := make([]float64, w.Sys.N)
	w.Sys.Prepare().Eval(dst, make([]float64, w.Sys.N), make([]float64, w.Sys.Inputs()))
	if mat.NormInf(dst) != 0 {
		t.Fatalf("%s: origin is not an equilibrium (|f| = %g)", w.Name, mat.NormInf(dst))
	}
	// No right-half-plane eigenvalues. Exact quadratic-linearization
	// carries structurally neutral (zero) modes — the slaved directions
	// z − 40·w — which is why such workloads set S0 ≠ 0.
	eigs, err := schur.Eigenvalues(w.Sys.G1)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range eigs {
		if real(e) > 1e-8 {
			t.Fatalf("%s: unstable eigenvalue %v", w.Name, e)
		}
	}
	// The stimulus must be finite over the window.
	for _, tt := range []float64{0, w.TEnd / 3, w.TEnd} {
		for _, u := range w.U(tt) {
			if math.IsNaN(u) || math.IsInf(u, 0) {
				t.Fatalf("%s: bad input at t=%v", w.Name, tt)
			}
		}
	}
}

func TestNTLVoltageStructure(t *testing.T) {
	w := NTLVoltage(50)
	checkWorkload(t, w, 100)
	// D1 must be genuinely nonzero (the point of §3.1).
	if w.Sys.D1 == nil || w.Sys.D1[0].MaxAbs() == 0 {
		t.Fatal("voltage-source line must carry a D1 term")
	}
	if w.S0 == 0 {
		t.Fatal("quadratic-linearized line needs a non-DC expansion point")
	}
}

func TestNTLCurrentStructure(t *testing.T) {
	w := NTLCurrent(70)
	checkWorkload(t, w, 70)
	if w.Sys.D1 != nil {
		t.Fatal("current-source line must have no D1 term")
	}
	// One ground branch + 69 junction branches, each junction expanding
	// into 3 monomials on each of its two nodes (minus cancellations where
	// branches share a node).
	if w.Sys.G2 == nil || w.Sys.G2.NNZ() < 2*70 {
		t.Fatalf("junction quadratics missing: nnz = %d", w.Sys.G2.NNZ())
	}
	// Off-diagonal coupling must be present (v_k·v_{k+1} monomials).
	hasCross := false
	for r := 0; r < w.Sys.G2.Rows && !hasCross; r++ {
		for k := w.Sys.G2.RowPtr[r]; k < w.Sys.G2.RowPtr[r+1]; k++ {
			c := w.Sys.G2.ColIdx[k]
			if c/70 != c%70 {
				hasCross = true
				break
			}
		}
	}
	if !hasCross {
		t.Fatal("G2 has no cross monomials; junction nonlinearity miswired")
	}
}

func TestRFReceiverStructure(t *testing.T) {
	w := RFReceiver()
	checkWorkload(t, w, 173)
	if w.Sys.Inputs() != 2 {
		t.Fatalf("receiver must have two inputs, got %d", w.Sys.Inputs())
	}
	// The RLC chain must produce complex eigenvalue pairs (they exercise
	// the 2×2 Schur-block paths of the structured solvers).
	eigs, err := schur.Eigenvalues(w.Sys.G1)
	if err != nil {
		t.Fatal(err)
	}
	complexCount := 0
	for _, e := range eigs {
		if imag(e) != 0 {
			complexCount++
		}
	}
	if complexCount < 8 {
		t.Fatalf("expected complex pairs from the LC path, got %d", complexCount)
	}
}

func TestVaristorStructure(t *testing.T) {
	w := Varistor()
	checkWorkload(t, w, 102)
	if w.Sys.G3 == nil || w.Sys.G3.NNZ() != 1 {
		t.Fatal("varistor must have exactly one cubic branch")
	}
	if !w.Stiff {
		t.Fatal("varistor workload should request the stiff integrator")
	}
}

func TestNTLVoltageQuadraticLinearizationExact(t *testing.T) {
	// Simulate the QLDAE and the raw nonlinear ODE with the same stimulus:
	// the node voltages must agree to integrator accuracy (the
	// linearization is exact, not an approximation).
	const stages = 8
	w := NTLVoltage(stages)
	x0 := make([]float64, w.Sys.N)
	res := ode.RK4(w.Sys, x0, w.U, 10, 4000)

	// Raw ODE integration (plain RK4 on the node voltages).
	v := make([]float64, stages)
	k1 := make([]float64, stages)
	k2 := make([]float64, stages)
	k3 := make([]float64, stages)
	k4 := make([]float64, stages)
	vs := make([]float64, stages)
	h := 10.0 / 4000
	var rawOut []float64
	rawOut = append(rawOut, v[0])
	for s := 0; s < 4000; s++ {
		tt := float64(s) * h
		RawNTLVoltageRHS(stages, k1, v, w.U(tt)[0])
		for i := range vs {
			vs[i] = v[i] + 0.5*h*k1[i]
		}
		RawNTLVoltageRHS(stages, k2, vs, w.U(tt + 0.5*h)[0])
		for i := range vs {
			vs[i] = v[i] + 0.5*h*k2[i]
		}
		RawNTLVoltageRHS(stages, k3, vs, w.U(tt + 0.5*h)[0])
		for i := range vs {
			vs[i] = v[i] + h*k3[i]
		}
		RawNTLVoltageRHS(stages, k4, vs, w.U(tt + h)[0])
		for i := range v {
			v[i] += h / 6 * (k1[i] + 2*k2[i] + 2*k3[i] + k4[i])
		}
		rawOut = append(rawOut, v[0])
	}
	// Compare node-0 voltage across the window.
	peak := 0.0
	for _, y := range rawOut {
		if a := math.Abs(y); a > peak {
			peak = a
		}
	}
	if peak < 1e-4 {
		t.Fatal("stimulus produced no response; test is vacuous")
	}
	worst := 0.0
	for k := range rawOut {
		if d := math.Abs(rawOut[k] - res.Y[k][0]); d > worst {
			worst = d
		}
	}
	if worst > 1e-8*peak+1e-12 {
		t.Fatalf("QLDAE deviates from raw nonlinear ODE by %g (peak %g)", worst, peak)
	}
}

func TestVaristorClamps(t *testing.T) {
	// The surge must be clamped: protected-side voltage ≪ source peak.
	w := Varistor()
	x0 := make([]float64, w.Sys.N)
	res, err := ode.Trapezoidal(w.Sys, x0, w.U, w.TEnd, w.Steps)
	if err != nil {
		t.Fatal(err)
	}
	peakOut := 0.0
	for _, y := range res.Y {
		if a := math.Abs(y[0]); a > peakOut {
			peakOut = a
		}
	}
	if peakOut > 1.0 {
		t.Fatalf("varistor failed to clamp: output peak %g kV", peakOut)
	}
	if peakOut < 0.05 {
		t.Fatalf("output suspiciously small (%g kV); circuit may be miswired", peakOut)
	}
}

func TestNTLCurrentRespondsNonlinearly(t *testing.T) {
	// Doubling the input must NOT exactly double the output (quadratic
	// conductances at work).
	w := NTLCurrent(30)
	x0 := make([]float64, w.Sys.N)
	r1 := ode.RK4(w.Sys, x0, w.U, 15, 3000)
	u2 := func(t float64) []float64 { return []float64{2 * w.U(t)[0]} }
	r2 := ode.RK4(w.Sys, x0, u2, 15, 3000)
	maxDev := 0.0
	for k := range r1.Y {
		dev := math.Abs(r2.Y[k][0] - 2*r1.Y[k][0])
		if dev > maxDev {
			maxDev = dev
		}
	}
	if maxDev < 1e-5 {
		t.Fatalf("response scales linearly (dev %g); nonlinearity missing", maxDev)
	}
}
