package netlist

import (
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"

	"avtmor/internal/lu"
	"avtmor/internal/mat"
	"avtmor/internal/ode"
	"avtmor/internal/schur"
)

const rcLine = `
* two-node RC line driven by a current source
I1 0 n1 IN0 1.0
R1 n1 n2 1.0
C1 n1 0 1.0
C2 n2 0 1.0
R2 n2 0 2.0
.out n2
.end
`

func TestParseRC(t *testing.T) {
	c, err := Parse(strings.NewReader(rcLine))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Nodes) != 2 || len(c.Resistors) != 2 || len(c.Caps) != 2 {
		t.Fatalf("inventory wrong: %s", c.Summary())
	}
	sys, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	if sys.N != 2 || sys.Inputs() != 1 || sys.G2 != nil {
		t.Fatalf("system shape wrong: n=%d m=%d", sys.N, sys.Inputs())
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"R1 a b -1\n",                 // negative value
		"X1 a b 1\n",                  // unknown card
		"I1 0 n1 DC 1\n",              // non-channel source
		"R1 a b\n",                    // too few fields
		"D1 a 0 1e-3 0\n",             // vt = 0
		"G1 a b 1\nI1 0 a IN0 1\n",    // G needs gamma
		"I1 0 n1 IN0 1\nC1 n1 n2 1\n", // floating cap
	} {
		if _, err := Parse(strings.NewReader(bad)); err == nil {
			// Some of these fail at Build time instead.
			c, err2 := Parse(strings.NewReader(bad))
			if err2 != nil {
				continue
			}
			if _, err3 := c.Build(); err3 == nil {
				t.Fatalf("input %q: expected an error", bad)
			}
		}
	}
}

// TestParseRejectsUndrivenChannel: input channels must be IN0…IN(m−1).
// A lone high channel (53 bytes that once sized B for fifty million
// inputs) and a gap both fail in Parse with the typed error naming the
// first undriven channel, without allocating for the channels named.
func TestParseRejectsUndrivenChannel(t *testing.T) {
	for _, tc := range []struct {
		netlist          string
		channel, highest int
	}{
		{"* t\nI0 0 n1 IN50000000 1\nC1 n1 0 1\nR1 n1 0 2\n.out n1\n", 0, 50000000},
		{"I1 0 n1 IN0 1\nI2 0 n1 IN2 1\nC1 n1 0 1\nR1 n1 0 1\n", 1, 2},
		{"I1 0 n1 IN2000000000 1\nI2 0 n1 IN0 1\nC1 n1 0 1\nR1 n1 0 1\n", 1, 2000000000},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Parse(strings.NewReader(tc.netlist))
		runtime.ReadMemStats(&after)
		var uc *UndrivenChannelError
		if !errors.As(err, &uc) || uc.Channel != tc.channel || uc.Highest != tc.highest {
			t.Fatalf("%q: got %v, want IN%d undriven below IN%d", tc.netlist, err, tc.channel, tc.highest)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("%q: parsing allocated %d bytes", tc.netlist, grew)
		}
	}
	// Duplicate and unordered channels are fine as long as none is
	// missing.
	c, err := Parse(strings.NewReader("I1 0 n1 IN1 1\nI2 0 n2 IN0 1\nI3 n2 0 IN1 2\nC1 n1 0 1\nC2 n2 0 1\nR1 n1 n2 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := c.Build()
	if err != nil || sys.Inputs() != 2 {
		t.Fatalf("two channels: %v, %d inputs", err, sys.Inputs())
	}
}

func TestBuildRequiresGroundedCaps(t *testing.T) {
	c, err := Parse(strings.NewReader("I1 0 n1 IN0 1\nR1 n1 0 1\nC1 n1 0 1\nR2 n1 n2 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Build(); err == nil {
		t.Fatal("node without capacitance must be rejected")
	}
}

const diodeLine = `
* current-driven RC stage with one diode to ground
I1 0 n1 IN0 1.0
C1 n1 0 1.0
R1 n1 0 1.0
D1 n1 0 1.0 0.025
.out n1
`

func TestDiodeLinearizationMatchesRawODE(t *testing.T) {
	c, err := Parse(strings.NewReader(diodeLine))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	if sys.N != 2 { // v1 + one z state
		t.Fatalf("n = %d, want 2", sys.N)
	}
	if sys.D1 == nil || sys.D1[0].MaxAbs() == 0 {
		t.Fatal("diode driven by the source node must produce a D1 term")
	}
	// Raw ODE: v̇ = u − v − (e^{v/0.025} − 1), simulated with RK4.
	u := func(tt float64) []float64 { return []float64{0.02 * math.Sin(tt)} }
	res, _ := ode.RK4Ctx(context.Background(), sys, make([]float64, 2), u, 5, 20000)
	v := 0.0
	h := 5.0 / 20000
	rk := func(v float64, uu float64) float64 {
		f := func(x float64) float64 { return uu - x - (math.Exp(x/0.025) - 1) }
		k1 := f(v)
		k2 := f(v + 0.5*h*k1)
		k3 := f(v + 0.5*h*k2)
		k4 := f(v + h*k3)
		return v + h/6*(k1+2*k2+2*k3+k4)
	}
	worst := 0.0
	for s := 0; s < 20000; s++ {
		tt := float64(s) * h
		// Use midpoint input for comparable accuracy.
		v = rk(v, u(tt + 0.5*h)[0])
		if d := math.Abs(v - res.Y[s+1][0]); d > worst {
			worst = d
		}
	}
	if worst > 5e-4 {
		t.Fatalf("linearized netlist deviates from raw diode ODE by %g", worst)
	}
}

func TestInductorStamp(t *testing.T) {
	src := `
I1 0 n1 IN0 1.0
C1 n1 0 1.0
L1 n1 n2 0.5
C2 n2 0 1.0
R1 n2 0 1.0
.out n2
`
	c, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	if sys.N != 3 {
		t.Fatalf("n = %d, want 3 (2 nodes + 1 inductor)", sys.N)
	}
	// RLC circuit must be stable and have a complex pair.
	eigs, err := schur.Eigenvalues(sys.G1)
	if err != nil {
		t.Fatal(err)
	}
	cplx := 0
	for _, e := range eigs {
		if real(e) >= 0 {
			t.Fatalf("unstable netlist eigenvalue %v", e)
		}
		if imag(e) != 0 {
			cplx++
		}
	}
	if cplx == 0 {
		t.Fatal("expected a complex pair from the LC loop")
	}
}

func TestQuadConductance(t *testing.T) {
	src := `
I1 0 n1 IN0 1.0
C1 n1 0 1.0
G1 n1 0 1.0 0.5
`
	c, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	// v̇ = u − v − 0.5·v²: check Eval at v = 0.2, u = 0.1.
	dst := make([]float64, 1)
	sys.Prepare().Eval(dst, []float64{0.2}, []float64{0.1})
	want := 0.1 - 0.2 - 0.5*0.04
	if math.Abs(dst[0]-want) > 1e-14 {
		t.Fatalf("Eval = %v, want %v", dst[0], want)
	}
}

func TestOutputsAndSummary(t *testing.T) {
	c, err := Parse(strings.NewReader(rcLine))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(c.Summary(), "nodes=2") {
		t.Fatalf("summary: %s", c.Summary())
	}
	sys, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Output selects n2.
	y := sys.Output([]float64{3, 7})
	if y[0] != 7 {
		t.Fatalf("output %v", y)
	}
	if _, err := c.NodeIndex("nope"); err == nil {
		t.Fatal("unknown node must error")
	}
}

func TestDCGainRC(t *testing.T) {
	c, err := Parse(strings.NewReader(rcLine))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	// DC: solve G1·x = −B·u for u = 1 and read the output.
	rhs := make([]float64, sys.N)
	for i := 0; i < sys.N; i++ {
		rhs[i] = -sys.B.At(i, 0)
	}
	x, err := solveDense(sys.G1, rhs)
	if err != nil {
		t.Fatal(err)
	}
	y := sys.Output(x)
	if math.Abs(y[0]-2) > 1e-12 {
		t.Fatalf("DC gain %v, want 2 (current through R2)", y[0])
	}
}

func solveDense(g *mat.Dense, b []float64) ([]float64, error) {
	return lu.Solve(g, b)
}
