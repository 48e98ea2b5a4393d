package avtmor_test

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"

	"avtmor"
)

// buildChain constructs a small RC chain with one quadratic
// conductance through the public SystemBuilder — the quickstart system.
func buildChain(t *testing.T, n int) *avtmor.System {
	t.Helper()
	b := avtmor.NewSystemBuilder(n, 1, 1)
	for k := 0; k < n; k++ {
		d := -0.5
		if k > 0 {
			b.G1(k, k-1, 1)
			d -= 1
		}
		if k < n-1 {
			b.G1(k, k+1, 1)
			d -= 1
		}
		b.G1(k, k, d)
	}
	b.G2(1, 1, 1, -0.2)
	b.B(0, 0, 1)
	b.L(0, 0, 1)
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestPublicReduceAndSimulate(t *testing.T) {
	ctx := context.Background()
	sys := buildChain(t, 20)
	if sys.States() != 20 || sys.Inputs() != 1 || sys.Outputs() != 1 {
		t.Fatalf("dims: %d/%d/%d", sys.States(), sys.Inputs(), sys.Outputs())
	}
	if !sys.HasQuadratic() || sys.HasCubic() || sys.HasBilinear() {
		t.Fatal("term flags wrong")
	}
	var events atomic.Int64 // WithParallel delivers progress concurrently
	rom, err := avtmor.Reduce(ctx, sys,
		avtmor.WithOrders(4, 2, 1),
		avtmor.WithParallel(),
		avtmor.WithProgress(func(avtmor.Progress) { events.Add(1) }))
	if err != nil {
		t.Fatal(err)
	}
	if rom.Order() <= 0 || rom.Order() >= 20 {
		t.Fatalf("order %d", rom.Order())
	}
	if rom.Method() != "assoc" {
		t.Fatalf("method %q", rom.Method())
	}
	if events.Load() == 0 {
		t.Fatal("no progress events delivered")
	}
	// Backend reports the backend that actually ran: a 20-state dense
	// system under the default auto policy routes to the dense LU.
	st := rom.Stats()
	if st.Candidates < rom.Order() || st.Backend != "dense" || st.Factorizations < 1 {
		t.Fatalf("stats: %+v", st)
	}
	// Frequency-domain probe against the full model.
	if e, err := rom.H1Error(0, 0.05i); err != nil || e > 1e-6 {
		t.Fatalf("H1 error %g, %v", e, err)
	}
	// Time-domain agreement.
	u := avtmor.ConstInput([]float64{0.1})
	full, err := sys.Simulate(ctx, u, 10, avtmor.WithRK4(2000))
	if err != nil {
		t.Fatal(err)
	}
	red, err := rom.Simulate(ctx, u, 10, avtmor.WithRK4(2000))
	if err != nil {
		t.Fatal(err)
	}
	if e := avtmor.MaxRelErr(full, red, 0); e > 1e-4 {
		t.Fatalf("transient error %g", e)
	}
	// Lift maps reduced states back to n coordinates.
	x, err := rom.Lift(make([]float64, rom.Order()))
	if err != nil || len(x) != 20 {
		t.Fatalf("lift: %v len %d", err, len(x))
	}
}

func TestPublicReduceNORMAndTransfer(t *testing.T) {
	ctx := context.Background()
	w := avtmor.NTLCurrent(30)
	prop, err := avtmor.Reduce(ctx, w.System, avtmor.WithOrders(4, 2, 0), avtmor.WithExpansion(w.S0))
	if err != nil {
		t.Fatal(err)
	}
	norm, err := avtmor.ReduceNORM(ctx, w.System, avtmor.WithOrders(4, 2, 0), avtmor.WithExpansion(w.S0))
	if err != nil {
		t.Fatal(err)
	}
	if norm.Order() <= prop.Order() {
		t.Fatalf("NORM order %d should exceed proposed %d", norm.Order(), prop.Order())
	}
	// The two ROMs approximate the same H1: their reduced transfer
	// functions must agree closely near the expansion point.
	ya, err := prop.TransferH1(0, complex(w.S0, 0.02))
	if err != nil {
		t.Fatal(err)
	}
	yb, err := norm.TransferH1(0, complex(w.S0, 0.02))
	if err != nil {
		t.Fatal(err)
	}
	if len(ya) != 1 || len(yb) != 1 {
		t.Fatalf("transfer lengths %d/%d", len(ya), len(yb))
	}
	d := ya[0] - yb[0]
	if abs := real(d)*real(d) + imag(d)*imag(d); abs > 1e-8 {
		t.Fatalf("transfer mismatch %v vs %v", ya[0], yb[0])
	}
}

func TestPublicNetlistAndWorkloadSimulate(t *testing.T) {
	const clipper = `
I1 0 n1 IN0 1.0
C1 n1 0 1.0
R1 n1 0 2.0
D1 n1 0 1.0 0.05
R12 n1 n2 1.0
C2 n2 0 1.0
R2 n2 0 2.0
.out n2
`
	sys, err := avtmor.ParseNetlist(strings.NewReader(clipper))
	if err != nil {
		t.Fatal(err)
	}
	if sys.States() != 3 || !sys.HasBilinear() {
		t.Fatalf("netlist system: n=%d bilinear=%v", sys.States(), sys.HasBilinear())
	}
	if !strings.Contains(sys.Description(), "nodes=2") {
		t.Fatalf("description %q", sys.Description())
	}
	ctx := context.Background()
	rom, err := avtmor.Reduce(ctx, sys, avtmor.WithOrders(2, 1, 1), avtmor.WithExpansion(0.4))
	if err != nil {
		t.Fatal(err)
	}
	if rom.Order() < 1 {
		t.Fatal("empty ROM")
	}
	// Workload-driven simulation through the Model interface.
	w := avtmor.NTLCurrent(20)
	w.Steps = 400
	w.TEnd = 4
	full, err := w.Simulate(ctx, w.System)
	if err != nil {
		t.Fatal(err)
	}
	wrom, err := avtmor.Reduce(ctx, w.System, avtmor.WithOrders(4, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	red, err := w.Simulate(ctx, wrom)
	if err != nil {
		t.Fatal(err)
	}
	if e := avtmor.MaxRelErr(full, red, 0); e > 1e-2 {
		t.Fatalf("workload transient error %g", e)
	}
}

func TestPublicAutoOrders(t *testing.T) {
	w := avtmor.NTLCurrent(40)
	rom, err := avtmor.Reduce(context.Background(), w.System,
		avtmor.WithAutoOrders(1e-4), avtmor.WithExpansion(w.S0))
	if err != nil {
		t.Fatal(err)
	}
	if q := rom.Order(); q < 2 || q >= 40 {
		t.Fatalf("auto-selected order %d implausible", q)
	}
}

func TestBuilderRejectsOutOfRange(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected a panic on an out-of-range index", name)
			}
		}()
		f()
	}
	b := avtmor.NewSystemBuilder(10, 1, 1)
	mustPanic("G2 q", func() { b.G2(0, 0, 10, 1) })
	mustPanic("G3 r", func() { b.G3(0, 0, 0, -1, 1) })
	mustPanic("B input", func() { b.B(0, 1, 1) })
	mustPanic("L output", func() { b.L(1, 0, 1) })
	mustPanic("D1 col", func() { b.D1(0, 0, 10, 1) })
}

func TestFingerprintStability(t *testing.T) {
	a := buildChain(t, 12)
	b := buildChain(t, 12)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical systems must fingerprint equal")
	}
	c := buildChain(t, 13)
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("different systems should not collide on n±1")
	}
}

// TestH3ChainsFactorG1Once: both H3 chains run in the Schur coordinates
// of G1, so a single-point reduction of the quadratic §3.1/§3.2
// testbenches factors (G1 − s0·I) exactly once, shared by H1, H2 and
// H3.
func TestH3ChainsFactorG1Once(t *testing.T) {
	for _, tc := range []struct {
		name       string
		w          *avtmor.Workload
		k1, k2, k3 int
	}{
		{"NTLVoltage(50)", avtmor.NTLVoltage(50), 7, 4, 2},
		{"NTLCurrent(70)", avtmor.NTLCurrent(70), 6, 3, 2},
	} {
		rom, err := avtmor.Reduce(context.Background(), tc.w.System,
			avtmor.WithOrders(tc.k1, tc.k2, tc.k3), avtmor.WithExpansion(tc.w.S0))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := rom.Stats().Factorizations; got != 1 {
			t.Errorf("%s: %d factorizations, want 1", tc.name, got)
		}
	}
}
