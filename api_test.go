package avtmor_test

import (
	"context"
	"math"
	"slices"
	"strings"
	"sync"
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
	rom, err := avtmor.Reduce(ctx, sys,
		avtmor.WithOrders(4, 2, 1),
		avtmor.WithParallel())
	if err != nil {
		t.Fatal(err)
	}
	if rom.Order() <= 0 || rom.Order() >= 20 {
		t.Fatalf("order %d", rom.Order())
	}
	if rom.Method() != "assoc" {
		t.Fatalf("method %q", rom.Method())
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

// TestROMProbesConcurrent: a fresh ROM's error probes and TransferH1
// may run on many goroutines at once. They share one lazily built
// realization pair, and every result equals a serial call's on a second
// ROM from the same Reduce.
func TestROMProbesConcurrent(t *testing.T) {
	w := avtmor.NTLCurrent(20)
	reduce := func() *avtmor.ROM {
		rom, err := avtmor.Reduce(context.Background(), w.System, avtmor.WithOrders(4, 2, 2), avtmor.WithExpansion(w.S0))
		if err != nil {
			t.Fatal(err)
		}
		return rom
	}
	type probes struct {
		h1, h2, h3 float64
		tf         []complex128
	}
	run := func(rom *avtmor.ROM) (p probes, err error) {
		const s = 1i
		if p.h1, err = rom.H1Error(0, s); err != nil {
			return p, err
		}
		if p.h2, err = rom.H2Error(0, 0, s); err != nil {
			return p, err
		}
		if p.h3, err = rom.H3Error(s); err != nil {
			return p, err
		}
		p.tf, err = rom.TransferH1(0, s)
		return p, err
	}
	want, err := run(reduce())
	if err != nil {
		t.Fatal(err)
	}
	rom := reduce()
	const workers = 8
	got := make([]probes, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g], errs[g] = run(rom)
		}(g)
	}
	wg.Wait()
	for g, p := range got {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if p.h1 != want.h1 || p.h2 != want.h2 || p.h3 != want.h3 || !slices.Equal(p.tf, want.tf) {
			t.Errorf("goroutine %d: probes %v, %v, %v, %v; serial %v, %v, %v, %v", g, p.h1, p.h2, p.h3, p.tf, want.h1, want.h2, want.h3, want.tf)
		}
	}
}

// TestSection3ProbesPinned pins the error probes on the §3 ROMs at the
// paper's orders to the values of the general complex ⊕²/⊕³ recurrence
// they replaced. An error figure is a difference of nearly equal
// outputs, so a 1e-13 change of an output moves it by about 1e-8
// relative; 1e-6 leaves room for that and catches a wrong solve.
func TestSection3ProbesPinned(t *testing.T) {
	const tol = 1e-6
	for _, tc := range []struct {
		name         string
		w            *avtmor.Workload
		k1, k2, k3   int
		h2, h3, h3lo float64 // H2Error(0,0,1i), H3Error(1i), H3Error(0.5i); 0: not probed
	}{
		{"s31", avtmor.NTLVoltage(50), 7, 4, 2, 1.3285170985781098e-4, 1.4179998352591182e-4, 9.5894160376674804e-5},
		{"s32", avtmor.NTLCurrent(70), 6, 3, 2, 2.3749333818387516e-5, 3.2198984509883034e-5, 2.752471450499779e-5},
		{"s33", avtmor.RFReceiver(), 4, 2, 0, 0.41659506400076735, 0, 0},
		{"s34", avtmor.Varistor(), 7, 0, 2, 0, 6.9276922374312527e-3, 3.9941545711434509e-3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rom, err := avtmor.Reduce(context.Background(), tc.w.System,
				avtmor.WithOrders(tc.k1, tc.k2, tc.k3), avtmor.WithExpansion(tc.w.S0))
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []struct {
				what  string
				want  float64
				probe func() (float64, error)
			}{
				{"H2Error(0,0,1i)", tc.h2, func() (float64, error) { return rom.H2Error(0, 0, 1i) }},
				{"H3Error(1i)", tc.h3, func() (float64, error) { return rom.H3Error(1i) }},
				{"H3Error(0.5i)", tc.h3lo, func() (float64, error) { return rom.H3Error(0.5i) }},
			} {
				if p.want == 0 {
					continue
				}
				got, err := p.probe()
				if err != nil {
					t.Fatalf("%s: %v", p.what, err)
				}
				if rel := math.Abs(got-p.want) / p.want; rel > tol {
					t.Errorf("%s = %.17g, pinned %.17g (%.2g relative)", p.what, got, p.want, rel)
				} else {
					t.Logf("%s = %.17g (%.2g relative)", p.what, got, rel)
				}
			}
		})
	}
}
