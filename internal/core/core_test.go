package core

import (
	"context"
	"math/rand"
	"testing"

	"avtmor/internal/mat"
	"avtmor/internal/qldae"
	"avtmor/internal/qr"
	"avtmor/internal/sparse"
)

// testSystem builds a small random stable SISO QLDAE.
func testSystem(rng *rand.Rand, n int, withD1 bool) *qldae.System {
	g2b := sparse.NewBuilder(n, n*n)
	for i := 0; i < 3*n; i++ {
		g2b.Add(rng.Intn(n), rng.Intn(n*n), 0.3*(2*rng.Float64()-1))
	}
	s := &qldae.System{
		N:  n,
		G1: mat.RandStable(rng, n, 0.4),
		G2: g2b.Build(),
		B:  mat.RandDense(rng, n, 1),
		L:  mat.RandDense(rng, 1, n),
	}
	if withD1 {
		s.D1 = []*mat.Dense{mat.RandDense(rng, n, n).Scale(0.2)}
	}
	return s
}

func cubicSystem(rng *rand.Rand, n int) *qldae.System {
	g3b := sparse.NewBuilder(n, n*n*n)
	for i := 0; i < 3*n; i++ {
		g3b.Add(rng.Intn(n), rng.Intn(n*n*n), 0.2*(2*rng.Float64()-1))
	}
	return &qldae.System{
		N:  n,
		G1: mat.RandStable(rng, n, 0.4),
		G3: g3b.Build(),
		B:  mat.RandDense(rng, n, 1),
		L:  mat.RandDense(rng, 1, n),
	}
}

func TestReduceBasicShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sys := testSystem(rng, 12, true)
	rom, err := ReduceContext(context.Background(), sys, Options{K1: 3, K2: 2, K3: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rom.Sys.N > 6 {
		t.Fatalf("associated-transform ROM order %d exceeds k1+k2+k3", rom.Sys.N)
	}
	if rom.Sys.N < 3 {
		t.Fatalf("ROM order %d suspiciously small", rom.Sys.N)
	}
	if qr.OrthoError(rom.V) > 1e-10 {
		t.Fatal("projection basis not orthonormal")
	}
	if err := rom.Sys.Validate(); err != nil {
		t.Fatal(err)
	}
	if rom.Method != "assoc" || rom.Stats.Order != rom.Sys.N {
		t.Fatalf("bookkeeping wrong: %+v", rom.Stats)
	}
}

// checkTransferMatch verifies the accuracy structure of the ROM near the
// expansion point. H1 moments are matched exactly (pure linear Krylov), so
// the H1 error must be at rounding level. The associated H2/H3 transfer
// functions are matched through the Galerkin projection of the quadratic
// term, whose n²-space chain is only reproduced through V⊗V — a small,
// k-dependent gap remains (the paper's own transient errors, Figs. 2–4,
// sit at the same ~1e-2..1e-3 level).
func checkTransferMatch(t *testing.T, rom *ROM, withH3 bool) {
	t.Helper()
	near := complex(0.02, 0.015)
	if e, err := rom.H1Error(0, near); err != nil || e > 1e-6 {
		t.Fatalf("H1 near-match error %g (%v)", e, err)
	}
	if e, err := rom.H2Error(0, 0, near); err != nil || e > 2e-2 {
		t.Fatalf("H2 near-match error %g (%v)", e, err)
	}
	if withH3 {
		if e, err := rom.H3Error(near); err != nil || e > 5e-2 {
			t.Fatalf("H3 near-match error %g (%v)", e, err)
		}
	}
	far := complex(3.0, 2.0)
	if e, err := rom.H1Error(0, far); err != nil {
		t.Fatal(err)
	} else if e > 1.5 {
		t.Fatalf("H1 far error %g out of control", e)
	}
}

func TestReduceMatchesMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sys := testSystem(rng, 14, true)
	rom, err := ReduceContext(context.Background(), sys, Options{K1: 5, K2: 3, K3: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkTransferMatch(t, rom, true)
}

func TestReduceNoD1(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sys := testSystem(rng, 12, false)
	rom, err := ReduceContext(context.Background(), sys, Options{K1: 4, K2: 2, K3: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkTransferMatch(t, rom, true)
}

func TestReduceNORMMatchesMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	sys := testSystem(rng, 14, true)
	rom, err := ReduceNORMContext(context.Background(), sys, Options{K1: 5, K2: 3, K3: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rom.Method != "norm" {
		t.Fatal("method label wrong")
	}
	checkTransferMatch(t, rom, true)
}

func TestSubspaceGrowthContrast(t *testing.T) {
	// The headline claim: at equal moment counts the proposed ROM is much
	// smaller — O(k1+k2+k3) vs O(k1+k2³+k3⁴).
	rng := rand.New(rand.NewSource(5))
	sys := testSystem(rng, 30, true)
	opt := Options{K1: 4, K2: 3, K3: 2}
	a, err := ReduceContext(context.Background(), sys, opt)
	if err != nil {
		t.Fatal(err)
	}
	nm, err := ReduceNORMContext(context.Background(), sys, opt)
	if err != nil {
		t.Fatal(err)
	}
	if a.Sys.N > opt.K1+opt.K2+opt.K3 {
		t.Fatalf("proposed ROM order %d > k1+k2+k3", a.Sys.N)
	}
	if nm.Sys.N < 2*a.Sys.N {
		t.Fatalf("NORM order %d not substantially larger than proposed %d", nm.Sys.N, a.Sys.N)
	}
	if nm.Stats.Candidates <= a.Stats.Candidates {
		t.Fatal("NORM candidate count should exceed proposed")
	}
}

func TestReduceCubic(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	sys := cubicSystem(rng, 10)
	rom, err := ReduceContext(context.Background(), sys, Options{K1: 4, K3: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rom.Sys.N > 6 {
		t.Fatalf("cubic ROM order %d", rom.Sys.N)
	}
	near := complex(0.02, 0.01)
	if e, err := rom.H1Error(0, near); err != nil || e > 1e-6 {
		t.Fatalf("cubic H1 near error %g (%v)", e, err)
	}
	if e, err := rom.H3Error(near); err != nil || e > 5e-2 {
		t.Fatalf("cubic H3 near error %g (%v)", e, err)
	}
}

func TestReduceNORMCubic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sys := cubicSystem(rng, 10)
	rom, err := ReduceNORMContext(context.Background(), sys, Options{K1: 4, K3: 2})
	if err != nil {
		t.Fatal(err)
	}
	near := complex(0.02, 0.01)
	if e, err := rom.H3Error(near); err != nil || e > 5e-2 {
		t.Fatalf("NORM cubic H3 near error %g (%v)", e, err)
	}
}

func TestReduceMISO(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 16
	sys := testSystem(rng, n, false)
	sys.B = mat.RandDense(rng, n, 2)
	rom, err := ReduceContext(context.Background(), sys, Options{K1: 3, K2: 2})
	if err != nil {
		t.Fatal(err)
	}
	near := complex(0.02, 0.01)
	for i := 0; i < 2; i++ {
		if e, err := rom.H1Error(i, near); err != nil || e > 1e-6 {
			t.Fatalf("MISO H1 input %d error %g (%v)", i, e, err)
		}
		for j := i; j < 2; j++ {
			if e, err := rom.H2Error(i, j, near); err != nil || e > 2e-2 {
				t.Fatalf("MISO H2 pair (%d,%d) error %g (%v)", i, j, e, err)
			}
		}
	}
}

func TestReduceRejectsEmptyOptions(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sys := testSystem(rng, 6, false)
	if _, err := ReduceContext(context.Background(), sys, Options{}); err == nil {
		t.Fatal("expected error for zero moment counts")
	}
	if _, err := ReduceNORMContext(context.Background(), sys, Options{}); err == nil {
		t.Fatal("expected error for zero moment counts")
	}
}

func TestReduceNonzeroExpansion(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	sys := testSystem(rng, 12, true)
	s0 := -0.4
	rom, err := ReduceContext(context.Background(), sys, Options{K1: 4, K2: 2, K3: 1, S0: s0})
	if err != nil {
		t.Fatal(err)
	}
	near := complex(s0+0.02, 0.01)
	if e, err := rom.H1Error(0, near); err != nil || e > 1e-6 {
		t.Fatalf("H1 near s0 error %g (%v)", e, err)
	}
	if e, err := rom.H2Error(0, 0, near); err != nil || e > 2e-2 {
		t.Fatalf("H2 near s0 error %g (%v)", e, err)
	}
}
