package core

import (
	"context"
	"math/rand"
	"testing"
)

// TestMultipointMatchesBothPoints verifies §4 bullet 3: with expansion
// points {0, 1} the ROM must be accurate near BOTH points, where a
// single-point ROM of the same total moment budget degrades away from its
// expansion point.
func TestMultipointMatchesBothPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	sys := testSystem(rng, 24, true)
	multi, err := ReduceContext(context.Background(), sys, Options{K1: 3, K2: 1, ExtraPoints: []float64{1.0}})
	if err != nil {
		t.Fatal(err)
	}
	single, err := ReduceContext(context.Background(), sys, Options{K1: 6, K2: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Both ROMs spend a comparable moment budget.
	if multi.Sys.N > single.Sys.N+3 {
		t.Fatalf("multipoint order %d vs single %d: budgets not comparable",
			multi.Sys.N, single.Sys.N)
	}
	// Near s = 0 both must be excellent.
	if e, err := multi.H1Error(0, 0.01); err != nil || e > 1e-6 {
		t.Fatalf("multipoint near 0: %g (%v)", e, err)
	}
	// Near s = 1 the multipoint ROM matches to Krylov accuracy.
	e1, err := multi.H1Error(0, 1.01)
	if err != nil {
		t.Fatal(err)
	}
	if e1 > 1e-6 {
		t.Fatalf("multipoint near its second point: %g", e1)
	}
	// H2 coverage at the second point: the associated H2 moments about
	// s0=1 are in the span, so the error there must be small.
	e2, err := multi.H2Error(0, 0, 1.02)
	if err != nil {
		t.Fatal(err)
	}
	if e2 > 5e-2 {
		t.Fatalf("multipoint H2 near second point: %g", e2)
	}
}

// TestMultipointOrdersAdditive checks the candidate accounting: p points
// at (k1, k2) generate p·(k1·m + k2·pairs) candidates.
func TestMultipointOrdersAdditive(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	sys := testSystem(rng, 20, false)
	rom, err := ReduceContext(context.Background(), sys, Options{K1: 2, K2: 1, ExtraPoints: []float64{0.5, 1.5}})
	if err != nil {
		t.Fatal(err)
	}
	want := 3 * (2 + 1) // 3 points × (2 H1 + 1 H2)
	if rom.Stats.Candidates != want {
		t.Fatalf("candidates = %d, want %d", rom.Stats.Candidates, want)
	}
}

// TestMultipointDegenerate confirms a repeated expansion point deflates
// instead of inflating the ROM.
func TestMultipointDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	sys := testSystem(rng, 15, false)
	a, err := ReduceContext(context.Background(), sys, Options{K1: 3, K2: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReduceContext(context.Background(), sys, Options{K1: 3, K2: 1, ExtraPoints: []float64{0}})
	if err != nil {
		t.Fatal(err)
	}
	if b.Sys.N != a.Sys.N {
		t.Fatalf("duplicate point changed order: %d vs %d", b.Sys.N, a.Sys.N)
	}
}
