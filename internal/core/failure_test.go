package core

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"avtmor/internal/circuits"
	"avtmor/internal/mat"
	"avtmor/internal/qldae"
	"avtmor/internal/sparse"
)

// Failure-injection coverage: the reduction must fail loudly and
// informatively on the singular/degenerate configurations a user can
// realistically hit.

func TestReduceSingularG1AtDC(t *testing.T) {
	// The exactly quadratic-linearized line has a singular G1; expanding
	// at DC must produce an actionable error, not garbage.
	w := circuits.NTLVoltage(6)
	_, err := ReduceContext(context.Background(), w.Sys, Options{K1: 2, K2: 1, S0: 0})
	if err == nil {
		t.Fatal("expected singular-shift error at s0 = 0")
	}
	if !strings.Contains(err.Error(), "singular") && !strings.Contains(err.Error(), "Sylvester") {
		t.Fatalf("unhelpful error: %v", err)
	}
	// The documented workaround (non-DC expansion) must work.
	if _, err := ReduceContext(context.Background(), w.Sys, Options{K1: 2, K2: 1, S0: w.S0}); err != nil {
		t.Fatalf("non-DC expansion should succeed: %v", err)
	}
}

func TestReduceNORMSingularG1AtDC(t *testing.T) {
	w := circuits.NTLVoltage(6)
	if _, err := ReduceNORMContext(context.Background(), w.Sys, Options{K1: 2, K2: 1, S0: 0}); err == nil {
		t.Fatal("expected singular-shift error")
	}
	if _, err := ReduceNORMContext(context.Background(), w.Sys, Options{K1: 2, K2: 1, S0: w.S0}); err != nil {
		t.Fatalf("non-DC NORM should succeed: %v", err)
	}
}

func TestReduceInvalidSystem(t *testing.T) {
	bad := &qldae.System{N: 4, G1: mat.NewDense(3, 3)}
	if _, err := ReduceContext(context.Background(), bad, Options{K1: 1}); err == nil {
		t.Fatal("invalid system must be rejected")
	}
	if _, err := ReduceNORMContext(context.Background(), bad, Options{K1: 1}); err == nil {
		t.Fatal("invalid system must be rejected by NORM too")
	}
}

func TestReduceResonantShiftCollision(t *testing.T) {
	// Pick s0 exactly at an eigenvalue of G1: the H1 chain's shifted LU
	// is singular and must be reported.
	sys := &qldae.System{
		N:  2,
		G1: mat.Diag([]float64{-1, -2}),
		B:  mat.FromRows([][]float64{{1}, {1}}),
		L:  mat.FromRows([][]float64{{1, 0}}),
	}
	g2b := sparse.NewBuilder(2, 4)
	g2b.Add(0, 0, 0.1)
	sys.G2 = g2b.Build()
	if _, err := ReduceContext(context.Background(), sys, Options{K1: 2, K2: 1, S0: -1}); err == nil {
		t.Fatal("expected failure for s0 at an eigenvalue")
	}
}

func TestH3ErrorRejectsMIMO(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	sys := testSystem(rng, 8, false)
	sys.B = mat.RandDense(rng, 8, 2)
	rom, err := ReduceContext(context.Background(), sys, Options{K1: 2, K2: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rom.H3Error(0.1); err == nil {
		t.Fatal("H3Error on a MIMO system must error")
	}
}

func TestAllCandidatesDeflated(t *testing.T) {
	// A zero input column deflates everything: Reduce must report it
	// instead of returning an empty projection.
	sys := &qldae.System{
		N:  3,
		G1: mat.Diag([]float64{-1, -2, -3}),
		B:  mat.NewDense(3, 1), // zero input map
		L:  mat.FromRows([][]float64{{1, 0, 0}}),
	}
	if _, err := ReduceContext(context.Background(), sys, Options{K1: 2}); err == nil {
		t.Fatal("expected 'all candidates deflated' error")
	}
}
