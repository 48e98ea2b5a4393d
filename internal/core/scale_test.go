// External test package so the backend-agreement measurement can be
// shared with the scale experiment (exper imports core, so an internal
// test would force a duplicated helper).
package core_test

import (
	"context"
	"testing"

	"avtmor/internal/circuits"
	"avtmor/internal/core"
	"avtmor/internal/exper"
	"avtmor/internal/ode"
	"avtmor/internal/solver"
)

// TestScaleSparseMatchesDense1000 is the solver-spine acceptance check:
// on a ≥1000-state RLC transmission line, Reduce through the sparse LU
// must (a) produce a ROM whose transfer function matches the dense-LU
// ROM to ≤1e-10 relative, and (b) beat the dense path by a wide margin
// in wall-clock (the factor step drops from O(n³) to O(n) on the
// near-banded line).
func TestScaleSparseMatchesDense1000(t *testing.T) {
	if testing.Short() {
		t.Skip("dense 1023-state factorization path; skipped in -short")
	}
	cmp, err := exper.CompareBackends(512, 8) // n = 1023
	if err != nil {
		t.Fatal(err)
	}
	if cmp.N < 1000 {
		t.Fatalf("workload too small for the scale check: n = %d", cmp.N)
	}
	if cmp.Mismatch > 1e-10 {
		t.Errorf("sparse vs dense transfer mismatch %.3g > 1e-10", cmp.Mismatch)
	}
	// Wall-clock is reported, not tightly asserted: the ≥10× headline
	// ratio is recorded by BenchmarkSolver*/BENCH_solver.json, and CI
	// runners are too noisy for ratio thresholds. The one flake-proof
	// signal — the sparse path losing to dense outright — still fails.
	if cmp.DenseTime < cmp.SparseTime {
		t.Errorf("sparse path slower than dense: dense %v vs sparse %v", cmp.DenseTime, cmp.SparseTime)
	}
	t.Logf("n=%d: dense %v, sparse %v (%.1f×), mismatch %.3g",
		cmp.N, cmp.DenseTime, cmp.SparseTime, float64(cmp.DenseTime)/float64(cmp.SparseTime), cmp.Mismatch)
}

// TestScaleCSROnlyReduceAndSimulate covers the regime the dense path
// cannot represent: a CSR-only line (no dense G1 exists) is reduced
// through the sparse spine and the ROM transient tracks the full-order
// sparse-Newton reference.
func TestScaleCSROnlyReduceAndSimulate(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-thousand-state transient; skipped in -short")
	}
	w := circuits.RLCLine(2000) // n = 3999
	if w.Sys.G1 != nil {
		t.Fatal("expected a CSR-only system beyond the dense mirror limit")
	}
	rom, err := core.ReduceContext(context.Background(), w.Sys, core.Options{K1: 8, Parallel: true})
	if err != nil {
		t.Fatalf("CSR-only Reduce: %v", err)
	}
	x0 := make([]float64, w.Sys.N)
	full, err := ode.TrapezoidalSolverCtx(context.Background(), w.Sys, x0, w.U, 10, 400, solver.Sparse{})
	if err != nil {
		t.Fatalf("full sparse transient: %v", err)
	}
	red, err := ode.TrapezoidalSolverCtx(context.Background(), rom.Sys, make([]float64, rom.Sys.N), w.U, 10, 400, nil)
	if err != nil {
		t.Fatalf("ROM transient: %v", err)
	}
	if e := ode.MaxRelErr(full, red, 0); e > 1e-6 {
		t.Fatalf("ROM transient error %.3g too large", e)
	}
}

// TestParallelReduceMatchesSerial checks the Options.Parallel fan-out is
// a pure wall-clock change: identical candidate ordering, identical ROM.
func TestParallelReduceMatchesSerial(t *testing.T) {
	w := circuits.NTLCurrent(40)
	opt := core.Options{K1: 4, K2: 2, K3: 2, S0: w.S0, ExtraPoints: []float64{0.4, 0.9}}
	serial, err := core.ReduceContext(context.Background(), w.Sys, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Parallel = true
	par, err := core.ReduceContext(context.Background(), w.Sys, opt)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Sys.N != par.Sys.N || serial.Stats.Candidates != par.Stats.Candidates {
		t.Fatalf("parallel changed the reduction: order %d/%d candidates %d/%d",
			serial.Sys.N, par.Sys.N, serial.Stats.Candidates, par.Stats.Candidates)
	}
	if !serial.V.Equalish(par.V, 1e-13) {
		t.Fatal("parallel fan-out produced a different projection basis")
	}
}
