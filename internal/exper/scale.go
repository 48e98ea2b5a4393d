package exper

import (
	"context"
	"fmt"
	"time"

	"avtmor"
	"avtmor/internal/mat"
)

// Scale exercises the sparse-direct spine beyond the paper's circuit
// sizes: a ≥1000-state RLC transmission line reduced through the dense
// and the sparse LU backends (same ROM, very different wall-clock), and
// a CSR-only line in the regime the dense path cannot represent at all.
// This is the experiment behind the BenchmarkSolver* entries and
// BENCH_solver.json.
func Scale() (*Report, error) {
	rep := &Report{ID: "scale", Title: "Scale — sparse-direct solver spine on RLC transmission lines"}

	// Part 1: dense vs sparse on the same ≥1000-state line.
	cmp, err := CompareBackends(512, 8)
	if err != nil {
		return nil, err
	}
	speedup := float64(cmp.DenseTime) / float64(cmp.SparseTime)
	rep.addLine("n = %d line: Reduce dense %v, sparse %v (%.1f× speedup), transfer mismatch %.2g",
		cmp.N, cmp.DenseTime.Round(time.Millisecond), cmp.SparseTime.Round(time.Millisecond), speedup, cmp.Mismatch)
	rep.metric("n1023_dense_ms", float64(cmp.DenseTime.Milliseconds()))
	rep.metric("n1023_sparse_ms", float64(cmp.SparseTime.Milliseconds()))
	rep.metric("n1023_speedup", speedup)
	rep.metric("n1023_mismatch", cmp.Mismatch)

	// Part 2: CSR-only regime (no dense G1 exists), reduction plus a
	// sparse-Newton full-order reference on a short window.
	ctx := context.Background()
	big := avtmor.RLCLine(2000) // n = 3999, CSR-only
	start := time.Now()
	romBig, err := avtmor.Reduce(ctx, big.System,
		avtmor.WithOrders(10, 0, 0), avtmor.WithSolver(avtmor.SolverSparse), avtmor.WithParallel())
	if err != nil {
		return nil, fmt.Errorf("scale: CSR-only Reduce: %w", err)
	}
	tBig := time.Since(start)
	const (
		tEnd  = 10.0
		steps = 400
	)
	start = time.Now()
	full, err := big.System.Simulate(ctx, big.U, tEnd, avtmor.WithTrapezoidal(steps))
	if err != nil {
		return nil, fmt.Errorf("scale: CSR-only transient: %w", err)
	}
	tFull := time.Since(start)
	red, err := romBig.Simulate(ctx, big.U, tEnd, avtmor.WithTrapezoidal(steps))
	if err != nil {
		return nil, fmt.Errorf("scale: ROM transient: %w", err)
	}
	relErr := avtmor.MaxRelErr(full, red, 0)
	rep.addLine("n = %d CSR-only line: Reduce %v (q = %d), full sparse-Newton transient %v, ROM max rel err %.3g",
		big.System.States(), tBig.Round(time.Millisecond), romBig.Order(), tFull.Round(time.Millisecond), relErr)
	rep.addLine("CSR-only Reduce %s", rep.solverMetrics("n3999", romBig.Stats()))
	rep.metric("n3999_reduce_ms", float64(tBig.Milliseconds()))
	rep.metric("n3999_order", float64(romBig.Order()))
	rep.metric("n3999_maxrelerr", relErr)
	return rep, nil
}

// BackendComparison is the outcome of one dense-vs-sparse Reduce of the
// same workload: the single source of truth the scale experiment
// reports and the acceptance test asserts on.
type BackendComparison struct {
	N                     int
	Order                 int
	DenseTime, SparseTime time.Duration
	// Mismatch is the worst relative deviation of the two reduced
	// transfer functions over the standard frequency set.
	Mismatch float64
}

// scaleFreqs is the frequency set the backend-agreement measurement
// samples (clustered around the s0 = 0 expansion point).
var scaleFreqs = []complex128{0.02, 0.05i, 0.1 + 0.2i, 0.5i}

// CompareBackends reduces an RLC line of the given size through the
// dense and the sparse LU backends and measures times plus transfer
// agreement. K1 = 8 keeps the tail of the Krylov chain well above
// roundoff, so the two ROMs agree to ~1e-11 in transfer.
func CompareBackends(sections, k1 int) (*BackendComparison, error) {
	ctx := context.Background()
	w := avtmor.RLCLine(sections)
	start := time.Now()
	romD, err := avtmor.Reduce(ctx, w.System,
		avtmor.WithOrders(k1, 0, 0), avtmor.WithSolver(avtmor.SolverDense))
	if err != nil {
		return nil, fmt.Errorf("scale: dense Reduce: %w", err)
	}
	tDense := time.Since(start)
	start = time.Now()
	romS, err := avtmor.Reduce(ctx, w.System,
		avtmor.WithOrders(k1, 0, 0), avtmor.WithSolver(avtmor.SolverSparse))
	if err != nil {
		return nil, fmt.Errorf("scale: sparse Reduce: %w", err)
	}
	tSparse := time.Since(start)
	if romD.Order() != romS.Order() {
		return nil, fmt.Errorf("scale: backend changed the ROM order: dense %d vs sparse %d", romD.Order(), romS.Order())
	}
	worst, err := ROMTransferMismatch(romD, romS, scaleFreqs)
	if err != nil {
		return nil, err
	}
	return &BackendComparison{
		N: w.System.States(), Order: romD.Order(),
		DenseTime: tDense, SparseTime: tSparse, Mismatch: worst,
	}, nil
}

// ROMTransferMismatch evaluates the reduced H1 transfer of two ROMs at
// the given frequencies and returns the worst relative deviation — the
// backend-agreement check of the scale experiment and tests (both ROMs
// are small, so the dense complex evaluation is cheap regardless of the
// full-order size).
func ROMTransferMismatch(a, b *avtmor.ROM, freqs []complex128) (float64, error) {
	worst := 0.0
	for _, s := range freqs {
		ya, err := a.TransferH1(0, s)
		if err != nil {
			return 0, fmt.Errorf("exper: ROM transfer at s=%v: %w", s, err)
		}
		yb, err := b.TransferH1(0, s)
		if err != nil {
			return 0, fmt.Errorf("exper: ROM transfer at s=%v: %w", s, err)
		}
		den := mat.CNorm2(ya)
		if den == 0 {
			den = 1
		}
		diff := make([]complex128, len(ya))
		for i := range ya {
			diff[i] = ya[i] - yb[i]
		}
		if d := mat.CNorm2(diff) / den; d > worst {
			worst = d
		}
	}
	return worst, nil
}
