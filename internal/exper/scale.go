package exper

import (
	"context"
	"fmt"
	"time"

	"avtmor"
	"avtmor/internal/circuits"
	"avtmor/internal/core"
	"avtmor/internal/mat"
	"avtmor/internal/solver"
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
		avtmor.WithOrders(10, 0, 0), avtmor.WithParallel())
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
// roundoff, so the two ROMs agree to ~1e-11 in transfer. It forces
// each backend through core.Options.Solver, the one override of the
// automatic routing.
func CompareBackends(sections, k1 int) (*BackendComparison, error) {
	ctx := context.Background()
	sys := circuits.RLCLine(sections).Sys
	reduce := func(kind solver.Kind) (*core.ROM, time.Duration, error) {
		start := time.Now()
		rom, err := core.ReduceContext(ctx, sys, core.Options{K1: k1, Solver: kind})
		if err != nil {
			return nil, 0, fmt.Errorf("scale: %s Reduce: %w", kind, err)
		}
		return rom, time.Since(start), nil
	}
	romD, tDense, err := reduce(solver.KindDense)
	if err != nil {
		return nil, err
	}
	romS, tSparse, err := reduce(solver.KindSparse)
	if err != nil {
		return nil, err
	}
	if romD.Sys.N != romS.Sys.N {
		return nil, fmt.Errorf("scale: backend changed the ROM order: dense %d vs sparse %d", romD.Sys.N, romS.Sys.N)
	}
	worst := 0.0
	for _, s := range scaleFreqs {
		ya, err := romD.TransferH1(0, s)
		if err != nil {
			return nil, fmt.Errorf("scale: ROM transfer at s=%v: %w", s, err)
		}
		yb, err := romS.TransferH1(0, s)
		if err != nil {
			return nil, fmt.Errorf("scale: ROM transfer at s=%v: %w", s, err)
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
	return &BackendComparison{
		N: sys.N, Order: romD.Sys.N,
		DenseTime: tDense, SparseTime: tSparse, Mismatch: worst,
	}, nil
}
