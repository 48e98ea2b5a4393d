package avtmor_test

// One benchmark per table and figure of the paper's evaluation (§3), plus
// ablations for the §4 discussion points and micro-benchmarks of the
// structured solver stack. Regenerate everything with
//
//	go test -bench=. -benchmem ./...
//
// Absolute times are machine-dependent; the quantities to compare are the
// ratios within each experiment (proposed vs NORM vs full model), which is
// exactly how Table 1 is laid out in the paper.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"avtmor"
	"avtmor/internal/circuits"
	"avtmor/internal/core"
	"avtmor/internal/exper"
	"avtmor/internal/kron"
	"avtmor/internal/mat"
	"avtmor/internal/ode"
	"avtmor/internal/qldae"
	"avtmor/internal/solver"
)

// --- Figure-level benchmarks: one full regeneration per iteration ---

func BenchmarkFig2NTLVoltage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exper.Fig2(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3NTLCurrent(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exper.Fig3(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4RFReceiver(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exper.Fig4(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5Varistor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exper.Fig5(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5VaristorReduce is the reduction half of Fig. 5 alone:
// the §3.4 varistor at orders (7, 0, 2), whose build is the cubic H3
// chain (BenchmarkFig5Varistor also runs the full stiff transient).
func BenchmarkFig5VaristorReduce(b *testing.B) {
	w := circuits.Varistor()
	opt := core.Options{K1: 7, K3: 2, S0: w.S0}
	for i := 0; i < b.N; i++ {
		if _, err := core.ReduceContext(context.Background(), w.Sys, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 1: subspace construction ("Arnoldi") and ODE-solve rows ---

func sect32() (*circuits.Workload, core.Options) {
	w := circuits.NTLCurrent(70)
	return w, core.Options{K1: 6, K2: 3, K3: 2, S0: w.S0}
}

func sect33() (*circuits.Workload, core.Options) {
	w := circuits.RFReceiver()
	return w, core.Options{K1: 4, K2: 2, S0: w.S0}
}

func benchArnoldi(b *testing.B, w *circuits.Workload, opt core.Options, norm bool) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		var err error
		if norm {
			_, err = core.ReduceNORMContext(context.Background(), w.Sys, opt)
		} else {
			_, err = core.ReduceContext(context.Background(), w.Sys, opt)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func benchODESolve(b *testing.B, w *circuits.Workload, sys *qldae.System) {
	b.Helper()
	x0 := make([]float64, sys.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if w.Stiff {
			_, err = ode.TrapezoidalSolverCtx(context.Background(), sys, x0, w.U, w.TEnd, w.Steps, nil)
		} else {
			res, _ := ode.RK4Ctx(context.Background(), sys, x0, w.U, w.TEnd, w.Steps)
			_ = res
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1Sect32ArnoldiProposed(b *testing.B) {
	w, opt := sect32()
	benchArnoldi(b, w, opt, false)
}

func BenchmarkTable1Sect32ArnoldiNORM(b *testing.B) {
	w, opt := sect32()
	benchArnoldi(b, w, opt, true)
}

func BenchmarkTable1Sect32ODESolveOriginal(b *testing.B) {
	w, _ := sect32()
	benchODESolve(b, w, w.Sys)
}

func BenchmarkTable1Sect32ODESolveProposed(b *testing.B) {
	w, opt := sect32()
	rom, err := core.ReduceContext(context.Background(), w.Sys, opt)
	if err != nil {
		b.Fatal(err)
	}
	benchODESolve(b, w, rom.Sys)
}

func BenchmarkTable1Sect32ODESolveNORM(b *testing.B) {
	w, opt := sect32()
	rom, err := core.ReduceNORMContext(context.Background(), w.Sys, opt)
	if err != nil {
		b.Fatal(err)
	}
	benchODESolve(b, w, rom.Sys)
}

func BenchmarkTable1Sect33ArnoldiProposed(b *testing.B) {
	w, opt := sect33()
	benchArnoldi(b, w, opt, false)
}

func BenchmarkTable1Sect33ArnoldiNORM(b *testing.B) {
	w, opt := sect33()
	benchArnoldi(b, w, opt, true)
}

func BenchmarkTable1Sect33ODESolveOriginal(b *testing.B) {
	w, _ := sect33()
	benchODESolve(b, w, w.Sys)
}

func BenchmarkTable1Sect33ODESolveProposed(b *testing.B) {
	w, opt := sect33()
	rom, err := core.ReduceContext(context.Background(), w.Sys, opt)
	if err != nil {
		b.Fatal(err)
	}
	benchODESolve(b, w, rom.Sys)
}

func BenchmarkTable1Sect33ODESolveNORM(b *testing.B) {
	w, opt := sect33()
	rom, err := core.ReduceNORMContext(context.Background(), w.Sys, opt)
	if err != nil {
		b.Fatal(err)
	}
	benchODESolve(b, w, rom.Sys)
}

// BenchmarkFig2NTLVoltageODESolveOriginal is the full-order §3.1
// transient of Fig. 2: the voltage-driven line NTLVoltage(50) under
// RK4, whose every stage evaluates its D1 block.
func BenchmarkFig2NTLVoltageODESolveOriginal(b *testing.B) {
	w := circuits.NTLVoltage(50)
	benchODESolve(b, w, w.Sys)
}

// BenchmarkFig5VaristorODESolveOriginal is the full-order §3.4
// transient of Fig. 5: the cubic varistor under the trapezoidal rule,
// whose dense Newton LU is replayed at every step.
func BenchmarkFig5VaristorODESolveOriginal(b *testing.B) {
	w := circuits.Varistor()
	benchODESolve(b, w, w.Sys)
}

// BenchmarkTrapezoidalRLCLine is the full-order stiff transient of the
// 1999-state RLC line (RLCLine(1000)) over its workload's 4000
// trapezoidal steps: a linear system on the sparse Newton route, whose
// one Newton matrix is factored once per run.
func BenchmarkTrapezoidalRLCLine(b *testing.B) {
	w := circuits.RLCLine(1000)
	benchODESolve(b, w, w.Sys)
}

// --- §4 ablation: subspace growth vs moment count ---

func BenchmarkAblationSubspaceGrowth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exper.Ablation(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Structured solver micro-benchmarks (the §2.3 machinery) ---

func BenchmarkSolverKronSum2N70(b *testing.B) {
	w := circuits.NTLCurrent(70)
	ss, err := kron.NewSumSolver2(w.Sys.G1)
	if err != nil {
		b.Fatal(err)
	}
	v := mat.RandVec(rand.New(rand.NewSource(1)), 70*70)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ss.Solve(0, v); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Solver spine: dense vs sparse LU, serial vs parallel Reduce ---
//
// The RLC transmission line (≈2.5 nnz/row) is the canonical large-
// circuit pattern; nominal sizes 100/500/2000 map to 99/499/1999 states.
// First-run baselines live in BENCH_solver.json.

func rlcSized(nominal int) *circuits.Workload {
	return circuits.RLCLine((nominal + 1) / 2)
}

func benchFactorSolve(b *testing.B, nominal int, ls solver.LinearSolver) {
	b.Helper()
	w := rlcSized(nominal)
	op := solver.Operand(w.Sys.G1, w.Sys.G1S)
	rhs := mat.RandVec(rand.New(rand.NewSource(1)), w.Sys.N)
	x := make([]float64, w.Sys.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := ls.FactorCtx(context.Background(), op)
		if err != nil {
			b.Fatal(err)
		}
		f.Solve(x, rhs)
	}
}

func BenchmarkSolverFactorSolveDenseN100(b *testing.B)  { benchFactorSolve(b, 100, solver.Dense{}) }
func BenchmarkSolverFactorSolveSparseN100(b *testing.B) { benchFactorSolve(b, 100, solver.Sparse{}) }
func BenchmarkSolverFactorSolveDenseN500(b *testing.B)  { benchFactorSolve(b, 500, solver.Dense{}) }
func BenchmarkSolverFactorSolveSparseN500(b *testing.B) { benchFactorSolve(b, 500, solver.Sparse{}) }
func BenchmarkSolverFactorSolveDenseN2000(b *testing.B) { benchFactorSolve(b, 2000, solver.Dense{}) }
func BenchmarkSolverFactorSolveSparseN2000(b *testing.B) {
	benchFactorSolve(b, 2000, solver.Sparse{})
}

func benchReduceMultipoint(b *testing.B, nominal int, parallel bool) {
	b.Helper()
	w := rlcSized(nominal)
	opt := core.Options{K1: 6, ExtraPoints: []float64{0.4, 0.9}, Parallel: parallel}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ReduceContext(context.Background(), w.Sys, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReduceSerialN100(b *testing.B)    { benchReduceMultipoint(b, 100, false) }
func BenchmarkReduceParallelN100(b *testing.B)  { benchReduceMultipoint(b, 100, true) }
func BenchmarkReduceSerialN500(b *testing.B)    { benchReduceMultipoint(b, 500, false) }
func BenchmarkReduceParallelN500(b *testing.B)  { benchReduceMultipoint(b, 500, true) }
func BenchmarkReduceSerialN2000(b *testing.B)   { benchReduceMultipoint(b, 2000, false) }
func BenchmarkReduceParallelN2000(b *testing.B) { benchReduceMultipoint(b, 2000, true) }

// --- Reducer service: cold reduction vs ROM-cache hit ---
//
// The pair quantifies what the request-level cache buys: the cold
// path pays the full multipoint Reduce of a 499-state RLC line, the
// cached path is one map lookup behind a mutex. Baselines live in
// BENCH_solver.json next to the solver-spine entries.

func reducerBenchOpts() (*avtmor.Workload, []avtmor.Option) {
	w := avtmor.RLCLine(250) // 499 states, ~2.5 nnz/row
	return w, []avtmor.Option{avtmor.WithOrders(6, 0, 0), avtmor.WithExpansion(0, 0.4, 0.9)}
}

func BenchmarkReducerColdN500(b *testing.B) {
	w, opts := reducerBenchOpts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd := avtmor.NewReducer() // fresh service: every iteration reduces
		if _, err := rd.Reduce(context.Background(), w.System, opts...); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReducerCachedN500(b *testing.B) {
	w, opts := reducerBenchOpts()
	rd := avtmor.NewReducer()
	if _, err := rd.Reduce(context.Background(), w.System, opts...); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rd.Reduce(context.Background(), w.System, opts...); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Block multi-RHS solve path (SolveBatch) ---
//
// The batch benchmarks factor a 1023-state RLC line once and then push
// k right-hand sides through one SolveBatch per iteration; k=1 is the
// single-RHS baseline shape. Batching amortizes the triangular-factor
// traversal (dense rows / sparse step metadata) across columns, and the
// pooled workspaces make the steady state allocation-free — compare
// allocs/op against the k-looped Solve path recorded pre-refactor in
// BENCH_solver.json.

func benchSolveBatch(b *testing.B, ls solver.LinearSolver) {
	b.Helper()
	w := rlcSized(1024) // 1023 states
	f, err := ls.FactorCtx(context.Background(), solver.Operand(w.Sys.G1, w.Sys.G1S))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for _, k := range []int{1, 4, 16} {
		rhs := make([][]float64, k)
		cols := make([][]float64, k)
		for c := range rhs {
			rhs[c] = mat.RandVec(rng, w.Sys.N)
			cols[c] = make([]float64, w.Sys.N)
		}
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for c := range cols {
					copy(cols[c], rhs[c])
				}
				f.SolveBatch(cols)
			}
		})
	}
}

func BenchmarkSolveBatchDense(b *testing.B)  { benchSolveBatch(b, solver.Dense{}) }
func BenchmarkSolveBatchSparse(b *testing.B) { benchSolveBatch(b, solver.Sparse{}) }

// --- End-to-end blocked reduction at n ≥ 1023 ---
//
// BenchmarkReduceBlocked is a multipoint K1 = 6 reduction of the
// 1023-state RLC line about 0, 0.4 and 0.9: three sparse factorizations
// and their H1 chains, every step one SolveBatch. The line has one
// input, so each batch carries a single column; the benchmark measures
// the sparse reduction spine end to end, not batch width.
// Pre-refactor this workload measured 15.77 ms/op and 35076 allocs/op
// (BENCH_solver.json).
func BenchmarkReduceBlocked(b *testing.B) {
	w := rlcSized(1024) // 1023 states
	opt := core.Options{K1: 6, ExtraPoints: []float64{0.4, 0.9}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ReduceContext(context.Background(), w.Sys, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolverKronSum3N102(b *testing.B) {
	w := circuits.Varistor()
	ss, err := kron.NewSumSolver3(w.Sys.G1)
	if err != nil {
		b.Fatal(err)
	}
	n := w.Sys.N
	v := mat.RandVec(rand.New(rand.NewSource(1)), n*n*n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ss.Solve(w.S0, v); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolverKronSum3SymN102 is one symmetric ⊕³ power on the
// varistor's G1 in Schur coordinates, from (Qᵀb)^{⊗3}: the inner step
// of both H3 chains.
func BenchmarkSolverKronSum3SymN102(b *testing.B) {
	w := circuits.Varistor()
	ss, err := kron.NewSumSolver3(w.Sys.G1)
	if err != nil {
		b.Fatal(err)
	}
	bt := ss.Sum2().ToSchur(w.Sys.B.Col(0), 1)
	start := kron.VecKron(kron.VecKron(bt, bt), bt)
	z := make([]float64, len(start))
	sym := ss.Sym()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(z, start)
		b.StartTimer()
		if err := sym.SolveSchur(ctx, w.S0, z); err != nil {
			b.Fatal(err)
		}
	}
}
