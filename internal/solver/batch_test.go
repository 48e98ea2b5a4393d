package solver

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"avtmor/internal/mat"
	"avtmor/internal/sparse"
)

// rlcLineCSR rebuilds the paper-workload sparsity pattern (the RLC
// transmission line of the scale experiments: ~2.5 nnz/row, states
// interleaving node voltages and branch currents) without importing
// internal/circuits, which sits above this package.
func rlcLineCSR(sections int) *sparse.CSR {
	m := sections
	n := 2*m - 1
	ib := func(k int) int { return m + k }
	b := sparse.NewBuilder(n, n)
	for k := 0; k < m; k++ {
		diag := -0.02
		if k == m-1 {
			diag -= 1.0
		}
		b.Add(k, k, diag)
		if k > 0 {
			b.Add(k, ib(k-1), 1)
		}
		if k < m-1 {
			b.Add(k, ib(k), -1)
		}
	}
	for k := 0; k < m-1; k++ {
		b.Add(ib(k), k, 1)
		b.Add(ib(k), k+1, -1)
		b.Add(ib(k), ib(k), -0.1)
	}
	return b.Build()
}

// batchCases enumerates the operands the equivalence suite runs over:
// random diagonally-dominant fills plus the banded paper workload.
func batchCases(t *testing.T) map[string]*sparse.CSR {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	return map[string]*sparse.CSR{
		"rand-n37":  randSparse(rng, 37, 0.12),
		"rand-n120": randSparse(rng, 120, 0.04),
		"rlc-n99":   rlcLineCSR(50),
	}
}

// TestSolveBatchBitExact verifies, for every backend, that SolveBatch
// output is bit-identical to a loop of single Solve calls — the
// contract that makes the block solve path invisible in ROM
// fingerprints.
func TestSolveBatchBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	backends := map[string]LinearSolver{"dense": Dense{}, "sparse": Sparse{}, "auto": Auto{}}
	for caseName, a := range batchCases(t) {
		op := Operand(a.Dense(), a)
		n := a.Rows
		for beName, ls := range backends {
			f, err := ls.FactorCtx(context.Background(), op)
			if err != nil {
				t.Fatalf("%s/%s: factor: %v", caseName, beName, err)
			}
			for _, k := range []int{1, 3, 8} {
				cols := make([][]float64, k)
				want := make([][]float64, k)
				for c := 0; c < k; c++ {
					cols[c] = mat.RandVec(rng, n)
					want[c] = make([]float64, n)
					f.Solve(want[c], cols[c])
				}
				f.SolveBatch(cols)
				for c := 0; c < k; c++ {
					for i := 0; i < n; i++ {
						if cols[c][i] != want[c][i] {
							t.Fatalf("%s/%s k=%d: col %d row %d: batch %v, loop %v (must be bit-identical)",
								caseName, beName, k, c, i, cols[c][i], want[c][i])
						}
					}
				}
			}
			// Warm solves work in the factorization's own scratch.
			b, dst := mat.RandVec(rng, n), make([]float64, n)
			cols := [][]float64{mat.RandVec(rng, n), mat.RandVec(rng, n), mat.RandVec(rng, n)}
			solve := testing.AllocsPerRun(5, func() { f.Solve(dst, b) })
			batch := testing.AllocsPerRun(5, func() { _ = f.SolveBatchCtx(context.Background(), cols) })
			if solve != 0 || batch != 0 {
				t.Fatalf("%s/%s: a warm Solve allocates %v times, a warm SolveBatchCtx %v; want 0",
					caseName, beName, solve, batch)
			}
		}
	}
}

// TestSolveBatchShiftedBitExact runs the same equivalence through the
// ShiftedCache (shifted pencils, both backends, counting wrapper on).
func TestSolveBatchShiftedBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	a := rlcLineCSR(40)
	n := a.Rows
	for _, ls := range []LinearSolver{Dense{}, Sparse{}} {
		sc := NewShiftedCache(Operand(a.Dense(), a), nil, ls)
		for _, sigma := range []float64{0, -0.4, 1.3} {
			f, err := sc.FactorCtx(context.Background(), sigma)
			if err != nil {
				t.Fatalf("%s σ=%g: %v", ls.Name(), sigma, err)
			}
			const k = 5
			cols := make([][]float64, k)
			want := make([][]float64, k)
			for c := 0; c < k; c++ {
				cols[c] = mat.RandVec(rng, n)
				want[c] = make([]float64, n)
				f.Solve(want[c], cols[c])
			}
			f.SolveBatch(cols)
			for c := 0; c < k; c++ {
				for i := 0; i < n; i++ {
					if cols[c][i] != want[c][i] {
						t.Fatalf("%s σ=%g col %d row %d: batch %v, loop %v",
							ls.Name(), sigma, c, i, cols[c][i], want[c][i])
					}
				}
			}
		}
		st := sc.Stats()
		if st.BatchSolves != 3 || st.BatchColumns != 15 {
			t.Fatalf("%s: batch stats = %+v, want 3 solves / 15 columns", ls.Name(), st)
		}
	}
}

// TestSolveBatchCtxAbort checks that a canceled batched solve reports
// the context error and leaves the columns untouched.
func TestSolveBatchCtxAbort(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	a := rlcLineCSR(300) // n = 599 > the ctx poll stride guard sizes
	for _, ls := range []LinearSolver{Dense{}, Sparse{}} {
		f, err := ls.FactorCtx(context.Background(), Operand(a.Dense(), a))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		col := mat.RandVec(rng, a.Rows)
		orig := mat.CopyVec(col)
		if err := f.SolveBatchCtx(ctx, [][]float64{col}); err != context.Canceled {
			t.Fatalf("%s: got %v, want context.Canceled", ls.Name(), err)
		}
		for i := range col {
			if col[i] != orig[i] {
				t.Fatalf("%s: aborted solve mutated its column at %d", ls.Name(), i)
			}
		}
		// A live context completes and matches Solve.
		want := make([]float64, a.Rows)
		f.Solve(want, col)
		if err := f.SolveBatchCtx(context.Background(), [][]float64{col}); err != nil {
			t.Fatal(err)
		}
		for i := range col {
			if col[i] != want[i] {
				t.Fatalf("%s: live-ctx batch diverged from Solve at %d", ls.Name(), i)
			}
		}
	}
}

// TestShiftedCacheSingleflight drives many concurrent workers at the
// same shift (run with -race: this is the WithParallel race that used
// to be able to double-factor a sigma) and asserts the pencil was
// factored exactly once, with every other request counted as a hit.
// Each worker then solves its own batch on the shared factorization,
// whose scratch the solves take in turn, and must get the bits of a
// serial solve.
func TestShiftedCacheSingleflight(t *testing.T) {
	a := rlcLineCSR(200)
	n := a.Rows
	rng := rand.New(rand.NewSource(59))
	const workers = 16
	rhs := make([][][]float64, workers)
	for w := range rhs {
		rhs[w] = [][]float64{mat.RandVec(rng, n), mat.RandVec(rng, n), mat.RandVec(rng, n)}
	}
	for _, ls := range []LinearSolver{Dense{}, Sparse{}} {
		sc := NewShiftedCache(Operand(a.Dense(), a), nil, ls)
		var wg sync.WaitGroup
		facts := make([]Factorization, workers)
		errs := make([]error, workers)
		sols := make([][][]float64, workers)
		start := make(chan struct{})
		for w := 0; w < workers; w++ {
			sols[w] = make([][]float64, len(rhs[w]))
			for c, b := range rhs[w] {
				sols[w][c] = mat.CopyVec(b)
			}
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				facts[w], errs[w] = sc.FactorCtx(context.Background(), -0.5)
				if errs[w] == nil {
					errs[w] = facts[w].SolveBatchCtx(context.Background(), sols[w])
				}
			}(w)
		}
		close(start)
		wg.Wait()
		for w := 0; w < workers; w++ {
			if errs[w] != nil {
				t.Fatalf("%s: worker %d: %v", ls.Name(), w, errs[w])
			}
			if facts[w] != facts[0] {
				t.Fatalf("%s: worker %d got a different factorization instance", ls.Name(), w)
			}
		}
		serial, err := ls.FactorCtx(context.Background(), sc.shifted(-0.5))
		if err != nil {
			t.Fatal(err)
		}
		for w := 0; w < workers; w++ {
			for c, b := range rhs[w] {
				want := make([]float64, n)
				serial.Solve(want, b)
				for i := range want {
					if math.Float64bits(sols[w][c][i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s: worker %d col %d row %d: concurrent %v, serial %v",
							ls.Name(), w, c, i, sols[w][c][i], want[i])
					}
				}
			}
		}
		st := sc.Stats()
		if st.Factorizations != 1 {
			t.Fatalf("%s: %d factorizations for one shift under %d concurrent workers, want exactly 1",
				ls.Name(), st.Factorizations, workers)
		}
		if st.Hits != workers-1 {
			t.Fatalf("%s: hits = %d, want %d", ls.Name(), st.Hits, workers-1)
		}
	}
}

// TestShiftedCacheCanceledLeaderRetries checks the singleflight
// recovery path: a waiter with a live context must not inherit the
// canceled leader's error — it re-factors as the new leader.
func TestShiftedCacheCanceledLeaderRetries(t *testing.T) {
	a := rlcLineCSR(400)
	sc := NewShiftedCache(FromCSR(a), nil, Sparse{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sc.FactorCtx(ctx, -0.3); err == nil {
		t.Fatal("expected a context error from the canceled leader")
	}
	f, err := sc.FactorCtx(context.Background(), -0.3)
	if err != nil {
		t.Fatalf("live retry after canceled leader: %v", err)
	}
	if f == nil {
		t.Fatal("nil factorization from live retry")
	}
	if st := sc.Stats(); st.Factorizations != 1 {
		t.Fatalf("factorizations = %d, want 1 (the canceled attempt never completed)", st.Factorizations)
	}
}
