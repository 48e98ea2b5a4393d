package solver

import (
	"context"
	"math/rand"
	"testing"

	"avtmor/internal/sparse"
)

// sameFactor asserts two factorizations are bit-identical in every
// stored field — the contract a completed Refactor makes against a
// fresh factorCSR of the same operand.
func sameFactor(t *testing.T, got, want *spLU) {
	t.Helper()
	if got.n != want.n {
		t.Fatalf("n = %d, want %d", got.n, want.n)
	}
	for i := range want.colperm {
		if got.colperm[i] != want.colperm[i] {
			t.Fatalf("colperm[%d] = %d, want %d", i, got.colperm[i], want.colperm[i])
		}
	}
	for i := range want.prow {
		if got.prow[i] != want.prow[i] {
			t.Fatalf("prow[%d] = %d, want %d", i, got.prow[i], want.prow[i])
		}
	}
	if len(got.lidx) != len(want.lidx) || len(got.uidx) != len(want.uidx) {
		t.Fatalf("factor nnz L=%d U=%d, want L=%d U=%d", len(got.lidx), len(got.uidx), len(want.lidx), len(want.uidx))
	}
	for i := range want.lidx {
		if got.lidx[i] != want.lidx[i] || got.lval[i] != want.lval[i] {
			t.Fatalf("L slot %d = (%d, %v), want (%d, %v)", i, got.lidx[i], got.lval[i], want.lidx[i], want.lval[i])
		}
	}
	for i := range want.uidx {
		if got.uidx[i] != want.uidx[i] || got.uval[i] != want.uval[i] {
			t.Fatalf("U slot %d = (%d, %v), want (%d, %v)", i, got.uidx[i], got.uval[i], want.uidx[i], want.uval[i])
		}
	}
	for i := range want.d {
		if got.d[i] != want.d[i] {
			t.Fatalf("d[%d] = %v, want %v", i, got.d[i], want.d[i])
		}
	}
	for i := range want.lptr {
		if got.lptr[i] != want.lptr[i] || got.uptr[i] != want.uptr[i] {
			t.Fatalf("ptr[%d] = (%d, %d), want (%d, %d)", i, got.lptr[i], got.uptr[i], want.lptr[i], want.uptr[i])
		}
	}
}

// sameValues overwrites a's values in place with fresh ones, keeping
// the structure: the refactor contract is about patterns, and tests
// exercise it with many value sets over one recorded pattern.
func withValues(a *sparse.CSR, vals []float64) *sparse.CSR {
	return &sparse.CSR{Rows: a.Rows, Cols: a.Cols, RowPtr: a.RowPtr, ColIdx: a.ColIdx, Val: vals}
}

// TestRefactorBitExact is the bit-exactness property test: across
// random patterns and value sets — gentle perturbations that keep the
// recorded pivot sequence and wild redraws that may reject it — every
// accepted Refactor must equal a fresh factorCSR of the same operand
// in every bit, and the crafted cases below pin the rejection paths.
func TestRefactorBitExact(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	accepted, rejected, refused, recorded := 0, 0, 0, 0
	nudges, nudgeAccepted := 0, 0
	for _, n := range []int{12, 47, 120} {
		for trial := 0; trial < 4; trial++ {
			a := randSparse(rng, n, 0.06)
			_, rec, err := factorCSRRecord(ctx, a, true)
			if err != nil {
				t.Fatalf("n=%d trial=%d: record: %v", n, trial, err)
			}
			if rec == nil {
				// Legitimate: the reachability DFS over-approximates the
				// numeric pattern, and an unsymmetric random matrix often has
				// structurally-reached rows whose value is exactly zero — the
				// fresh path drops those, so recording refuses rather than
				// freeze a pattern a value change would diverge from.
				refused++
				continue
			}
			recorded++
			for mode := 0; mode < 6; mode++ {
				vals := make([]float64, len(a.Val))
				if mode < 3 {
					// Same values up to a relative nudge: the pivot sequence
					// almost always survives. Not always — at a catastrophic-
					// cancellation fill slot (value within an ulp of zero) the
					// nudge can land exactly on 0.0, which a fresh
					// factorization would drop from the pattern, so the replay
					// must reject there too.
					nudges++
					for i, v := range a.Val {
						vals[i] = v * (1 + 1e-9*rng.Float64())
					}
				} else {
					// Full redraw on the same pattern: acceptance is up to
					// threshold pivoting, equivalence is not.
					for i := range vals {
						vals[i] = rng.NormFloat64()
					}
				}
				av := withValues(a, vals)
				f, ok, err := rec.Refactor(ctx, av)
				if err != nil {
					t.Fatalf("n=%d mode=%d: refactor: %v", n, mode, err)
				}
				if !ok {
					rejected++
					continue
				}
				accepted++
				if mode < 3 {
					nudgeAccepted++
				}
				fresh, err := factorCSR(ctx, av)
				if err != nil {
					t.Fatalf("n=%d mode=%d: accepted refactor but fresh factorization failed: %v", n, mode, err)
				}
				sameFactor(t, f, fresh)
			}
		}
	}
	if recorded == 0 {
		t.Fatal("no pattern was ever recorded; the symbolic path is dead")
	}
	if accepted == 0 {
		t.Fatal("no refactor was ever accepted; the numeric-only path is dead")
	}
	if nudgeAccepted*10 < nudges*9 {
		t.Fatalf("only %d/%d nudged refactors accepted; pivot replay is too brittle", nudgeAccepted, nudges)
	}
	t.Logf("recorded %d patterns (%d refused), accepted %d refactors (%d/%d nudges), rejected %d",
		recorded, refused, accepted, nudgeAccepted, nudges, rejected)
}

// TestRefactorShiftedPencil pins the amortization the ShiftedCache
// banks on: all nonzero shifts of G + σ·I present the identical union
// pattern (sparse.Add keeps exact-cancellation slots), so one symbolic
// analysis serves every expansion point, and the per-shift factors are
// bit-identical to factoring fresh.
func TestRefactorShiftedPencil(t *testing.T) {
	ctx := context.Background()
	g := rlcLineCSR(128) // 255 states, the paper's RLC-line shape
	eye := sparse.Eye(g.Rows)
	base := sparse.Add(1, g, 1.0, eye)
	_, rec, err := factorCSRRecord(ctx, base, true)
	if err != nil || rec == nil {
		t.Fatalf("record: %v (rec=%v)", err, rec != nil)
	}
	for _, sigma := range []float64{2.5, 0.7, 10} {
		shifted := sparse.Add(1, g, sigma, eye)
		if !rec.matches(shifted) {
			t.Fatalf("σ=%v: shifted pencil pattern does not match the recorded one", sigma)
		}
		f, ok, err := rec.Refactor(ctx, shifted)
		if err != nil {
			t.Fatalf("σ=%v: %v", sigma, err)
		}
		if !ok {
			t.Fatalf("σ=%v: refactor rejected — the shifted-cache amortization premise is broken", sigma)
		}
		fresh, err := factorCSR(ctx, shifted)
		if err != nil {
			t.Fatalf("σ=%v: fresh: %v", sigma, err)
		}
		sameFactor(t, f, fresh)
	}
}

// TestShiftedCacheSymbolicStats checks the counter wiring end to end:
// K distinct shifts through a ShiftedCache pay one symbolic analysis
// and K−1 numeric refactors.
func TestShiftedCacheSymbolicStats(t *testing.T) {
	g := rlcLineCSR(128)
	sc := NewShiftedCache(FromCSR(g), nil, Sparse{})
	shifts := []float64{1, 2.5, 0.7, 10}
	for _, sigma := range shifts {
		if _, err := sc.FactorCtx(context.Background(), sigma); err != nil {
			t.Fatalf("σ=%v: %v", sigma, err)
		}
	}
	st := sc.Stats()
	if st.Factorizations != int64(len(shifts)) {
		t.Fatalf("factorizations = %d, want %d", st.Factorizations, len(shifts))
	}
	if st.SymbolicAnalyses != 1 || st.NumericRefactors != int64(len(shifts)-1) {
		t.Fatalf("analyses=%d refactors=%d, want 1 and %d", st.SymbolicAnalyses, st.NumericRefactors, len(shifts)-1)
	}
}

// TestRefactorPivotRejection forces the threshold-pivoting fallback: a
// value change that flips the pivot choice must reject the recorded
// sequence, and the SymbolicCache must then serve the fresh path —
// still bit-identical to an uncached factorization — and re-record.
func TestRefactorPivotRejection(t *testing.T) {
	ctx := context.Background()
	build := func(diag float64) *sparse.CSR {
		b := sparse.NewBuilder(2, 2)
		b.Add(0, 0, diag)
		b.Add(0, 1, 1)
		b.Add(1, 0, 1)
		b.Add(1, 1, diag)
		return b.Build()
	}
	strong, weak := build(10), build(0.01)
	_, rec, err := factorCSRRecord(ctx, strong, true)
	if err != nil || rec == nil {
		t.Fatalf("record: %v (rec=%v)", err, rec != nil)
	}
	if _, ok, err := rec.Refactor(ctx, weak); err != nil || ok {
		// Both rows have two nonzeros, so the Markowitz relaxation never
		// displaces the max-magnitude row: the diagonal pivots for the
		// strong values, the off-diagonal for the weak ones, disagreeing
		// with the recorded diagonal choice.
		t.Fatalf("refactor of pivot-flipping values: ok=%v err=%v, want rejection", ok, err)
	}
	var cache SymbolicCache
	if _, err := cache.FactorCtx(ctx, Sparse{}, FromCSR(strong)); err != nil {
		t.Fatal(err)
	}
	got, err := cache.FactorCtx(ctx, Sparse{}, FromCSR(weak))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := factorCSR(ctx, weak)
	if err != nil {
		t.Fatal(err)
	}
	sameFactor(t, got.(*spLU), fresh)
	if a, r := cache.Stats(); a != 2 || r != 0 {
		t.Fatalf("analyses=%d refactors=%d, want 2 and 0 (rejection re-records)", a, r)
	}
}

// TestSymbolicCachePatternMiss: a different sparsity pattern must miss
// the cache and trigger a fresh analysis, never a structural reuse.
func TestSymbolicCachePatternMiss(t *testing.T) {
	ctx := context.Background()
	a1 := rlcLineCSR(16)
	a2 := rlcLineCSR(17)
	_, rec, err := factorCSRRecord(ctx, a1, true)
	if err != nil || rec == nil {
		t.Fatalf("record: %v", err)
	}
	if rec.matches(a2) {
		t.Fatal("pattern of a different circuit matched the recorded one")
	}
	var cache SymbolicCache
	for _, a := range []*sparse.CSR{a1, a2} {
		if _, err := cache.FactorCtx(ctx, Sparse{}, FromCSR(a)); err != nil {
			t.Fatal(err)
		}
	}
	if an, rf := cache.Stats(); an != 2 || rf != 0 {
		t.Fatalf("analyses=%d refactors=%d, want 2 and 0", an, rf)
	}
}

// shiftedLine is the 1023-state benchmark pencil: the shifted RLC-line
// workload every solver bench in this repo is calibrated on.
func shiftedLine() *sparse.CSR {
	g := rlcLineCSR(512)
	return sparse.Add(1, g, 2.5, sparse.Eye(g.Rows))
}

// BenchmarkFactorFresh is the pre-split cost of one shifted factor
// step: full symbolic analysis plus the numeric phase, per op.
func BenchmarkFactorFresh(b *testing.B) {
	a := shiftedLine()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := factorCSR(ctx, a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFactorNumericOnly is the post-split cost of the same factor
// step when the pattern is already analyzed: Refactor into the
// recorded structure, no DFS, no CSC rebuild, no RCM. This is what
// every ShiftedCache miss after the first and every Newton
// refactorization of a transient pays.
func BenchmarkFactorNumericOnly(b *testing.B) {
	a := shiftedLine()
	ctx := context.Background()
	_, rec, err := factorCSRRecord(ctx, a, true)
	if err != nil || rec == nil {
		b.Fatalf("record: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, ok, err := rec.Refactor(ctx, a)
		if err != nil || !ok {
			b.Fatalf("ok=%v err=%v", ok, err)
		}
	}
}
