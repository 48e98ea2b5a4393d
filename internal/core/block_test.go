package core

import (
	"testing"

	"avtmor/internal/circuits"
	"avtmor/internal/qldae"
	"avtmor/internal/sparse"
)

// denseEqual reports bitwise equality of two dense matrices (nil-safe).
func densesEqual(a, b interface {
	Row(int) []float64
}, rows int) bool {
	for i := 0; i < rows; i++ {
		ra, rb := a.Row(i), b.Row(i)
		if len(ra) != len(rb) {
			return false
		}
		for j := range ra {
			if ra[j] != rb[j] {
				return false
			}
		}
	}
	return true
}

func csrEqual(a, b *sparse.CSR) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if a.Rows != b.Rows || a.Cols != b.Cols || a.NNZ() != b.NNZ() {
		return false
	}
	for i := range a.Val {
		if a.Val[i] != b.Val[i] || a.ColIdx[i] != b.ColIdx[i] {
			return false
		}
	}
	return true
}

// sysBitEqual compares every matrix of two reduced systems bit for bit.
func sysBitEqual(t *testing.T, a, b *qldae.System) {
	t.Helper()
	if a.N != b.N {
		t.Fatalf("order differs: %d vs %d", a.N, b.N)
	}
	if !densesEqual(a.G1, b.G1, a.N) {
		t.Fatal("G1 differs")
	}
	if !densesEqual(a.B, b.B, a.N) {
		t.Fatal("B differs")
	}
	if !densesEqual(a.L, b.L, a.L.R) {
		t.Fatal("L differs")
	}
	if !csrEqual(a.G2, b.G2) {
		t.Fatal("G2 differs")
	}
	if !csrEqual(a.G3, b.G3) {
		t.Fatal("G3 differs")
	}
	if len(a.D1) != len(b.D1) {
		t.Fatal("D1 count differs")
	}
	for i := range a.D1 {
		if (a.D1[i] == nil) != (b.D1[i] == nil) {
			t.Fatalf("D1[%d] presence differs", i)
		}
		if a.D1[i] != nil && !densesEqual(a.D1[i], b.D1[i], a.N) {
			t.Fatalf("D1[%d] differs", i)
		}
	}
}

// TestReduceBlockedBitExact: across nonlinear, multipoint and
// large-sparse workloads the moment generators go through the block
// solve path, and its counters move. Per-column bit-exactness of
// SolveBatch against looped Solve is pinned in internal/solver.
func TestReduceBlockedBitExact(t *testing.T) {
	cases := []struct {
		name string
		sys  *qldae.System
		opt  Options
	}{
		{"ntl-current-h123", circuits.NTLCurrent(30).Sys,
			Options{K1: 4, K2: 2, K3: 2, S0: circuits.NTLCurrent(30).S0}},
		{"rf-receiver-mimo", circuits.RFReceiver().Sys,
			Options{K1: 3, K2: 2, S0: circuits.RFReceiver().S0}},
		{"rlc-multipoint-sparse", circuits.RLCLine(160).Sys,
			Options{K1: 5, ExtraPoints: []float64{0.4, 0.9}}},
		{"varistor-cubic", circuits.Varistor().Sys,
			Options{K1: 3, K2: 2, K3: 2, S0: circuits.Varistor().S0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rb, err := Reduce(tc.sys, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			if rb.Stats.BatchSolves == 0 {
				t.Fatal("blocked reduction recorded no batch solves")
			}
			if rb.Stats.BatchColumns < rb.Stats.BatchSolves {
				t.Fatalf("batch columns %d < batch solves %d", rb.Stats.BatchColumns, rb.Stats.BatchSolves)
			}
		})
	}
}

// TestReduceBlockedParallelBitExact is the same contract under the
// WithParallel fan-out (run with -race in CI): concurrent generators
// share the singleflight shifted cache and must still produce the
// bit-identical ROM.
func TestReduceBlockedParallelBitExact(t *testing.T) {
	w := circuits.NTLCurrent(30)
	base := Options{K1: 4, K2: 2, K3: 2, S0: w.S0}
	serial := base
	par := base
	par.Parallel = true
	r1, err := Reduce(w.Sys, serial)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Reduce(w.Sys, par)
	if err != nil {
		t.Fatal(err)
	}
	sysBitEqual(t, r1.Sys, r2.Sys)
	if r2.Stats.Factorizations != r1.Stats.Factorizations {
		t.Fatalf("parallel run paid %d factorizations, serial %d — singleflight failed",
			r2.Stats.Factorizations, r1.Stats.Factorizations)
	}
}
