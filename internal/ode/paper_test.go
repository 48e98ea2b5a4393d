package ode_test

import (
	"context"
	"testing"

	"avtmor/internal/circuits"
	"avtmor/internal/core"
	"avtmor/internal/ode"
)

// TestPaperTransientsRecordOnce pins the record/replay of the dense
// Newton LU on the paper's stiff testbenches: each full transient of
// §3.2–§3.4 records its one pivot sequence at the first factorization
// and replays it for all the others (2499 on the §3.3 receiver), and
// every ROM and NORM ROM transient records exactly once too.
func TestPaperTransientsRecordOnce(t *testing.T) {
	check := func(name string, res *ode.Result) {
		t.Helper()
		if res.Recorded != 1 || res.ReplayRejected != 0 || res.Replayed != res.Factorizations-1 {
			t.Fatalf("%s: %d recorded, %d replayed, %d rejected of %d factorizations; want one recording",
				name, res.Recorded, res.Replayed, res.ReplayRejected, res.Factorizations)
		}
	}
	cases := []struct {
		name   string
		w      *circuits.Workload
		opt    core.Options
		noNORM bool
	}{
		{"§3.2", circuits.NTLCurrent(70), core.Options{K1: 6, K2: 3, K3: 2}, false},
		{"§3.3", circuits.RFReceiver(), core.Options{K1: 4, K2: 2}, false},
		{"§3.4", circuits.Varistor(), core.Options{K1: 7, K3: 2}, true},
	}
	for _, tc := range cases {
		full, err := ode.TrapezoidalSolverCtx(context.Background(), tc.w.Sys, make([]float64, tc.w.Sys.N), tc.w.U, tc.w.TEnd, tc.w.Steps, nil)
		if err != nil {
			t.Fatal(err)
		}
		check(tc.name+" full", full)
		if tc.name == "§3.3" && full.Replayed != 2499 {
			t.Fatalf("§3.3 full: %d replays, want 2499", full.Replayed)
		}
	}
	if testing.Short() {
		t.Skip("ROM transients need reductions")
	}
	for _, tc := range cases {
		tc.opt.S0 = tc.w.S0
		roms := []func() (*core.ROM, error){func() (*core.ROM, error) { return core.ReduceContext(context.Background(), tc.w.Sys, tc.opt) }}
		if !tc.noNORM {
			roms = append(roms, func() (*core.ROM, error) { return core.ReduceNORMContext(context.Background(), tc.w.Sys, tc.opt) })
		}
		for i, reduce := range roms {
			rom, err := reduce()
			if err != nil {
				t.Fatal(err)
			}
			res, err := ode.TrapezoidalSolverCtx(context.Background(), rom.Sys, make([]float64, rom.Sys.N), tc.w.U, tc.w.TEnd, tc.w.Steps, nil)
			if err != nil {
				t.Fatal(err)
			}
			check(tc.name+[]string{" ROM", " NORM ROM"}[i], res)
		}
	}
}
