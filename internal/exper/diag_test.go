package exper

import (
	"context"
	"testing"

	"avtmor/internal/circuits"
	"avtmor/internal/core"
	"avtmor/internal/schur"
)

// Diagnostic (skipped in -short): candidate/deflation profile and ROM
// spectral abscissae on the experiment workloads.
func TestDiagnosticReductionProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("diagnostic")
	}
	maxRe := func(m interface {
		Eigenvalues() []complex128
	}) float64 {
		worst := -1e300
		for _, e := range m.Eigenvalues() {
			if real(e) > worst {
				worst = real(e)
			}
		}
		return worst
	}
	_ = maxRe
	for _, tc := range []struct {
		name string
		w    *circuits.Workload
		opt  core.Options
	}{
		{"fig3-ntl70", circuits.NTLCurrent(70), core.Options{K1: 6, K2: 3, K3: 2}},
		{"fig4-rf173", circuits.RFReceiver(), core.Options{K1: 4, K2: 2}},
	} {
		for _, drop := range []float64{1e-8, 1e-12} {
			opt := tc.opt
			opt.S0 = tc.w.S0
			opt.DropTol = drop
			p, err := core.ReduceContext(context.Background(), tc.w.Sys, opt)
			if err != nil {
				t.Fatal(err)
			}
			nm, err := core.ReduceNORMContext(context.Background(), tc.w.Sys, opt)
			if err != nil {
				t.Fatal(err)
			}
			sp, _ := schur.Decompose(p.Sys.G1)
			sn, _ := schur.Decompose(nm.Sys.G1)
			worst := func(s *schur.Schur) float64 {
				w := -1e300
				for _, e := range s.Eigenvalues() {
					if real(e) > w {
						w = real(e)
					}
				}
				return w
			}
			t.Logf("%s drop=%g: prop cand=%d q=%d maxRe=%.3g | norm cand=%d q=%d maxRe=%.3g",
				tc.name, drop, p.Stats.Candidates, p.Sys.N, worst(sp),
				nm.Stats.Candidates, nm.Sys.N, worst(sn))
		}
	}
}
