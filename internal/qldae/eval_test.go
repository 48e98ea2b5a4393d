package qldae_test

import (
	"testing"

	"avtmor/internal/circuits"
)

// TestPreparedEvalAllocatesNothing: Eval's scratch belongs to its
// Prepared, so neither NTLVoltage(50)'s D1 products nor the varistor's
// unpacked G3 allocate per evaluation.
func TestPreparedEvalAllocatesNothing(t *testing.T) {
	for _, w := range []*circuits.Workload{circuits.NTLVoltage(50), circuits.Varistor()} {
		sys := w.Sys
		p := sys.Prepare()
		x := make([]float64, sys.N)
		for i := range x {
			x[i] = 0.01 * float64(i%7-3)
		}
		u := make([]float64, sys.Inputs())
		for i := range u {
			u[i] = 0.5
		}
		dst := make([]float64, sys.N)
		if a := testing.AllocsPerRun(20, func() { p.Eval(dst, x, u) }); a != 0 {
			t.Errorf("%s: Eval allocates %v times per call", w.Name, a)
		}
	}
}
