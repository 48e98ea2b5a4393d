package core

import (
	"math/cmplx"
	"math/rand"
	"testing"

	"avtmor/internal/mat"
	"avtmor/internal/volterra"
)

func TestProbeMultivariateConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("diagnostic")
	}
	rng := rand.New(rand.NewSource(42))
	sys := testSystem(rng, 14, true)
	s1, s2 := complex(0.01, 0.008), complex(0.012, -0.006)
	for _, k := range [][3]int{{2, 1, 0}, {4, 3, 0}, {4, 3, 2}, {6, 4, 3}, {8, 6, 4}, {10, 8, 5}} {
		rom, err := Reduce(sys, Options{K1: k[0], K2: k[1], K3: k[2]})
		if err != nil {
			t.Fatal(err)
		}
		xf, _ := volterra.H2(rom.Full, 0, 0, s1, s2)
		xr, _ := volterra.H2(rom.Sys, 0, 0, s1, s2)
		yf := mat.CDot(mat.ToComplex(sys.L.Row(0)), xf)
		lr := make([]complex128, rom.Sys.N)
		for i := range lr {
			lr[i] = complex(rom.Sys.L.At(0, i), 0)
		}
		yr := mat.CDot(lr, xr)
		a2, _ := rom.H2Error(0, 0, complex(0.02, 0.015))
		t.Logf("k=%v q=%d multiH2relerr=%.3g assocH2err=%.3g yf=%.4g", k, rom.Sys.N, cmplx.Abs(yf-yr)/cmplx.Abs(yf), a2, cmplx.Abs(yf))
	}
}
