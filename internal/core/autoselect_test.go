package core

import (
	"math/rand"
	"testing"

	"avtmor/internal/mat"
	"avtmor/internal/qldae"
)

func TestSuggestOrdersShape(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	sys := testSystem(rng, 18, true)
	opt, err := SuggestOrders(sys, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if opt.K1 < 1 || opt.K1 > 18 {
		t.Fatalf("k1 = %d out of range", opt.K1)
	}
	if opt.K2 != (opt.K1+1)/2 || opt.K3 != (opt.K1+2)/3 {
		t.Fatalf("taper wrong: %+v", opt)
	}
}

func TestSuggestOrdersTolMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	sys := testSystem(rng, 20, false)
	loose, err := SuggestOrders(sys, 1e-2)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := SuggestOrders(sys, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	if tight.K1 < loose.K1 {
		t.Fatalf("tightening tol reduced k1: %d -> %d", loose.K1, tight.K1)
	}
}

func TestAutoReduceAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	sys := testSystem(rng, 22, true)
	opt, err := SuggestOrders(sys, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	rom, err := Reduce(sys, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rom.Sys.N >= sys.N {
		t.Fatalf("no reduction: q = %d", rom.Sys.N)
	}
	// The HSV cut at 1e-5 should give a ROM whose linear transfer is
	// accurate well beyond the expansion point.
	for _, s := range []complex128{0.05, 0.3i, 0.2 + 0.4i} {
		if e, err := rom.H1Error(0, s); err != nil || e > 1e-2 {
			t.Fatalf("H1 error %g at %v (%v)", e, s, err)
		}
	}
}

func TestSuggestOrdersCubicOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	sys := cubicSystem(rng, 12)
	opt, err := SuggestOrders(sys, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if opt.K2 != 0 {
		t.Fatalf("cubic system must not request H2 moments: %+v", opt)
	}
	if opt.K3 == 0 {
		t.Fatalf("cubic system should request H3 moments: %+v", opt)
	}
}

func TestSuggestOrdersZeroesForMIMOCubic(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	sys := cubicSystem(rng, 10)
	sys.B = mat.RandDense(rng, 10, 2)
	opt, err := SuggestOrders(sys, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if opt.K3 != 0 {
		t.Fatalf("MIMO H3 not supported; k3 must be 0: %+v", opt)
	}
}

func TestSuggestOrdersRejectsInvalid(t *testing.T) {
	bad := &qldae.System{N: 3}
	if _, err := SuggestOrders(bad, 1e-4); err == nil {
		t.Fatal("invalid system must error")
	}
}
