package qldae

import (
	"math/rand"
	"testing"

	"avtmor/internal/mat"
)

// Additional coverage of MIMO projection.

func TestProjectMISO(t *testing.T) {
	// MIMO projection must reduce B and every D1 block consistently.
	rng := rand.New(rand.NewSource(63))
	n, m := 8, 3
	s := &System{
		N:  n,
		G1: mat.RandStable(rng, n, 0.4),
		B:  mat.RandDense(rng, n, m),
		L:  mat.RandDense(rng, 2, n),
		D1: []*mat.Dense{mat.RandDense(rng, n, n).Scale(0.1), nil, mat.RandDense(rng, n, n).Scale(0.1)},
	}
	v := mat.NewDense(n, 3)
	v.Set(0, 0, 1)
	v.Set(3, 1, 1)
	v.Set(6, 2, 1)
	rom := s.Project(v)
	if rom.Inputs() != m || rom.Outputs() != 2 {
		t.Fatalf("dims lost: inputs %d outputs %d", rom.Inputs(), rom.Outputs())
	}
	if rom.D1[1] != nil {
		t.Fatal("nil D1 block must stay nil")
	}
	if rom.D1[0] == nil || rom.D1[2] == nil {
		t.Fatal("non-nil D1 blocks must be projected")
	}
}
