package mat

import (
	"math/rand"
	"testing"
)

func TestWorkspaceReuse(t *testing.T) {
	var w Workspace
	a := w.Get(64)
	if len(a) != 64 {
		t.Fatalf("Get(64) returned length %d", len(a))
	}
	for i := range a {
		a[i] = float64(i)
	}
	w.Put(a)
	b := w.Get(32) // smaller request may reuse the same backing array
	if len(b) != 32 {
		t.Fatalf("Get(32) returned length %d", len(b))
	}
	w.Put(b)
	// A too-large request after a small pooled buffer must still work.
	c := w.Get(128)
	if len(c) != 128 {
		t.Fatalf("Get(128) returned length %d", len(c))
	}
	w.Put(c)
	// Zero-capacity put is a no-op, not a poison pill.
	w.Put(nil)
	if d := w.Get(8); len(d) != 8 {
		t.Fatal("pool poisoned by nil Put")
	}
}

// TestMulVecToMatchesMulVec: MulVecTo is MulVec by another name.
func TestMulVecToMatchesMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	m := RandDense(rng, 23, 17)
	x := RandVec(rng, 17)
	want := make([]float64, 23)
	m.MulVec(want, x)
	one := make([]float64, 23)
	m.MulVecTo(one, x)
	for i := range one {
		if one[i] != want[i] {
			t.Fatal("MulVecTo diverged from MulVec")
		}
	}
}
