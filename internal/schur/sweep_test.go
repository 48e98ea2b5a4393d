package schur

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"avtmor/internal/circuits"
	"avtmor/internal/mat"
	"avtmor/internal/netlist"
)

// refDecompose is Decompose with the full-width Francis sweep the
// windowed one replaced: every reflector updates all n rows and all n
// columns of h, through the generic reflector loops.
func refDecompose(a *mat.Dense) (*Schur, error) {
	n := a.R
	t := a.Clone()
	q := mat.Eye(n)
	hessenberg(t, q)
	const ulp = 2.220446049250313e-16
	smlnum := math.SmallestNonzeroFloat64 / ulp * float64(n)
	hi := n - 1
	sinceDeflate := 0
	budget := maxIterFactor * n
	for n > 1 && hi >= 0 {
		if budget <= 0 {
			return nil, ErrNoConvergence
		}
		lo := hi
		for lo > 0 {
			sub := math.Abs(t.At(lo, lo-1))
			if sub <= smlnum || sub <= ulp*(math.Abs(t.At(lo-1, lo-1))+math.Abs(t.At(lo, lo))) {
				t.Set(lo, lo-1, 0)
				break
			}
			lo--
		}
		switch {
		case lo == hi:
			hi--
			sinceDeflate = 0
		case lo == hi-1:
			standardize2x2(t, q, lo)
			hi -= 2
			sinceDeflate = 0
		default:
			sinceDeflate++
			budget--
			refSweep(t, q, lo, hi, sinceDeflate%14 == 0)
		}
	}
	s := &Schur{Q: q, T: t}
	s.scanBlocks()
	return s, nil
}

func refSweep(h, q *mat.Dense, lo, hi int, exceptional bool) {
	var s, t float64
	if exceptional {
		w := math.Abs(h.At(hi, hi-1)) + math.Abs(h.At(hi-1, hi-2))
		s = 1.5 * w
		t = w * w * 0.75 * 0.9375
	} else {
		s = h.At(hi-1, hi-1) + h.At(hi, hi)
		t = h.At(hi-1, hi-1)*h.At(hi, hi) - h.At(hi-1, hi)*h.At(hi, hi-1)
	}
	x := h.At(lo, lo)*h.At(lo, lo) + h.At(lo, lo+1)*h.At(lo+1, lo) - s*h.At(lo, lo) + t
	y := h.At(lo+1, lo) * (h.At(lo, lo) + h.At(lo+1, lo+1) - s)
	z := h.At(lo+1, lo) * h.At(lo+2, lo+1)
	for k := lo; k <= hi-2; k++ {
		if v := []float64{x, y, z}; householder(v) {
			refReflectRows(h, v, k)
			refReflectCols(h, v, k)
			refReflectCols(q, v, k)
		}
		if k < hi-2 {
			x = h.At(k+1, k)
			y = h.At(k+2, k)
			if k+3 <= hi {
				z = h.At(k+3, k)
			} else {
				z = 0
			}
		}
	}
	if v := []float64{h.At(hi-1, hi-2), h.At(hi, hi-2)}; householder(v) {
		refReflectRows(h, v, hi-1)
		refReflectCols(h, v, hi-1)
		refReflectCols(q, v, hi-1)
	}
	for i := lo + 2; i <= hi; i++ {
		for j := lo; j <= i-2; j++ {
			h.Set(i, j, 0)
		}
	}
}

func refReflectRows(m *mat.Dense, v []float64, r0 int) {
	for j := 0; j < m.C; j++ {
		s := 0.0
		for i, vi := range v {
			s += vi * m.At(r0+i, j)
		}
		s *= 2
		if s == 0 {
			continue
		}
		for i, vi := range v {
			m.Add(r0+i, j, -s*vi)
		}
	}
}

func refReflectCols(m *mat.Dense, v []float64, c0 int) {
	for i := 0; i < m.R; i++ {
		row := m.Row(i)
		s := 0.0
		for j, vj := range v {
			s += vj * row[c0+j]
		}
		s *= 2
		if s == 0 {
			continue
		}
		for j, vj := range v {
			row[c0+j] -= s * vj
		}
	}
}

func ladderG1(t *testing.T, stages int) *mat.Dense {
	t.Helper()
	var b strings.Builder
	b.WriteString("I1 0 n1 IN0 1\n")
	for k := 1; k <= stages; k++ {
		fmt.Fprintf(&b, "C%d n%d 0 %g\nR%d n%d 0 %g\nD%d n%d 0 0.05 0.5\n", k, k, 1+0.1*float64(k%3), k, k, 1.2-0.01*float64(k), k, k)
		if k < stages {
			fmt.Fprintf(&b, "RS%d n%d m%d 0.7\nCM%d m%d 0 0.1\nL%d m%d n%d 0.3\n", k, k, k, k, k, k, k, k+1)
		}
	}
	b.WriteString(".out n1\n")
	c, err := netlist.Parse(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sys.G1
}

// TestWindowedSweepBitIdentical pins that the windowed Francis sweep
// produces the same Q and T bits as full-width reflector updates.
func TestWindowedSweepBitIdentical(t *testing.T) {
	cases := map[string]*mat.Dense{
		"s31":       circuits.NTLVoltage(50).Sys.G1,
		"s32":       circuits.NTLCurrent(70).Sys.G1,
		"s33":       circuits.RFReceiver().Sys.G1,
		"s34":       circuits.Varistor().Sys.G1,
		"ladder-12": ladderG1(t, 12),
	}
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{17, 60, 150} {
		cases[fmt.Sprintf("random-%d", n)] = mat.RandDense(rng, n, n)
	}
	for name, a := range cases {
		t.Run(name, func(t *testing.T) {
			got, err := Decompose(a)
			if err != nil {
				t.Fatal(err)
			}
			want, err := refDecompose(a)
			if err != nil {
				t.Fatal(err)
			}
			pairs := 0
			for _, b := range got.Blocks() {
				if b[1] == 2 {
					pairs++
				}
			}
			if strings.HasPrefix(name, "random") && pairs == 0 {
				t.Fatal("no 2×2 block to exercise")
			}
			for _, m := range [][2]*mat.Dense{{got.Q, want.Q}, {got.T, want.T}} {
				for i, v := range m[0].A {
					if math.Float64bits(v) != math.Float64bits(m[1].A[i]) {
						t.Fatalf("entry %d differs: %v vs %v", i, v, m[1].A[i])
					}
				}
			}
		})
	}
}
