package avtmor

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"avtmor/internal/qldae"
)

// mirrorSystems returns one system from every producer of a CSR mirror
// G1S: the §3 testbenches, the RLC line, the netlist parser, the
// SystemBuilder, and a System-codec round trip.
func mirrorSystems(t *testing.T) map[string]*qldae.System {
	t.Helper()
	out := map[string]*qldae.System{
		"s31-ntl-voltage": NTLVoltage(50).System.sys,
		"s32-ntl-current": NTLCurrent(70).System.sys,
		"s33-rf-receiver": RFReceiver().System.sys,
		"s34-varistor":    Varistor().System.sys,
		"rlc-line-1000":   RLCLine(1000).System.sys,
	}

	out["netlist-ladder"] = diodeLadder(t).sys

	rng := rand.New(rand.NewSource(5))
	const n = 9
	sb := NewSystemBuilder(n, 2, 1)
	for i := 0; i < n; i++ {
		sb.G1(i, i, -1-rng.Float64())
		sb.G1(i, rng.Intn(n), 0.3*(2*rng.Float64()-1))
		sb.G2(i, rng.Intn(n), rng.Intn(n), 0.1)
		sb.D1(1, i, rng.Intn(n), 0.05)
		sb.B(i, i%2, 1)
	}
	sb.L(0, n-1, 1)
	built, err := sb.Build()
	if err != nil {
		t.Fatal(err)
	}
	out["system-builder"] = built.sys

	var buf bytes.Buffer
	if _, err := NTLCurrent(70).System.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSystem(&buf)
	if err != nil {
		t.Fatal(err)
	}
	out["codec-round-trip"] = back.sys
	return out
}

// diodeLadder parses a 12-stage netlist ladder: grounded C, R and diode
// at every node, series R–L branches with a capacitive midpoint.
func diodeLadder(t testing.TB) *System {
	t.Helper()
	var nl strings.Builder
	nl.WriteString("I1 0 n1 IN0 1\n")
	const stages = 12
	for k := 1; k <= stages; k++ {
		fmt.Fprintf(&nl, "C%d n%d 0 %g\nR%d n%d 0 %g\nD%d n%d 0 0.05 0.5\n", k, k, 1+0.1*float64(k), k, k, 2-0.05*float64(k), k, k)
		if k < stages {
			fmt.Fprintf(&nl, "RS%d n%d m%d 0.7\nCM%d m%d 0 0.1\nL%d m%d n%d 0.3\n", k, k, k, k, k, k, k, k+1)
		}
	}
	nl.WriteString(".out n1\n")
	net, err := ParseNetlist(strings.NewReader(nl.String()))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestG1SMirrorsG1Exactly pins the invariant qldae.System.MulG1 relies
// on: wherever both representations exist, G1S stores exactly G1's
// nonzeros (same bits, ascending columns, nothing else), so Eval through
// the mirror equals Eval through the dense G1 bit for bit — on inputs
// with exact ±0 entries too.
func TestG1SMirrorsG1Exactly(t *testing.T) {
	for name, sys := range mirrorSystems(t) {
		t.Run(name, func(t *testing.T) {
			if sys.G1 == nil || sys.G1S == nil {
				t.Fatalf("want both representations, have G1 %v, G1S %v", sys.G1 != nil, sys.G1S != nil)
			}
			g, n := sys.G1S, sys.N
			for r := 0; r < n; r++ {
				k := g.RowPtr[r]
				for c, v := range sys.G1.Row(r) {
					if v == 0 {
						continue
					}
					if k >= g.RowPtr[r+1] || g.ColIdx[k] != c || math.Float64bits(g.Val[k]) != math.Float64bits(v) {
						t.Fatalf("row %d: dense nonzero (%d, %v) is not the mirror's next entry", r, c, v)
					}
					k++
				}
				if k != g.RowPtr[r+1] {
					t.Fatalf("row %d: mirror holds %d entries beyond G1's nonzeros", r, g.RowPtr[r+1]-k)
				}
			}

			dense := *sys
			dense.G1S = nil
			sysPrep, densePrep := sys.Prepare(), dense.Prepare()
			rng := rand.New(rand.NewSource(int64(n)))
			x := make([]float64, n)
			u := make([]float64, sys.Inputs())
			got := make([]float64, n)
			want := make([]float64, n)
			for trial := 0; trial < 4; trial++ {
				for i := range x {
					switch rng.Intn(4) {
					case 0:
						x[i] = 0
					case 1:
						x[i] = math.Copysign(0, -1)
					default:
						x[i] = 2*rng.Float64() - 1
					}
				}
				for i := range u {
					u[i] = float64(trial%2) * (2*rng.Float64() - 1)
				}
				sysPrep.Eval(got, x, u)
				densePrep.Eval(want, x, u)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("trial %d: Eval[%d] = %v through G1S, %v through G1", trial, i, got[i], want[i])
					}
				}
			}
		})
	}
}
