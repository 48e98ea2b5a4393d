package avtmor_test

import (
	"bufio"
	"bytes"
	"strings"
	"testing"

	"avtmor"
)

// netlistSeeds are the netlists of the examples and the tests, plus the
// hostile channel cards the parser refuses.
var netlistSeeds = []string{
	// examples/netlist
	`
* four-stage RC chain with diode clippers (exp diodes, auto-linearized)
I1 0 n1 IN0 1.0
C1 n1 0 1.0
R1 n1 0 2.0
D1 n1 0 1.0 0.05
R12 n1 n2 1.0
C2 n2 0 1.0
D2 n2 0 1.0 0.05
R23 n2 n3 1.0
C3 n3 0 1.0
D3 n3 0 1.0 0.05
R34 n3 n4 1.0
C4 n4 0 1.0
R4 n4 0 2.0
.out n4
.end
`,
	// the facade, serve and client tests' clipper
	"I1 0 n1 IN0 1.0\nC1 n1 0 1.0\nR1 n1 0 2.0\nD1 n1 0 1.0 0.05\nR12 n1 n2 1.0\nC2 n2 0 1.0\nR2 n2 0 2.0\n.out n2\n",
	// internal/netlist tests
	"* two-node RC line driven by a current source\nI1 0 n1 IN0 1.0\nR1 n1 n2 1.0\nC1 n1 0 1.0\nC2 n2 0 1.0\nR2 n2 0 2.0\n.out n2\n.end\n",
	"I1 0 n1 IN0 1.0\nC1 n1 0 1.0\nR1 n1 0 1.0\nD1 n1 0 1.0 0.025\n.out n1\n",
	"I1 0 n1 IN0 1.0\nC1 n1 0 1.0\nL1 n1 n2 0.5\nC2 n2 0 1.0\nR1 n2 0 1.0\n.out n2\n",
	"G1 a b 1\nI1 0 a IN0 1\n",
	"I1 0 n1 IN0 1\nC1 n1 n2 1\n",
	// a quadratic conductance and ground spelled out
	"I1 gnd a in0 2\nC1 a gnd 1\nG1 a 0 0.5 0.1\nRS a b 1\nC2 b 0 0.5\nGB a b 0.2 -0.05\n.out b\n",
	// avtmorbench's diode ladder and two-port RLC network
	"* diode ladder 0, 2 stages\nI1 0 n1 IN0 1\nC1 n1 0 1.03\nR1 n1 0 0.91\nD1 n1 0 0.052 0.5\nRS1 n1 n2 1.1\nC2 n2 0 0.97\nR2 n2 0 1.000001\nD2 n2 0 0.047 0.5\n.out n1\n",
	"* seeded 2-port RLC network, 2 sections\nI0 0 n1 IN0 1\nI1 0 n2 IN1 1\nC1 n1 0 1.02\nRG1 n1 0 4.9\nR1 n1 m1 0.51\nCM1 m1 0 0.098\nL1 m1 n2 1.03\nC2 n2 0 0.99\nRG2 n2 0 5.1\n.out n1\n.out n2\n",
	// refused: a lone high channel, a gap, a channel past int range
	"* t\nI0 0 n1 IN50000000 1\nC1 n1 0 1\nR1 n1 0 2\n.out n1\n",
	"I1 0 n1 IN0 1\nI2 0 n1 IN2 1\nC1 n1 0 1\nR1 n1 0 1\n",
	"I1 0 n1 IN99999999999999999999 1\nC1 n1 0 1\n",
}

// iCards counts the I cards Parse reads: the non-comment lines before
// .end whose card name starts with I.
func iCards(text string) int {
	n := 0
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '*' || line[0] == ';' {
			continue
		}
		if strings.EqualFold(line, ".end") {
			break
		}
		if line[0] == 'I' || line[0] == 'i' {
			n++
		}
	}
	return n
}

// FuzzParseNetlist feeds arbitrary text to the netlist parser, which
// POST /v1/reduce exposes to any client. It must never panic. A netlist
// it accepts has at most one input per I card, and its System survives
// a WriteTo/ReadSystem round trip with the same Fingerprint.
func FuzzParseNetlist(f *testing.F) {
	for _, s := range netlistSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		// Build keeps a dense n×n G1 (an open item), so the input is
		// capped to keep n, and the fuzzer's memory, small.
		if len(text) > 4096 {
			t.Skip()
		}
		sys, err := avtmor.ParseNetlist(strings.NewReader(text))
		if err != nil {
			return
		}
		if cards := iCards(text); sys.Inputs() > cards {
			t.Fatalf("%d inputs from %d I cards", sys.Inputs(), cards)
		}
		var buf bytes.Buffer
		if _, err := sys.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := avtmor.ReadSystem(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if back.Fingerprint() != sys.Fingerprint() {
			t.Fatalf("fingerprint %x after a round trip, %x before", back.Fingerprint(), sys.Fingerprint())
		}
	})
}
