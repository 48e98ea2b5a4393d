// Package netlist parses a small SPICE-like circuit description and
// assembles it into the QLDAE form of package qldae, performing the
// quadratic-linearization of exponential diodes automatically (the
// QLMOR-style substitution z = e^{v/vt} − 1 that turns Eq. (1)'s strong
// nonlinearities into the quadratic-linear format).
//
// Supported cards (one per line, '*' or ';' starts a comment, ".end"
// optional):
//
//	R<name> a b value          linear resistor
//	C<name> a b value          capacitor (every non-ground node needs
//	                           capacitance to ground for a regular C)
//	L<name> a b value          inductor (adds a branch-current state)
//	G<name> a b g gamma        polynomial conductance i = g·w + gamma·w²
//	D<name> a b is vt          diode i = is·(e^{w/vt} − 1) (adds one
//	                           auxiliary state; linearized exactly)
//	I<name> a b IN<k> scale    current source driven by input channel k;
//	                           the channels in use must be IN0…IN(m−1)
//	.out node                  output = voltage of node (repeatable)
//
// Node "0" (or "gnd") is ground. Ideal voltage sources are not supported:
// model them as Norton equivalents (current source ∥ resistor), which is
// also what keeps the descriptor matrix regular (paper §2's trimmed form).
package netlist

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"avtmor/internal/mat"
	"avtmor/internal/qldae"
	"avtmor/internal/sparse"
)

// Circuit is the parsed intermediate representation.
type Circuit struct {
	Nodes     []string // non-ground nodes in first-appearance order
	nodeIdx   map[string]int
	Resistors []twoTerminal
	Caps      []twoTerminal
	Inductors []twoTerminal
	Quads     []quadCond
	Diodes    []diode
	Sources   []source
	Outputs   []string
}

type twoTerminal struct {
	name string
	a, b int // node indices, -1 = ground
	val  float64
}

type quadCond struct {
	name   string
	a, b   int
	g, gam float64
}

type diode struct {
	name   string
	a, b   int
	is, vt float64
}

type source struct {
	name  string
	a, b  int // current flows from a to b through the source (into b)
	input int
	scale float64
}

// UndrivenChannelError reports an input channel that no I card drives
// while a higher channel is driven. The system has one input per
// channel up to the highest, so the channels in use must be
// IN0…IN(m−1): a gap would be an input that changes nothing, and a lone
// IN50000000 would size B for fifty million inputs.
type UndrivenChannelError struct {
	Channel int // the lowest undriven channel
	Highest int // the highest driven channel
}

func (e *UndrivenChannelError) Error() string {
	return fmt.Sprintf("netlist: input channel IN%d is driven by no I card, but IN%d is (use channels IN0…IN(m−1))", e.Channel, e.Highest)
}

// Parse reads a netlist.
func Parse(r io.Reader) (*Circuit, error) {
	c := &Circuit{nodeIdx: map[string]int{}}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '*' || line[0] == ';' {
			continue
		}
		if strings.EqualFold(line, ".end") {
			break
		}
		fields := strings.Fields(line)
		card := strings.ToUpper(fields[0])
		fail := func(msg string) error {
			return fmt.Errorf("netlist: line %d (%s): %s", lineNo, fields[0], msg)
		}
		if card == ".OUT" {
			if len(fields) != 2 {
				return nil, fail("usage: .out node")
			}
			c.Outputs = append(c.Outputs, fields[1])
			continue
		}
		if len(fields) < 4 {
			return nil, fail("too few fields")
		}
		a := c.node(fields[1])
		b := c.node(fields[2])
		switch card[0] {
		case 'R', 'C', 'L':
			v, err := strconv.ParseFloat(fields[3], 64)
			if err != nil || v <= 0 {
				return nil, fail("bad positive value")
			}
			t := twoTerminal{name: fields[0], a: a, b: b, val: v}
			switch card[0] {
			case 'R':
				c.Resistors = append(c.Resistors, t)
			case 'C':
				c.Caps = append(c.Caps, t)
			case 'L':
				c.Inductors = append(c.Inductors, t)
			}
		case 'G':
			if len(fields) != 5 {
				return nil, fail("usage: G a b g gamma")
			}
			g, err1 := strconv.ParseFloat(fields[3], 64)
			gam, err2 := strconv.ParseFloat(fields[4], 64)
			if err1 != nil || err2 != nil {
				return nil, fail("bad coefficients")
			}
			c.Quads = append(c.Quads, quadCond{name: fields[0], a: a, b: b, g: g, gam: gam})
		case 'D':
			if len(fields) != 5 {
				return nil, fail("usage: D a b is vt")
			}
			is, err1 := strconv.ParseFloat(fields[3], 64)
			vt, err2 := strconv.ParseFloat(fields[4], 64)
			if err1 != nil || err2 != nil || vt == 0 {
				return nil, fail("bad diode parameters")
			}
			c.Diodes = append(c.Diodes, diode{name: fields[0], a: a, b: b, is: is, vt: vt})
		case 'I':
			if len(fields) != 5 {
				return nil, fail("usage: I a b IN<k> scale")
			}
			in := strings.ToUpper(fields[3])
			if !strings.HasPrefix(in, "IN") {
				return nil, fail("source must reference an input channel IN<k>")
			}
			k, err := strconv.Atoi(in[2:])
			if err != nil || k < 0 {
				return nil, fail("bad input channel")
			}
			scale, err := strconv.ParseFloat(fields[4], 64)
			if err != nil {
				return nil, fail("bad scale")
			}
			c.Sources = append(c.Sources, source{name: fields[0], a: a, b: b, input: k, scale: scale})
		default:
			return nil, fail("unknown card type")
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(c.Nodes) == 0 {
		return nil, fmt.Errorf("netlist: no nodes")
	}
	if err := c.checkChannels(); err != nil {
		return nil, err
	}
	return c, nil
}

// checkChannels enforces that the driven channels are exactly
// IN0…IN(m−1), in time and memory linear in the number of I cards.
func (c *Circuit) checkChannels() error {
	chans := make([]int, 0, len(c.Sources))
	for _, s := range c.Sources {
		chans = append(chans, s.input)
	}
	sort.Ints(chans)
	next := 0
	for _, k := range chans {
		if k > next {
			return &UndrivenChannelError{Channel: next, Highest: chans[len(chans)-1]}
		}
		if k == next {
			next++
		}
	}
	return nil
}

// node interns a node name; ground returns -1.
func (c *Circuit) node(name string) int {
	l := strings.ToLower(name)
	if l == "0" || l == "gnd" {
		return -1
	}
	if i, ok := c.nodeIdx[l]; ok {
		return i
	}
	i := len(c.Nodes)
	c.nodeIdx[l] = i
	c.Nodes = append(c.Nodes, l)
	return i
}

// NodeIndex returns the state index of a node name (for custom outputs).
func (c *Circuit) NodeIndex(name string) (int, error) {
	l := strings.ToLower(name)
	i, ok := c.nodeIdx[l]
	if !ok {
		return 0, fmt.Errorf("netlist: unknown node %q", name)
	}
	return i, nil
}

// Build assembles the QLDAE. State layout: node voltages, inductor branch
// currents, then one auxiliary z-state per diode. Requires every node to
// carry capacitance to ground (checked) so the descriptor is regular.
func (c *Circuit) Build() (*qldae.System, error) {
	nv := len(c.Nodes)
	nl := len(c.Inductors)
	nd := len(c.Diodes)
	n := nv + nl + nd
	// Node capacitances.
	capAt := make([]float64, nv)
	for _, cc := range c.Caps {
		switch {
		case cc.a >= 0 && cc.b < 0:
			capAt[cc.a] += cc.val
		case cc.b >= 0 && cc.a < 0:
			capAt[cc.b] += cc.val
		default:
			return nil, fmt.Errorf("netlist: %s: floating capacitors are not supported; connect one end to ground", cc.name)
		}
	}
	for i, v := range capAt {
		if v <= 0 {
			return nil, fmt.Errorf("netlist: node %q has no grounded capacitance (singular descriptor)", c.Nodes[i])
		}
	}
	// Input count.
	m := 0
	for _, s := range c.Sources {
		if s.input+1 > m {
			m = s.input + 1
		}
	}
	if m == 0 {
		return nil, fmt.Errorf("netlist: no inputs (add an I card)")
	}

	// Linear node equations: capAt[i]·v̇_i = Σ currents into node i.
	// Assemble as rows over the full state plus input columns, then scale
	// by 1/C. av holds ∂v̇/∂state; bv per input.
	av := mat.NewDense(nv, n)
	bv := mat.NewDense(nv, m)
	stampG := func(a, b int, g float64) {
		// Conductance g between a and b (−1 = ground).
		if a >= 0 {
			av.Add(a, a, -g)
			if b >= 0 {
				av.Add(a, b, g)
			}
		}
		if b >= 0 {
			av.Add(b, b, -g)
			if a >= 0 {
				av.Add(b, a, g)
			}
		}
	}
	for _, r := range c.Resistors {
		stampG(r.a, r.b, 1/r.val)
	}
	for _, q := range c.Quads {
		stampG(q.a, q.b, q.g)
	}
	for _, d := range c.Diodes {
		// Small-signal part of the exact substitution lives in the z
		// column (i = is·z), so no conductance stamp here.
		_ = d
	}
	// Inductor branch currents: state index nv+k; L·i̇ = v_a − v_b and the
	// current leaves node a, enters node b.
	for k, l := range c.Inductors {
		st := nv + k
		if l.a >= 0 {
			av.Add(l.a, st, -1)
		}
		if l.b >= 0 {
			av.Add(l.b, st, 1)
		}
	}
	// Diode currents i = is·z from a to b (z is state nv+nl+k).
	for k, d := range c.Diodes {
		st := nv + nl + k
		if d.a >= 0 {
			av.Add(d.a, st, -d.is)
		}
		if d.b >= 0 {
			av.Add(d.b, st, d.is)
		}
	}
	// Sources: current from a to b means +scale·u into b, −scale·u into a.
	for _, s := range c.Sources {
		if s.a >= 0 {
			bv.Add(s.a, s.input, -s.scale)
		}
		if s.b >= 0 {
			bv.Add(s.b, s.input, s.scale)
		}
	}
	// Scale node rows by 1/C.
	for i := 0; i < nv; i++ {
		inv := 1 / capAt[i]
		mat.ScaleVec(inv, av.Row(i))
		mat.ScaleVec(inv, bv.Row(i))
	}

	g1 := mat.NewDense(n, n)
	b := mat.NewDense(n, m)
	for i := 0; i < nv; i++ {
		copy(g1.Row(i), av.Row(i))
		copy(b.Row(i), bv.Row(i))
	}
	// Inductor rows: i̇ = (v_a − v_b)/L.
	for k, l := range c.Inductors {
		st := nv + k
		if l.a >= 0 {
			g1.Add(st, l.a, 1/l.val)
		}
		if l.b >= 0 {
			g1.Add(st, l.b, -1/l.val)
		}
	}

	g2b := sparse.NewBuilder(n, n*n)
	var d1 []*mat.Dense
	// Quadratic conductances: branch current g·w + gam·w², w = v_a − v_b,
	// leaves a, enters b; the γ·w² part expands into G2 monomials.
	for _, q := range c.Quads {
		if q.gam == 0 {
			continue
		}
		mono := quadMonomials(q.a, q.b)
		for _, mn := range mono {
			if q.a >= 0 {
				g2b.Add(q.a, mn.p*n+mn.q, -q.gam*mn.c/capAt[q.a])
			}
			if q.b >= 0 {
				g2b.Add(q.b, mn.p*n+mn.q, q.gam*mn.c/capAt[q.b])
			}
		}
	}
	// Diode auxiliary states: ż = (1/vt)·(1+z)·ẇ with ẇ = v̇_a − v̇_b, so
	// ż = (1/vt)·ẇ (linear + input parts) + (1/vt)·z·ẇ (G2 and D1 parts).
	for k, d := range c.Diodes {
		st := nv + nl + k
		wRow := make([]float64, n)
		wIn := make([]float64, m)
		if d.a >= 0 {
			mat.Axpy(1, av.Row(d.a), wRow)
			mat.Axpy(1, bv.Row(d.a), wIn)
		}
		if d.b >= 0 {
			mat.Axpy(-1, av.Row(d.b), wRow)
			mat.Axpy(-1, bv.Row(d.b), wIn)
		}
		inv := 1 / d.vt
		for j, cv := range wRow {
			if cv == 0 {
				continue
			}
			g1.Add(st, j, inv*cv)
			g2b.Add(st, st*n+j, inv*cv)
		}
		for j, cv := range wIn {
			if cv == 0 {
				continue
			}
			b.Add(st, j, inv*cv)
			if d1 == nil {
				d1 = make([]*mat.Dense, m)
			}
			if d1[j] == nil {
				d1[j] = mat.NewDense(n, n)
			}
			d1[j].Add(st, st, inv*cv)
		}
	}

	// Outputs.
	outs := c.Outputs
	if len(outs) == 0 {
		outs = []string{c.Nodes[0]}
	}
	l := mat.NewDense(len(outs), n)
	for r, name := range outs {
		idx, err := c.NodeIndex(name)
		if err != nil {
			return nil, err
		}
		l.Set(r, idx, 1)
	}
	// The CSR mirror of G1 lets the solver layer route large parsed
	// circuits through the sparse LU; small ones still factor densely.
	sys := &qldae.System{N: n, G1: g1, G1S: sparse.FromDense(g1), G2: g2b.Build(), D1: d1, B: b, L: l}
	if sys.G2.NNZ() == 0 {
		sys.G2 = nil
	}
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	return sys, nil
}

type monomial struct {
	p, q int
	c    float64
}

// quadMonomials expands (v_a − v_b)² into state monomials (ground = 0).
func quadMonomials(a, b int) []monomial {
	var out []monomial
	if a >= 0 {
		out = append(out, monomial{a, a, 1})
	}
	if b >= 0 {
		out = append(out, monomial{b, b, 1})
	}
	if a >= 0 && b >= 0 {
		out = append(out, monomial{a, b, -2})
	}
	return out
}

// Summary returns a human-readable inventory for diagnostics.
func (c *Circuit) Summary() string {
	names := make([]string, len(c.Nodes))
	copy(names, c.Nodes)
	sort.Strings(names)
	return fmt.Sprintf("nodes=%d R=%d C=%d L=%d G=%d D=%d I=%d outputs=%v",
		len(c.Nodes), len(c.Resistors), len(c.Caps), len(c.Inductors),
		len(c.Quads), len(c.Diodes), len(c.Sources), c.Outputs)
}
