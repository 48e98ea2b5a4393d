// Package circuits builds the QLDAE workloads of the paper's §3:
//
//   - NTLVoltage — §3.1/Fig. 2: nonlinear RC-diode transmission line with a
//     voltage source behind a series resistor; the exp-diode I–V
//     iD = e^{40·vD}−1 is quadratic-linearized exactly with one auxiliary
//     state per diode, producing a QLDAE with a nonzero D1 term.
//   - NTLCurrent — §3.2/Fig. 3: current-driven line with polynomial
//     (quadratic) shunt conductances; directly quadratic, D1 = 0 exactly.
//   - RFReceiver — §3.3/Fig. 4: a synthetic two-input receiver chain (RLC
//     ladder with quadratic gain-compression stages), 173 states.
//   - Varistor — §3.4/Fig. 5: ZnO varistor surge protector, cubic I–V,
//     102 states, driven by a 9.8 kV double-exponential surge.
//
// DESIGN.md §4 records how each maps onto the paper's (incompletely
// specified) testbench circuits.
package circuits

import (
	"math"

	"avtmor/internal/mat"
	"avtmor/internal/ode"
	"avtmor/internal/qldae"
	"avtmor/internal/sparse"
)

// Workload bundles a system with its experiment stimulus.
type Workload struct {
	Name string
	Sys  *qldae.System
	// U is the experiment input; TEnd the simulated window ("ns" in the
	// paper's axes; dimensionless R=C=1 units here).
	U    ode.Input
	TEnd float64
	// Steps is the reference fixed-step count for the full model.
	Steps int
	// Stiff selects the trapezoidal integrator for the experiment.
	Stiff bool
	// S0 is the recommended moment-expansion point. The exactly
	// quadratic-linearized line has a structurally singular G1 (the
	// auxiliary-state manifold directions are linearly neutral), so its
	// moments must be expanded off DC — the paper's §4 "non-DC expansion"
	// remark; the other workloads use s0 = 0.
	S0 float64
	// OutputName labels the observed quantity.
	OutputName string
}

// NTLVoltage builds the §3.1 line with the given number of stages
// (states = 2·stages: node voltages + diode states). Diode 0 connects
// node 0 to ground; diode k (k ≥ 1) connects node k−1 to node k. The
// voltage source drives node 0 through a unit resistor; R = C = 1,
// iD = e^{40·vD} − 1.
func NTLVoltage(stages int) *Workload {
	nV := stages
	n := 2 * nV
	// Linear part of the node equations over the full state [v; ẑ]
	// (ẑ = e^{40w} − 1 so the rest point is the origin).
	av := mat.NewDense(nV, n) // v̇ = av·x + bv·u
	bv := make([]float64, nV)
	zi := func(k int) int { return nV + k }
	// Node 0: u − 2v0 + v1 − ẑ0 − ẑ1.
	av.Add(0, 0, -2)
	if nV > 1 {
		av.Add(0, 1, 1)
		av.Add(0, zi(1), -1)
	}
	av.Add(0, zi(0), -1)
	bv[0] = 1
	// Interior nodes.
	for k := 1; k < nV-1; k++ {
		av.Add(k, k-1, 1)
		av.Add(k, k, -2)
		av.Add(k, k+1, 1)
		av.Add(k, zi(k), 1)
		av.Add(k, zi(k+1), -1)
	}
	// Last node (unit load resistor to ground).
	if nV > 1 {
		k := nV - 1
		av.Add(k, k-1, 1)
		av.Add(k, k, -2)
		av.Add(k, zi(k), 1)
	}
	// Junction voltage rates r_k = ẇ_k as rows over the state.
	// w_0 = v_0, w_k = v_{k−1} − v_k.
	rRow := func(k int) ([]float64, float64) {
		row := make([]float64, n)
		var bu float64
		if k == 0 {
			copy(row, av.Row(0))
			bu = bv[0]
			return row, bu
		}
		copy(row, av.Row(k-1))
		bu = bv[k-1]
		for j, v := range av.Row(k) {
			row[j] -= v
		}
		bu -= bv[k]
		return row, bu
	}
	g1 := mat.NewDense(n, n)
	for k := 0; k < nV; k++ {
		copy(g1.Row(k), av.Row(k))
	}
	g2b := sparse.NewBuilder(n, n*n)
	d1 := mat.NewDense(n, n)
	b := mat.NewDense(n, 1)
	for k := 0; k < nV; k++ {
		b.Set(k, 0, bv[k])
	}
	const slope = 40.0
	for k := 0; k < nV; k++ {
		row, bu := rRow(k)
		zr := zi(k)
		// ẑ̇_k = 40·r_k + 40·ẑ_k·r_k (+ bilinear input term).
		for j, c := range row {
			if c == 0 {
				continue
			}
			g1.Add(zr, j, slope*c)
			g2b.Add(zr, zr*n+j, slope*c)
		}
		if bu != 0 {
			b.Add(zr, 0, slope*bu)
			d1.Add(zr, zr, slope*bu)
		}
	}
	l := mat.NewDense(1, n)
	l.Set(0, 0, 1) // observe node-0 voltage
	sys := &qldae.System{
		N:   n,
		G1:  g1,
		G1S: sparse.FromDense(g1),
		G2:  g2b.Build(),
		D1:  []*mat.Dense{d1},
		B:   b,
		L:   l,
	}
	return &Workload{
		Name: "ntl-voltage",
		Sys:  sys,
		S0:   0.5,
		U: func(t float64) []float64 {
			return []float64{0.12 * math.Sin(2*math.Pi*t/10) * math.Exp(-t/20)}
		},
		TEnd:       30,
		Steps:      6000,
		OutputName: "node-0 voltage (V)",
	}
}

// NTLCurrent builds the §3.2 current-driven line with n nodes. Each node
// carries a unit capacitor, unit series resistors, and a polynomial shunt
// conductance i = g·v + γ·v²; the source current enters node 0. The QLDAE
// has exactly D1 = 0 and no auxiliary states.
func NTLCurrent(n int) *Workload {
	// Taylor expansion of the paper's diode iD = e^{40·vD} − 1 around the
	// origin: iD ≈ 40·w + 800·w², carried by every junction branch (in
	// parallel with the unit resistor) and by the ground branch at the
	// driven node. The strong slope spreads the spectrum of G1 the way the
	// exponential diodes do in the paper's testbench.
	const (
		gd    = 40.0
		gamma = 800.0
	)
	g1 := mat.NewDense(n, n)
	g2b := sparse.NewBuilder(n, n*n)
	// Junction nonlinearities mirror the paper's inter-node diodes: the
	// branch between node k and k+1 carries i = g·w + γ·w², w = v_k−v_{k+1},
	// and node 0 additionally has a ground branch (the "ground diode").
	// Expanding γ·w² produces off-diagonal G2 entries — the coupling that
	// differentiates NORM's multivariate moment space from the associated
	// one.
	addQuad := func(row int, sign float64, p, q int, coef float64) {
		g2b.Add(row, p*n+q, sign*coef)
	}
	for k := 0; k < n; k++ {
		diag := 0.0
		if k > 0 {
			g1.Add(k, k-1, 1+gd)
			diag -= 1 + gd
		}
		if k < n-1 {
			g1.Add(k, k+1, 1+gd)
			diag -= 1 + gd
		} else {
			diag -= 1 // load resistor at the far end
		}
		g1.Add(k, k, diag)
	}
	// Ground diode branch at the driven node.
	g1.Add(0, 0, -gd)
	addQuad(0, -1, 0, 0, gamma)
	// Junction quadratics: branch k→k+1 with w = v_k − v_{k+1} removes
	// γ·w² from node k and injects it into node k+1.
	for k := 0; k < n-1; k++ {
		for _, t := range []struct {
			p, q int
			c    float64
		}{{k, k, gamma}, {k, k + 1, -2 * gamma}, {k + 1, k + 1, gamma}} {
			addQuad(k, -1, t.p, t.q, t.c)
			addQuad(k+1, 1, t.p, t.q, t.c)
		}
	}
	b := mat.NewDense(n, 1)
	b.Set(0, 0, 1)
	l := mat.NewDense(1, n)
	l.Set(0, 0, 1)
	sys := &qldae.System{N: n, G1: g1, G1S: sparse.FromDense(g1), G2: g2b.Build(), B: b, L: l}
	return &Workload{
		Name: "ntl-current",
		Sys:  sys,
		U: func(t float64) []float64 {
			return []float64{0.25 * math.Sin(2*math.Pi*t/8) * math.Exp(-t/25)}
		},
		TEnd:  30,
		Steps: 3000,
		// Circuit-simulator style implicit integration: the full model
		// pays a dense Newton/LU per step — the cost the ROM removes
		// (Table 1's "ODE solve" column).
		Stiff:      true,
		OutputName: "node-0 voltage (V)",
	}
}

// RFReceiver builds the §3.3 two-input receiver chain with 173 MNA
// unknowns: a 13-node RC cascade as the main signal path (LNA → mixer →
// PA, with quadratic gain-compression conductances at the amplifier
// outputs), four damped LC bias tanks (8 states, giving G1 genuine
// complex eigenvalue pairs, which exercise the 2×2 Schur-block solver
// paths at experiment scale), and twelve RC parasitic trees (152 states)
// — the bulk that makes the full model large and a ~14-state ROM
// sufficient. Input 0 is the antenna signal at the front node; input 1 is
// interference coupled into the mixer node.
func RFReceiver() *Workload {
	const (
		mainNodes = 13
		gSer      = 2.0  // main-path series conductance (R = 0.5)
		cNode     = 0.5  // main-path node capacitance
		gShunt    = 0.1  // main-path shunt loss
		gamma     = 0.25 // gain-compression curvature
		rPar      = 5.0  // parasitic coupling resistance
		cPar      = 0.5
		gLeak     = 0.3 // bias leak on every parasitic node
	)
	n := 173
	g1 := mat.NewDense(n, n)
	g2b := sparse.NewBuilder(n, n*n)
	// Main RC cascade: nodes 0..12.
	for k := 0; k < mainNodes; k++ {
		diag := -gShunt / cNode
		if k > 0 {
			g1.Add(k, k-1, gSer/cNode)
			diag -= gSer / cNode
		}
		if k < mainNodes-1 {
			g1.Add(k, k+1, gSer/cNode)
			diag -= gSer / cNode
		} else {
			diag -= gSer / cNode // output load
		}
		g1.Add(k, k, diag)
		if k == 2 || k == 4 || k == 6 || k == 8 || k == 10 {
			// Gain-compression conductances along the amplifier chain
			// (LNA, mixer, PA stages).
			g2b.Add(k, k*n+k, -gamma/cNode)
		}
	}
	next := mainNodes
	// Four damped series-RLC bias tanks on nodes 2, 5, 8, 11:
	// İ = (v_m − i − v_t)/1, v̇_t = i  (L = C = R = 1, ζ = 0.5).
	for _, m := range []int{2, 5, 8, 11} {
		iSt, vSt := next, next+1
		next += 2
		g1.Add(iSt, m, 1)
		g1.Add(iSt, iSt, -1)
		g1.Add(iSt, vSt, -1)
		g1.Add(vSt, iSt, 1)
		g1.Add(m, iSt, -1/cNode)
	}
	// Twelve parasitic RC trees on nodes 1..12: 152 states.
	perTree := (n - next) / 12
	extra := (n - next) % 12
	for j := 1; j <= 12; j++ {
		length := perTree
		if j <= extra {
			length++
		}
		prev := j
		for s := 0; s < length; s++ {
			w := next
			next++
			g1.Add(w, prev, 1/(rPar*cPar))
			g1.Add(w, w, -(1/rPar+gLeak)/cPar)
			upC := cPar
			if prev == j {
				upC = cNode
			}
			g1.Add(prev, w, 1/(rPar*upC))
			g1.Add(prev, prev, -1/(rPar*upC))
			prev = w
		}
	}
	if next != n {
		panic("circuits: RFReceiver state count mismatch")
	}
	b := mat.NewDense(n, 2)
	b.Set(0, 0, 1/cNode)   // antenna signal
	b.Set(6, 1, 0.5/cNode) // interference into the mixer node
	l := mat.NewDense(1, n)
	l.Set(0, mainNodes-1, 1)
	sys := &qldae.System{N: n, G1: g1, G1S: sparse.FromDense(g1), G2: g2b.Build(), B: b, L: l}
	return &Workload{
		Name: "rf-receiver",
		Sys:  sys,
		U: func(t float64) []float64 {
			return []float64{
				0.3 * math.Sin(2*math.Pi*t/12) * (1 - math.Exp(-t/3)),
				0.08 * math.Sin(2*math.Pi*t/5.1+1),
			}
		},
		TEnd:       24,
		Steps:      2500,
		Stiff:      true,
		OutputName: "output-node voltage (V)",
	}
}

// Varistor builds the §3.4 ZnO surge protector: source → Ri → L1/R1 →
// clamp node (C1 ∥ varistor) → L2/R2 → smoothing node (C2) → RC ladder
// modelling the protected consumer circuits. The varistor I–V is the odd
// cubic i = g1·v + g3·v³ (voltages in kV), sized to clamp the 9.8 kV surge
// near UB = 0.2 kV. States: [i1, v1, i2, v2, w_0..w_97] = 102.
func Varistor() *Workload {
	const (
		ladder = 98
		ri     = 0.5
		l1     = 0.5
		r1     = 0.1
		c1     = 1.0
		l2     = 0.5
		r2     = 0.1
		c2     = 1.0
		rl     = 0.5
		cl     = 0.2
		gv1    = 0.05
		gv3    = 2000.0
	)
	n := 4 + ladder
	g1 := mat.NewDense(n, n)
	// i̇1 = (u − (ri+r1)·i1 − v1)/l1.
	g1.Add(0, 0, -(ri+r1)/l1)
	g1.Add(0, 1, -1/l1)
	// v̇1 = (i1 − i2 − gv1·v1 − gv3·v1³)/c1.
	g1.Add(1, 0, 1/c1)
	g1.Add(1, 2, -1/c1)
	g1.Add(1, 1, -gv1/c1)
	// i̇2 = (v1 − v2 − r2·i2)/l2.
	g1.Add(2, 1, 1/l2)
	g1.Add(2, 3, -1/l2)
	g1.Add(2, 2, -r2/l2)
	// v̇2 = (i2 − (v2 − w0)/rl)/c2.
	g1.Add(3, 2, 1/c2)
	g1.Add(3, 3, -1/(rl*c2))
	g1.Add(3, 4, 1/(rl*c2))
	// Ladder nodes w_j (state 4+j).
	for j := 0; j < ladder; j++ {
		s := 4 + j
		left := s - 1 // v2 for j = 0
		g1.Add(s, left, 1/(rl*cl))
		g1.Add(s, s, -1/(rl*cl))
		if j < ladder-1 {
			g1.Add(s, s, -1/(rl*cl))
			g1.Add(s, s+1, 1/(rl*cl))
		} else {
			g1.Add(s, s, -1/(rl*cl)) // terminating resistor
		}
	}
	g3b := sparse.NewBuilder(n, n*n*n)
	g3b.Add(1, (1*n+1)*n+1, -gv3/c1)
	b := mat.NewDense(n, 1)
	b.Set(0, 0, 1/l1)
	l := mat.NewDense(1, n)
	l.Set(0, 3, 1) // protected-side voltage v2
	sys := &qldae.System{N: n, G1: g1, G1S: sparse.FromDense(g1), G3: g3b.Build(), B: b, L: l}
	return &Workload{
		Name: "varistor",
		Sys:  sys,
		// The 1.2/50-style surge concentrates its energy around
		// s ≈ 1/τ_rise…1/τ_decay; expanding the moments at s0 = 0.3
		// (inside that band) instead of DC cuts the ROM transient error
		// by an order of magnitude at equal order.
		S0: 0.3,
		U: func(t float64) []float64 {
			// 9.8 kV double-exponential surge (rise τ 0.3, decay τ 8).
			return []float64{9.8 * 1.12 * (math.Exp(-t/8) - math.Exp(-t/0.3))}
		},
		TEnd:       30,
		Steps:      4000,
		Stiff:      true,
		OutputName: "protected-side voltage (kV)",
	}
}

// RLCLine builds a linear RLC transmission line with the given number
// of sections — the classic interconnect/power-grid workload that
// motivates the sparse-direct spine (ROADMAP: thousands of nodes).
// Section k carries a node with unit capacitance and a small shunt
// loss, joined to the next node by a series R–L branch; the far end is
// resistively loaded. States: sections node voltages followed by
// sections−1 inductor branch currents (n = 2·sections − 1, G1 has ≈ 2.5
// nonzeros per row). The line is linear (G2 = G3 = D1 = nil), so
// Reduce matches H1 moments only — the path where the sparse LU turns
// the "one LU of G1" of §2.3 from O(n³) into O(n).
func RLCLine(sections int) *Workload {
	const (
		rSer  = 0.1  // series resistance per section
		lSer  = 1.0  // series inductance
		cNode = 1.0  // node capacitance
		gSh   = 0.02 // shunt loss keeps G1 invertible at DC
		gLoad = 1.0  // far-end load
	)
	if sections < 2 {
		panic("circuits: RLCLine needs at least 2 sections")
	}
	m := sections
	n := 2*m - 1
	ib := func(k int) int { return m + k } // branch k joins node k → k+1
	g1b := sparse.NewBuilder(n, n)
	for k := 0; k < m; k++ {
		diag := -gSh
		if k == m-1 {
			diag -= gLoad
		}
		g1b.Add(k, k, diag/cNode)
		if k > 0 {
			g1b.Add(k, ib(k-1), 1/cNode)
		}
		if k < m-1 {
			g1b.Add(k, ib(k), -1/cNode)
		}
	}
	for k := 0; k < m-1; k++ {
		g1b.Add(ib(k), k, 1/lSer)
		g1b.Add(ib(k), k+1, -1/lSer)
		g1b.Add(ib(k), ib(k), -rSer/lSer)
	}
	g1s := g1b.Build()
	b := mat.NewDense(n, 1)
	b.Set(0, 0, 1/cNode) // current source into the driven node
	l := mat.NewDense(1, n)
	l.Set(0, m-1, 1) // observe the far-end voltage
	sys := &qldae.System{N: n, G1S: g1s, B: b, L: l}
	if n <= qldae.DenseMirrorLimit {
		sys.G1 = g1s.Dense()
	}
	return &Workload{
		Name: "rlc-line",
		Sys:  sys,
		U: func(t float64) []float64 {
			return []float64{0.5 * math.Sin(2*math.Pi*t/15) * (1 - math.Exp(-t/4))}
		},
		TEnd:       40,
		Steps:      4000,
		Stiff:      true,
		OutputName: "far-end voltage (V)",
	}
}
