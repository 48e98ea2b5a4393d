package avtmor

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sync"

	"avtmor/internal/mat"
	"avtmor/internal/netlist"
	"avtmor/internal/qldae"
	"avtmor/internal/sparse"
)

// System is a quadratic-linear differential-algebraic system
//
//	x' = G1·x + G2·(x⊗x) + G3·(x⊗x⊗x) + Σ_i D1_i·x·u_i + B·u,  y = L·x
//
// in the paper's trimmed form (2). Build one with NewSystemBuilder,
// ParseNetlist, or a workload constructor (NTLVoltage, RLCLine, …).
// A System is immutable once built: Reduce, Simulate, and the Reducer
// cache key (Fingerprint) all assume its matrices never change.
type System struct {
	sys  *qldae.System
	desc string

	fpOnce sync.Once
	fp     uint64
}

// States returns the state dimension n.
func (s *System) States() int { return s.sys.N }

// Inputs returns the input count m.
func (s *System) Inputs() int { return s.sys.Inputs() }

// Outputs returns the output count p.
func (s *System) Outputs() int { return s.sys.Outputs() }

// SparseOnly reports whether the system carries only the CSR form of
// G1 (the multi-thousand-state regime where no dense G1 is ever
// materialized and only K1/H1 reductions are available).
func (s *System) SparseOnly() bool { return s.sys.G1 == nil }

// Nonzeros returns the stored nonzero count of G1.
func (s *System) Nonzeros() int {
	if s.sys.G1S != nil {
		return s.sys.G1S.NNZ()
	}
	nnz := 0
	for _, v := range s.sys.G1.A {
		if v != 0 {
			nnz++
		}
	}
	return nnz
}

// HasQuadratic reports a nonzero G2 term.
func (s *System) HasQuadratic() bool { return s.sys.G2 != nil }

// HasCubic reports a nonzero G3 term.
func (s *System) HasCubic() bool { return s.sys.G3 != nil }

// HasBilinear reports a nonzero D1 (state×input) term.
func (s *System) HasBilinear() bool { return s.sys.D1 != nil }

// Description returns a short human-readable inventory (netlist
// systems carry the parsed card summary; built systems the dimensions).
func (s *System) Description() string {
	if s.desc != "" {
		return s.desc
	}
	return fmt.Sprintf("qldae: n=%d inputs=%d outputs=%d quad=%v cubic=%v bilinear=%v",
		s.States(), s.Inputs(), s.Outputs(), s.HasQuadratic(), s.HasCubic(), s.HasBilinear())
}

// Fingerprint returns a 64-bit FNV-1a digest of every matrix of the
// system (values, sparsity structure, and which representations are
// present). It is computed once and cached; together with the
// canonicalized reduction options it forms the Reducer cache key.
// Covering the representation set is deliberate: a dense-only and a
// CSR-mirrored copy of the same matrix can route to different solver
// backends and so may not produce bit-identical ROMs — such systems
// must not alias one cache entry. Two systems
// built the same way with the same values always hash equal.
func (s *System) Fingerprint() uint64 {
	s.fpOnce.Do(func() {
		h := fnv.New64a()
		var buf [8]byte
		w64 := func(v uint64) {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
		wf := func(v float64) { w64(math.Float64bits(v)) }
		wDense := func(tag string, d *mat.Dense) {
			io.WriteString(h, tag)
			if d == nil {
				w64(0)
				return
			}
			w64(uint64(d.R))
			w64(uint64(d.C))
			for _, v := range d.A {
				wf(v)
			}
		}
		wCSR := func(tag string, c *sparse.CSR) {
			io.WriteString(h, tag)
			if c == nil {
				w64(0)
				return
			}
			w64(uint64(c.Rows))
			w64(uint64(c.Cols))
			for _, p := range c.RowPtr {
				w64(uint64(p))
			}
			for _, j := range c.ColIdx {
				w64(uint64(j))
			}
			for _, v := range c.Val {
				wf(v)
			}
		}
		w64(uint64(s.sys.N))
		wDense("G1", s.sys.G1)
		wCSR("G1S", s.sys.G1S)
		wCSR("G2", s.sys.G2)
		wCSR("G3", s.sys.G3)
		io.WriteString(h, "D1")
		w64(uint64(len(s.sys.D1)))
		for _, d := range s.sys.D1 {
			wDense("d", d)
		}
		wDense("B", s.sys.B)
		wDense("L", s.sys.L)
		s.fp = h.Sum64()
	})
	return s.fp
}

// wrapSystem adopts an internal QLDAE (assumed validated).
func wrapSystem(sys *qldae.System, desc string) *System {
	return &System{sys: sys, desc: desc}
}

// ParseNetlist reads a SPICE-like circuit description (see the grammar
// in the README: R/C/L/G/D/I cards plus .out), quadratic-linearizes
// any exponential diodes, and assembles the QLDAE.
func ParseNetlist(r io.Reader) (*System, error) {
	ckt, err := netlist.Parse(r)
	if err != nil {
		return nil, err
	}
	sys, err := ckt.Build()
	if err != nil {
		return nil, err
	}
	return wrapSystem(sys, ckt.Summary()), nil
}

// SystemBuilder accumulates matrix entries for a System. Duplicate
// coordinates sum; out-of-range indices panic (they are programming
// errors, like slice bounds). Build validates the result.
type SystemBuilder struct {
	n, inputs, outputs int
	g1                 *sparse.Builder
	g2                 *sparse.Builder
	g3                 *sparse.Builder
	d1                 []*mat.Dense
	b                  *mat.Dense
	l                  *mat.Dense
}

// NewSystemBuilder starts a builder for an n-state system with the
// given input and output counts.
func NewSystemBuilder(states, inputs, outputs int) *SystemBuilder {
	if states < 1 || inputs < 1 || outputs < 1 {
		panic("avtmor: SystemBuilder needs at least one state, input, and output")
	}
	return &SystemBuilder{
		n:       states,
		inputs:  inputs,
		outputs: outputs,
		g1:      sparse.NewBuilder(states, states),
		b:       mat.NewDense(states, inputs),
		l:       mat.NewDense(outputs, states),
	}
}

// ckIdx panics when an index is outside [0, bound) — the builder's
// contract for programming errors. Every coordinate is checked
// individually; flattened Kronecker indices and dense backing arrays
// would otherwise silently alias neighboring coefficients.
func ckIdx(what string, i, bound int) {
	if i < 0 || i >= bound {
		panic(fmt.Sprintf("avtmor: SystemBuilder %s index %d out of [0,%d)", what, i, bound))
	}
}

// G1 adds v to the linear term at (i, j).
func (sb *SystemBuilder) G1(i, j int, v float64) *SystemBuilder {
	ckIdx("G1 row", i, sb.n)
	ckIdx("G1 col", j, sb.n)
	sb.g1.Add(i, j, v)
	return sb
}

// G2 adds v to the quadratic term coefficient of x_p·x_q in equation i.
func (sb *SystemBuilder) G2(i, p, q int, v float64) *SystemBuilder {
	ckIdx("G2 row", i, sb.n)
	ckIdx("G2 p", p, sb.n)
	ckIdx("G2 q", q, sb.n)
	if sb.g2 == nil {
		sb.g2 = sparse.NewBuilder(sb.n, sb.n*sb.n)
	}
	sb.g2.Add(i, p*sb.n+q, v)
	return sb
}

// G3 adds v to the cubic term coefficient of x_p·x_q·x_r in equation i.
func (sb *SystemBuilder) G3(i, p, q, r int, v float64) *SystemBuilder {
	ckIdx("G3 row", i, sb.n)
	ckIdx("G3 p", p, sb.n)
	ckIdx("G3 q", q, sb.n)
	ckIdx("G3 r", r, sb.n)
	if sb.g3 == nil {
		sb.g3 = sparse.NewBuilder(sb.n, sb.n*sb.n*sb.n)
	}
	sb.g3.Add(i, (p*sb.n+q)*sb.n+r, v)
	return sb
}

// D1 adds v to the bilinear (state×input) block of the given input
// channel at (i, j).
func (sb *SystemBuilder) D1(input, i, j int, v float64) *SystemBuilder {
	ckIdx("D1 input", input, sb.inputs)
	ckIdx("D1 row", i, sb.n)
	ckIdx("D1 col", j, sb.n)
	if sb.d1 == nil {
		sb.d1 = make([]*mat.Dense, sb.inputs)
	}
	if sb.d1[input] == nil {
		sb.d1[input] = mat.NewDense(sb.n, sb.n)
	}
	sb.d1[input].Add(i, j, v)
	return sb
}

// B adds v to the input map at (i, input).
func (sb *SystemBuilder) B(i, input int, v float64) *SystemBuilder {
	ckIdx("B row", i, sb.n)
	ckIdx("B input", input, sb.inputs)
	sb.b.Add(i, input, v)
	return sb
}

// L adds v to the output map at (output, j).
func (sb *SystemBuilder) L(output, j int, v float64) *SystemBuilder {
	ckIdx("L output", output, sb.outputs)
	ckIdx("L col", j, sb.n)
	sb.l.Add(output, j, v)
	return sb
}

// Build assembles and validates the System. Small systems (n ≤ 2500)
// carry both the dense G1 and its CSR mirror so the solver layer can
// route by size and density; larger ones stay CSR-only.
func (sb *SystemBuilder) Build() (*System, error) {
	sys := &qldae.System{
		N:   sb.n,
		G1S: sb.g1.Build(),
		B:   sb.b,
		L:   sb.l,
	}
	if sb.n <= qldae.DenseMirrorLimit {
		sys.G1 = sys.G1S.Dense()
	}
	if sb.g2 != nil {
		if g2 := sb.g2.Build(); g2.NNZ() > 0 {
			sys.G2 = g2
		}
	}
	if sb.g3 != nil {
		if g3 := sb.g3.Build(); g3.NNZ() > 0 {
			sys.G3 = g3
		}
	}
	if sb.d1 != nil {
		any := false
		for _, d := range sb.d1 {
			if d != nil {
				any = true
			}
		}
		if any {
			sys.D1 = sb.d1
		}
	}
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	return wrapSystem(sys, ""), nil
}
