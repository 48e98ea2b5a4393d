// Package qldae models quadratic-linear differential-algebraic systems
//
//	C·x' = G1·x + G2·(x⊗x) + G3·(x⊗x⊗x) + Σ_i D1_i·x·u_i + B·u,   y = L·x
//
// — Eq. (1)/(2) of the paper, extended with the cubic term of §3.4 and
// multi-input structure (§3.3). Every builder emits the paper's trimmed
// form (2), with an invertible diagonal C already absorbed: the netlist
// scales each node row by 1/C, and the §3 workloads and SystemBuilder
// are written in trimmed form.
package qldae

import (
	"errors"
	"fmt"
	"math"

	"avtmor/internal/mat"
	"avtmor/internal/solver"
	"avtmor/internal/sparse"
)

// DenseMirrorLimit bounds the state count up to which a circuit builder
// (the facade's SystemBuilder, circuits.RLCLine) also materializes the
// dense G1 next to its CSR form, for dense-vs-sparse comparisons and
// the Schur-based H2/H3 solves. Beyond it the system is CSR-only:
// linear (K1) reductions and sparse-Newton transients work, the H2/H3
// machinery reports an error.
const DenseMirrorLimit = 2500

// System is a (regularized) QLDAE in the trimmed form (2): x' = G1 x +
// G2 (x⊗x) + G3 (x⊗x⊗x) + Σ D1_i x u_i + B u, y = L x. Any of G2, G3,
// D1 may be nil.
//
// G1 exists in up to two representations: the dense G1 and the CSR
// mirror G1S. Small systems carry only the dense form; circuit builders
// attach G1S so the solver layer can route large systems through the
// sparse LU; and systems beyond the dense regime (n ≳ a few thousand)
// may carry only G1S — at least one of the two must be present. Paths
// that structurally need the dense form (the Schur-based H2/H3
// associated solves, Hankel order selection, complex-frequency
// verification) report an error on CSR-only systems.
type System struct {
	N   int          // state dimension
	G1  *mat.Dense   // n×n, nil only when G1S is set
	G1S *sparse.CSR  // optional n×n CSR mirror of G1
	G2  *sparse.CSR  // n×n², nil if absent
	G3  *sparse.CSR  // n×n³, nil if absent
	D1  []*mat.Dense // one n×n block per input, nil entries/slice if absent
	B   *mat.Dense   // n×m
	L   *mat.Dense   // p×n output map
}

// Inputs returns the input count m.
func (s *System) Inputs() int { return s.B.C }

// Outputs returns the output count p.
func (s *System) Outputs() int { return s.L.R }

// Validate checks dimensional consistency.
func (s *System) Validate() error {
	n := s.N
	if s.G1 == nil && s.G1S == nil {
		return fmt.Errorf("qldae: G1 must be present (dense or CSR)")
	}
	if s.G1 != nil && (s.G1.R != n || s.G1.C != n) {
		return fmt.Errorf("qldae: G1 must be %d×%d", n, n)
	}
	if s.G1S != nil && (s.G1S.Rows != n || s.G1S.Cols != n) {
		return fmt.Errorf("qldae: G1S must be %d×%d, got %d×%d", n, n, s.G1S.Rows, s.G1S.Cols)
	}
	if s.G2 != nil && (s.G2.Rows != n || s.G2.Cols != n*n) {
		return fmt.Errorf("qldae: G2 must be %d×%d, got %d×%d", n, n*n, s.G2.Rows, s.G2.Cols)
	}
	if s.G3 != nil && (s.G3.Rows != n || s.G3.Cols != n*n*n) {
		return fmt.Errorf("qldae: G3 must be %d×%d", n, n*n*n)
	}
	if s.B == nil || s.B.R != n || s.B.C < 1 {
		return errors.New("qldae: B must have n rows and at least one column")
	}
	if s.D1 != nil && len(s.D1) != s.B.C {
		return fmt.Errorf("qldae: D1 must have one block per input (%d), got %d", s.B.C, len(s.D1))
	}
	for i, d := range s.D1 {
		if d != nil && (d.R != n || d.C != n) {
			return fmt.Errorf("qldae: D1[%d] must be %d×%d", i, n, n)
		}
	}
	if s.L == nil || s.L.C != n || s.L.R < 1 {
		return errors.New("qldae: L must have n columns and at least one row")
	}
	return nil
}

// MulG1 computes dst = G1·x, through the CSR mirror whenever one
// exists. Every producer derives one representation from the other
// (sparse.FromDense, or CSR.Dense of a built CSR), so G1S holds exactly
// G1's nonzeros in ascending column order. Its row sums therefore add
// the same products in the same order as the dense rows and skip only
// exact-zero terms: bit-identical to the dense product for finite x
// (0·±Inf and 0·NaN are the only skipped terms that would not vanish).
func (s *System) MulG1(dst, x []float64) {
	if s.G1S != nil {
		s.G1S.MulVecTo(dst, x)
		return
	}
	s.G1.MulVecTo(dst, x)
}

// Linear reports whether ∂RHS/∂x is G1 alone: no G2, G3 or D1 term, so
// the Jacobian is the same at every state and input.
func (s *System) Linear() bool {
	if s.G2 != nil || s.G3 != nil {
		return false
	}
	for _, d := range s.D1 {
		if d != nil {
			return false
		}
	}
	return true
}

// Prepared is a System readied for the many evaluations of one
// integration run: it carries the CSR form of every D1 block, of Bᵀ
// and of L, and the packed symmetric form (sparse.Packed) of each
// dense enough G2 or G3, derived once here rather than per evaluation. A
// ROM's projected couplings store every monomial in every index order
// and are packed; a circuit model's, with a few nonzeros per row, are
// not, and keep the indexed kernels bit for bit. The derived forms
// live only as long as the run, which uses them from one goroutine (a
// packed coupling's Eval writes scratch the Packed owns, and Eval
// writes tmp); the System stays a plain value that copies freely, and
// the codecs never see them.
type Prepared struct {
	*System
	d1     []*sparse.CSR  // CSR form of D1[i]; nil where D1[i] is nil
	bt     *sparse.CSR    // Bᵀ: row i holds input i's nonzeros, state rows ascending
	l      *sparse.CSR    // L's nonzeros, columns ascending
	g2, g3 *sparse.Packed // packed G2, G3; nil where absent or not packed
	tmp    []float64      // Eval's scratch for an unpacked G3 and the D1 products
}

// Prepare derives s's integration-time forms.
func (s *System) Prepare() *Prepared {
	p := &Prepared{System: s, d1: csrBlocks(s.D1), bt: sparse.FromDense(s.B.T()), l: sparse.FromDense(s.L),
		tmp: make([]float64, s.N)}
	if s.G2 != nil {
		p.g2 = s.G2.Pack(s.N, 2)
	}
	if s.G3 != nil {
		p.g3 = s.G3.Pack(s.N, 3)
	}
	return p
}

// csrBlocks returns the CSR form of each block (nil for nil blocks, and
// for no blocks at all).
func csrBlocks(blocks []*mat.Dense) []*sparse.CSR {
	if blocks == nil {
		return nil
	}
	out := make([]*sparse.CSR, len(blocks))
	for i, d := range blocks {
		if d != nil {
			out[i] = sparse.FromDense(d)
		}
	}
	return out
}

// Eval computes dst = RHS(x, u). Its scratch is p's own, so the
// per-stage integrator loops (four Evals per RK4 step, one per Newton
// iteration) evaluate allocation-free. Each D1 product runs through
// the block's CSR form: by MulG1's argument it has the bits of the
// dense product for finite x. B·u goes through AddInput. A packed G2
// or G3 sums its monomials in another order than the indexed kernel,
// so it moves the result in its last bits.
func (p *Prepared) Eval(dst, x, u []float64) {
	s := p.System
	if len(x) != s.N || len(dst) != s.N || len(u) != s.Inputs() {
		panic("qldae: Eval length mismatch")
	}
	s.MulG1(dst, x)
	switch {
	case p.g2 != nil:
		p.g2.AddApply(dst, 1, x)
	case s.G2 != nil:
		s.G2.QuadAddApply(dst, 1, x, x)
	}
	switch {
	case p.g3 != nil:
		p.g3.AddApply(dst, 1, x)
	case s.G3 != nil:
		s.G3.CubeApply(p.tmp, x)
		mat.Axpy(1, p.tmp, dst)
	}
	for i, d := range p.d1 {
		if d == nil || u[i] == 0 {
			continue
		}
		d.MulVecTo(p.tmp, x)
		mat.Axpy(u[i], p.tmp, dst)
	}
	p.AddInput(dst, u)
}

// AddInput adds B·u to dst from B's nonzeros, one input at a time, so
// each dst[r] receives its input terms in ascending input order. For
// finite u it leaves the bits of the dense sum dst[r] += B[r,i]·u[i]
// wherever dst[r] is not −0: a skipped 0·u[i] is ±0, and adding ±0
// changes neither a nonzero value nor +0. Eval's sums start at +0 and
// so are never −0.
func (p *Prepared) AddInput(dst, u []float64) {
	bt := p.bt
	for i, ui := range u {
		if ui == 0 {
			continue
		}
		for k := bt.RowPtr[i]; k < bt.RowPtr[i+1]; k++ {
			dst[bt.ColIdx[k]] += bt.Val[k] * ui
		}
	}
}

// JacobianInto writes ∂RHS/∂x at (x, u) into the n×n matrix j,
// overwriting all of it: the Newton loop of ode.TrapezoidalSolverCtx assembles
// every dense Newton matrix of a transient into one buffer. The D1
// terms add only the blocks' nonzeros, which leaves every entry as the
// dense j += u·D1 would, except that a −0 entry stays −0 where the
// dense sum adds +0.
func (p *Prepared) JacobianInto(j *mat.Dense, x, u []float64) {
	s := p.System
	if j.R != s.N || j.C != s.N {
		panic("qldae: JacobianInto shape mismatch")
	}
	if s.G1 != nil {
		copy(j.A, s.G1.A)
	} else {
		s.G1S.DenseTo(j)
	}
	p.addNonlinearJacobian(j, x, u)
}

// addNonlinearJacobian adds the G2, G3 and D1 terms of ∂RHS/∂x at
// (x, u) to the dense j, in the order JacobianInto has always added
// them.
func (p *Prepared) addNonlinearJacobian(j *mat.Dense, x, u []float64) {
	switch {
	case p.g2 != nil:
		p.g2.Jacobian(j.A, 1, x)
	case p.G2 != nil:
		p.G2.QuadJacobian(j.A, 1, x)
	}
	switch {
	case p.g3 != nil:
		p.g3.Jacobian(j.A, 1, x)
	case p.G3 != nil:
		p.G3.CubeJacobian(j.A, 1, x)
	}
	for i, d := range p.d1 {
		if d == nil || u[i] == 0 {
			continue
		}
		for r := 0; r < d.Rows; r++ {
			row := j.Row(r)
			for k := d.RowPtr[r]; k < d.RowPtr[r+1]; k++ {
				row[d.ColIdx[k]] += u[i] * d.Val[k]
			}
		}
	}
}

// NewtonPattern is P, the fixed sparsity pattern of every dense Newton
// matrix I − h/2·J(x, u) of one transient: the nonzeros of G1, the
// diagonal, every position the G2 and G3 Jacobians write (every cell,
// for a packed coupling), and the nonzeros of every D1 block whether
// or not its input is on. No state, input or step size puts a nonzero
// anywhere else.
type NewtonPattern struct {
	// RowPtr and ColIdx hold P in compressed-row form, columns
	// ascending.
	RowPtr, ColIdx []int
	cells          []int // r·n + c of every cell of P, row-major
}

// NewtonPattern derives P for a system with a dense G1.
func (p *Prepared) NewtonPattern() *NewtonPattern {
	n := p.N
	in := make([]bool, n*n)
	for c, v := range p.G1.A {
		if v != 0 {
			in[c] = true
		}
	}
	for i := 0; i < n; i++ {
		in[i*n+i] = true
	}
	mark := func(r, c int, _ float64) { in[r*n+c] = true }
	switch {
	case p.g2 != nil, p.g3 != nil:
		// A packed Jacobian adds to every cell, zero coefficients too.
		for c := range in {
			in[c] = true
		}
	default:
		if p.G2 != nil {
			p.G2.QuadJacobianVisit(1, make([]float64, n), mark)
		}
		if p.G3 != nil {
			p.G3.CubeJacobianVisit(1, make([]float64, n), mark)
		}
	}
	for _, d := range p.d1 {
		if d == nil {
			continue
		}
		for r := 0; r < d.Rows; r++ {
			for k := d.RowPtr[r]; k < d.RowPtr[r+1]; k++ {
				in[r*n+d.ColIdx[k]] = true
			}
		}
	}
	pat := &NewtonPattern{RowPtr: make([]int, n+1)}
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			if in[r*n+c] {
				pat.ColIdx = append(pat.ColIdx, c)
				pat.cells = append(pat.cells, r*n+c)
			}
		}
		pat.RowPtr[r+1] = len(pat.ColIdx)
	}
	return pat
}

// NewtonInto writes the Newton matrix I − h/2·J(x, u) into the cells
// of pat, leaving every other cell of j untouched. Each cell gets the
// operations the full assembly (JacobianInto, scaling by −h/2, adding
// the identity) gives it, in the same order, so it carries the same
// bits up to the sign of a zero.
func (p *Prepared) NewtonInto(j *mat.Dense, pat *NewtonPattern, x, u []float64, h float64) {
	if len(pat.cells) == len(j.A) {
		// P is every cell: the full assembly is the same work, minus the
		// cell indirection.
		p.JacobianInto(j, x, u)
		j.Scale(-0.5 * h)
	} else {
		a, g1 := j.A, p.G1.A
		for _, c := range pat.cells {
			a[c] = g1[c]
		}
		p.addNonlinearJacobian(j, x, u)
		s := -0.5 * h
		for _, c := range pat.cells {
			a[c] *= s
		}
	}
	for i := 0; i < p.N; i++ {
		j.Add(i, i, 1)
	}
}

// JacobianCSRInto assembles ∂RHS/∂x at (x, u) directly in CSR form,
// never touching n² dense entries: G1 nonzeros (CSR mirror preferred),
// the quadratic/cubic Jacobian triplets, and the nonzeros of any active
// D1 blocks. This is the operand the sparse-direct Newton path of
// ode.TrapezoidalSolverCtx factors once per step. It assembles through a
// caller-owned builder (Reset here before use): the Newton loop
// assembles a same-structure Jacobian thousands of times per transient,
// and reusing one triplet slab keeps that path from regrowing COO
// storage on every iteration. The built CSR is fresh either way.
func (p *Prepared) JacobianCSRInto(b *sparse.Builder, x, u []float64) *sparse.CSR {
	s := p.System
	b.Reset()
	if s.G1S != nil {
		g := s.G1S
		for r := 0; r < g.Rows; r++ {
			for k := g.RowPtr[r]; k < g.RowPtr[r+1]; k++ {
				b.Add(r, g.ColIdx[k], g.Val[k])
			}
		}
	} else {
		for i := 0; i < s.N; i++ {
			for j, v := range s.G1.Row(i) {
				if v != 0 {
					b.Add(i, j, v)
				}
			}
		}
	}
	if s.G2 != nil {
		s.G2.QuadJacobianVisit(1, x, b.Add)
	}
	if s.G3 != nil {
		s.G3.CubeJacobianVisit(1, x, b.Add)
	}
	for i, d := range p.d1 {
		if d == nil || u[i] == 0 {
			continue
		}
		for r := 0; r < d.Rows; r++ {
			for k := d.RowPtr[r]; k < d.RowPtr[r+1]; k++ {
				b.Add(r, d.ColIdx[k], u[i]*d.Val[k])
			}
		}
	}
	return b.Build()
}

// Output returns y = L·x, from L's nonzeros. By MulG1's argument it has
// the bits of the dense product for finite x: each row sum starts at
// +0 and so is never −0, and a skipped 0·x[j] is ±0.
func (p *Prepared) Output(x []float64) []float64 {
	y := make([]float64, p.l.Rows)
	p.l.MulVec(y, x)
	return y
}

// projectSparseCutoff is the state dimension beyond which Project
// routes the G1 congruence through the CSR mirror when one exists. It
// is the solver layer's dense routing cutoff, referenced (not copied)
// so retuning the routing policy keeps projection and factorization on
// the same side and small systems keep their dense-path numerics bit
// for bit.
const projectSparseCutoff = solver.AutoDenseCutoff

// Project performs the Galerkin reduction x ≈ V·x̂ with column-orthonormal
// V ∈ R^{n×q}: Ĝ1 = VᵀG1V, Ĝ2 = VᵀG2(V⊗V), Ĝ3 = VᵀG3(V⊗V⊗V),
// D̂1 = VᵀD1V, B̂ = VᵀB, L̂ = LV. Every entry of a product that underflows
// to a subnormal is flushed to exact zero (see flushSubnormals).
func (s *System) Project(v *mat.Dense) *System {
	if v.R != s.N {
		panic("qldae: Project basis row mismatch")
	}
	q := v.C
	vt := v.T()
	out := &System{N: q}
	if s.G1 != nil && (s.G1S == nil || s.N < projectSparseCutoff) {
		out.G1 = flushSubnormals(vt.Mul(s.G1).Mul(v))
	} else {
		// Vᵀ·(G1S·V): O(nnz·q) instead of O(n²·q). Large mirrored
		// systems take this route too — the dense Vᵀ·G1 pass is the
		// single biggest flop block of a big-circuit reduction, and the
		// CSR mirror holds the same entries.
		out.G1 = flushSubnormals(vt.Mul(s.G1S.MulDense(v)))
	}
	out.B = flushSubnormals(vt.Mul(s.B))
	out.L = flushSubnormals(s.L.Mul(v))
	if s.D1 != nil {
		out.D1 = make([]*mat.Dense, len(s.D1))
		for i, d := range s.D1 {
			if d != nil {
				out.D1[i] = flushSubnormals(vt.Mul(d).Mul(v))
			}
		}
	}
	if s.G2 != nil {
		out.G2 = sparse.FromDense(flushSubnormals(projectQuad(s.G2, v)))
	}
	if s.G3 != nil {
		out.G3 = sparse.FromDense(flushSubnormals(projectCube(s.G3, v)))
	}
	return out
}

// flushSubnormals zeroes, in place, every entry of d whose magnitude is
// below the smallest normal float64 (0x1p-1022), and returns d. Such
// entries carry no information at a ROM's scale, but many CPUs take a
// slow microcode assist on arithmetic that reads one, and a ROM pays
// that in every Eval of every transient step (the 72-state ROM of a
// long multi-port RLC line had 668 in its Ĝ1). ±0, normal numbers,
// infinities and NaNs are left untouched.
func flushSubnormals(d *mat.Dense) *mat.Dense {
	for i, x := range d.A {
		if x != 0 && math.Abs(x) < 0x1p-1022 {
			d.A[i] = 0
		}
	}
	return d
}

// projectQuad computes the dense q×q² product Vᵀ·G2·(V⊗V).
func projectQuad(g2 *sparse.CSR, v *mat.Dense) *mat.Dense {
	n, q := v.R, v.C
	// t = G2·(V⊗V) ∈ R^{n×q²}: row i gets Σ val·V[p,a]·V[r,b] at (a·q+b).
	t := mat.NewDense(n, q*q)
	for i := 0; i < g2.Rows; i++ {
		ti := t.Row(i)
		for k := g2.RowPtr[i]; k < g2.RowPtr[i+1]; k++ {
			c := g2.ColIdx[k]
			p, r := c/n, c%n
			val := g2.Val[k]
			vp := v.Row(p)
			vr := v.Row(r)
			for a := 0; a < q; a++ {
				va := val * vp[a]
				if va == 0 {
					continue
				}
				base := a * q
				for b := 0; b < q; b++ {
					ti[base+b] += va * vr[b]
				}
			}
		}
	}
	return v.T().Mul(t)
}

// projectCube computes the dense q×q³ product Vᵀ·G3·(V⊗V⊗V).
func projectCube(g3 *sparse.CSR, v *mat.Dense) *mat.Dense {
	n, q := v.R, v.C
	t := mat.NewDense(n, q*q*q)
	for i := 0; i < g3.Rows; i++ {
		ti := t.Row(i)
		for k := g3.RowPtr[i]; k < g3.RowPtr[i+1]; k++ {
			c := g3.ColIdx[k]
			p, r, w := c/(n*n), (c/n)%n, c%n
			val := g3.Val[k]
			vp, vr, vw := v.Row(p), v.Row(r), v.Row(w)
			for a := 0; a < q; a++ {
				va := val * vp[a]
				if va == 0 {
					continue
				}
				for b := 0; b < q; b++ {
					vab := va * vr[b]
					if vab == 0 {
						continue
					}
					base := (a*q + b) * q
					for cc := 0; cc < q; cc++ {
						ti[base+cc] += vab * vw[cc]
					}
				}
			}
		}
	}
	return v.T().Mul(t)
}
