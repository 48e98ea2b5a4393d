package assoc

import (
	"avtmor/internal/kron"
	"avtmor/internal/mat"
	"avtmor/internal/sylv"
)

// Transfer-function evaluation of the associated transforms at a complex
// frequency s, through the structured solvers (never forming G̃2). These
// are the quantities the verification suite compares against the analytic
// oracle of package volterra. Their Kronecker blocks solve as the moment
// chains' do, in the Schur coordinates of G1 with the symmetric kernels,
// here at complex s, and G2 and G3 read them through gathers.

// EvalH1 computes H1(s) = (sI − G1)⁻¹·b_in.
func (r *Realization) EvalH1(in int, s complex128) ([]complex128, error) {
	x := mat.ToComplex(r.Sys.B.Col(in))
	if err := r.resolventC(s, x); err != nil {
		return nil, err
	}
	return x, nil
}

// EvalAssocH2 computes A2(H2⁽ⁱʲ⁾)(s) = c̃2·(sI − G̃2)⁻¹·b̃2⁽ⁱʲ⁾ (Eq. 17)
// by block back-substitution, as h2Op applies (G̃2 − s0·I)⁻¹: the n²
// block of b̃2, symmetric and built from Qᵀbᵢ and Qᵀbⱼ, solves
// (⊕²R − s·I)·ŵ = b̂ by one TrSylvSymC, and the result is
// (sI − G1)⁻¹·(f − G2·(Q⊗Q)·ŵ), f the top block of b̃2.
func (r *Realization) EvalAssocH2(i, j int, s complex128) ([]complex128, error) {
	sys := r.Sys
	n := sys.N
	s2, err := r.Sum2()
	if err != nil {
		return nil, err
	}
	bt := r.btilde2(i, j, s2.ToSchur(sys.B.Col(i), 1), s2.ToSchur(sys.B.Col(j), 1))
	top := mat.ToComplex(bt[:n])
	if sys.G2 != nil {
		w := mat.ToComplex(bt[n:])
		if err := sylv.TrSylvSymC(s2.Schur().T, -s, w, n); err != nil {
			return nil, err
		}
		g := newGather(sys.G2, s2.Schur().Q, 2)
		gre, gim := make([]float64, n), make([]float64, n)
		g.apply(gre, mat.RealPart(w))
		g.apply(gim, mat.ImagPart(w))
		for k := range top {
			top[k] -= complex(gre[k], gim[k])
		}
	}
	if err := r.resolventC(s, top); err != nil {
		return nil, err
	}
	return top, nil
}

// EvalAssocH3 computes A3(H3)(s) = (sI−G1)⁻¹·(G2·H̃3(s) + D1²·b) for a
// SISO quadratic QLDAE (§2.2). H̃3(s) is the symmetrized output of the
// H̃3 resolvent at s on b⊗b̃2, one power as H3Moments runs it
// (kronSchur.step), at complex s: the bottom block (Qᵀb)^{⊗3} by one
// symmetric ⊕³ solve, and the top block only as S = X̃_top + X̃_topᵀ,
// all that H̃3(s) = −Q·S·Qᵀ reads. ⊕²R commutes with transposition, so
// S solves the sum of step's top equation and its transpose: one
// TrSylvSymC.
func (r *Realization) EvalAssocH3(s complex128) ([]complex128, error) {
	sys := r.Sys
	if sys.Inputs() != 1 {
		return nil, errNotSISO
	}
	n := sys.N
	b := sys.B.Col(0)
	d1b := make([]float64, n)
	if sys.D1 != nil && sys.D1[0] != nil {
		sys.D1[0].MulVec(d1b, b)
	}
	rhs := make([]complex128, n)
	if sys.G2 != nil {
		k, err := r.kronSchur()
		if err != nil {
			return nil, err
		}
		s2 := k.s3.Sum2()
		sch := s2.Schur()
		bt, dt := s2.ToSchur(b, 1), s2.ToSchur(d1b, 1)
		re := kron.VecKron(kron.VecKron(bt, bt), bt)
		im := make([]float64, len(re))
		if err := k.sym.SolveSchurC(r.ctx, s, re, im); err != nil {
			return nil, err
		}
		// S's right-hand side is Ṽ_top + Ṽ_topᵀ − (D·Q + (D·Q)ᵀ), with
		// Ṽ_top = Qᵀ·D1b·(Qᵀb)ᵀ and D as in step.
		dre, dim := mat.NewDense(n, n), mat.NewDense(n, n)
		k.g2.applySym(dre.A, re)
		k.g2.applySym(dim.A, im)
		cre, cim := dre.Mul(sch.Q), dim.Mul(sch.Q)
		w := make([]complex128, n*n)
		for p := 0; p < n; p++ {
			for q := p; q < n; q++ {
				v := dt[p]*bt[q] + bt[p]*dt[q] - cre.A[p*n+q] - cre.A[q*n+p]
				w[p*n+q] = complex(v, -cim.A[p*n+q]-cim.A[q*n+p])
			}
		}
		if err := sylv.TrSylvSymC(sch.T, -s, w, n); err != nil {
			return nil, err
		}
		// G2·H̃3(s) = −G2·(Q⊗Q)·vec(S).
		gre, gim := make([]float64, n), make([]float64, n)
		k.g2.apply(gre, mat.RealPart(w))
		k.g2.apply(gim, mat.ImagPart(w))
		for p := range rhs {
			rhs[p] = -complex(gre[p], gim[p])
		}
	}
	if sys.D1 != nil && sys.D1[0] != nil {
		d2 := make([]float64, n)
		sys.D1[0].MulVec(d2, d1b)
		for p := range rhs {
			rhs[p] += complex(d2[p], 0)
		}
	}
	if err := r.resolventC(s, rhs); err != nil {
		return nil, err
	}
	return rhs, nil
}

// EvalAssocH3Cubic computes A3(H3)(s) = (sI−G1)⁻¹·G3·(sI−⊕³G1)⁻¹·b^{3⊗}
// for a SISO cubic system (Corollary 1 + property (8)), one power as
// H3MomentsCubic runs it, at complex s: (Qᵀb)^{⊗3} solves by one
// symmetric ⊕³ solve in the Schur coordinates of G1, and G3 reads the
// result through a gather.
func (r *Realization) EvalAssocH3Cubic(s complex128) ([]complex128, error) {
	sys := r.Sys
	if sys.Inputs() != 1 || sys.G3 == nil {
		return nil, errNotSISO
	}
	n := sys.N
	s2, err := r.Sum2()
	if err != nil {
		return nil, err
	}
	bt := s2.ToSchur(sys.B.Col(0), 1)
	re := kron.VecKron(kron.VecKron(bt, bt), bt)
	im := make([]float64, len(re))
	if err := s2.Sum3().Sym().SolveSchurC(r.ctx, s, re, im); err != nil {
		return nil, err
	}
	g3 := newGather(sys.G3, s2.Schur().Q, 3)
	gre, gim := make([]float64, n), make([]float64, n)
	g3.applySym(gre, re)
	g3.applySym(gim, im)
	// (sI − ⊕³G1)⁻¹ = −(⊕³G1 − sI)⁻¹.
	rhs := make([]complex128, n)
	for p := range rhs {
		rhs[p] = -complex(gre[p], gim[p])
	}
	if err := r.resolventC(s, rhs); err != nil {
		return nil, err
	}
	return rhs, nil
}

// resolventC overwrites x with (sI − G1)⁻¹·x.
func (r *Realization) resolventC(s complex128, x []complex128) error {
	f, err := r.shiftedCLU(s)
	if err != nil {
		return err
	}
	// (sI − G1)⁻¹ = −(G1 − sI)⁻¹.
	f.Solve(x, x)
	for k := range x {
		x[k] = -x[k]
	}
	return nil
}
