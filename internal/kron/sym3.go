package kron

import (
	"context"
	"math"

	"avtmor/internal/sylv"
)

// Sym3 is SolveSchur for fully symmetric tensors: those invariant under
// every permutation of their three indices, such as (Qᵀb)^{⊗3} and all
// its resolvent powers (⊕³R commutes with index permutations). Slab a,
// the n×n block T[a,:,:], is then symmetric, and its entries T[a,b,c]
// with max(b,c) ≥ m, m the end of a's diagonal block of R, are entries
// of slabs already solved. So each slab copies those, subtracts the
// coupling on the upper triangle of its leading m×m block only, and
// solves that block with sylv.TrSylvSym. A power costs about n⁴/4
// multiply-adds against SolveSchur's 1.5·n⁴. The workspace is allocated
// once, so one Sym3 serves a whole chain of powers without allocating;
// it is not safe for concurrent use.
type Sym3 struct {
	ss   *SumSolver3
	blks [][2]int
	// Two complex n×n slabs: the first holds a block's complex solve,
	// the second the other half of a 2×2 block at complex σ.
	w []complex128
}

// Sym returns a Sym3 over the decomposition of ss.
func (ss *SumSolver3) Sym() *Sym3 {
	return &Sym3{ss: ss, blks: ss.s2.s.Blocks(), w: make([]complex128, 2*ss.n*ss.n)}
}

// SolveSchur overwrites zt, a fully symmetric length-n³ tensor in Schur
// coordinates, with (⊕³R − σI)⁻¹·zt. It reads only the entries
// T[a,b,c] with b ≤ c < m_a of zt, and the result is exactly symmetric.
// ctx is polled once per diagonal block of R.
func (s *Sym3) SolveSchur(ctx context.Context, sigma float64, zt []float64) error {
	s.ss.checkLen(len(zt))
	n, nn := s.ss.n, s.ss.n*s.ss.n
	r := s.ss.s2.s.T
	for bi := len(s.blks) - 1; bi >= 0; bi-- {
		if err := ctx.Err(); err != nil {
			return err
		}
		l0, ln := s.blks[bi][0], s.blks[bi][1]
		m := l0 + ln
		s.prepare(zt, l0, m)
		if ln == 1 {
			if err := sylv.TrSylvSym(r, -(sigma - r.At(l0, l0)), zt[l0*nn:(l0+1)*nn], m); err != nil {
				return err
			}
			continue
		}
		// The 2×2 block complexifies as in SolveSchur; the complex slab
		// is symmetric as well.
		alpha, beta, gamma := r.At(l0, l0), r.At(l0, l0+1), r.At(l0+1, l0)
		mu := math.Sqrt(-beta * gamma)
		sc := -beta / mu
		p, q := zt[l0*nn:(l0+1)*nn], zt[(l0+1)*nn:(l0+2)*nn]
		w := s.w[:nn]
		for b := 0; b < m; b++ {
			for c := b; c < n; c++ {
				w[b*n+c] = complex(p[b*n+c], sc*q[b*n+c])
			}
		}
		if err := sylv.TrSylvSymC(r, -complex(sigma-alpha, -mu), w, m); err != nil {
			return err
		}
		for b := 0; b < m; b++ {
			for c := 0; c < m; c++ {
				p[b*n+c] = real(w[b*n+c])
				q[b*n+c] = imag(w[b*n+c]) / sc
			}
		}
		keepSymmetric(p, q, l0, m, n)
	}
	return nil
}

// SolveSchurC is SolveSchur for complex σ, on the complex tensor
// re + i·im (each part fully symmetric): the slab walk runs on both
// parts and each diagonal block solves in complex arithmetic. A 2×2
// block [[α,β],[γ,α]] cannot complexify, which needs a real σ; its
// coupling [[0,β],[γ,0]] is diagonalized instead, with eigenvalues ±μ,
// μ = i·√(−βγ), so the slab pair P, Q splits into two
// sylv.TrSylvSymC solves, of γ·P + μ·Q at shift α+μ and of γ·P − μ·Q
// at α−μ. Both parts of the result are exactly symmetric.
func (s *Sym3) SolveSchurC(ctx context.Context, sigma complex128, re, im []float64) error {
	s.ss.checkLen(len(re))
	s.ss.checkLen(len(im))
	n, nn := s.ss.n, s.ss.n*s.ss.n
	r := s.ss.s2.s.T
	for bi := len(s.blks) - 1; bi >= 0; bi-- {
		if err := ctx.Err(); err != nil {
			return err
		}
		l0, ln := s.blks[bi][0], s.blks[bi][1]
		m := l0 + ln
		s.prepare(re, l0, m)
		s.prepare(im, l0, m)
		alpha := complex(r.At(l0, l0), 0)
		pRe, pIm := re[l0*nn:(l0+1)*nn], im[l0*nn:(l0+1)*nn]
		w := s.w[:nn]
		if ln == 1 {
			for b := 0; b < m; b++ {
				for c := b; c < n; c++ {
					w[b*n+c] = complex(pRe[b*n+c], pIm[b*n+c])
				}
			}
			if err := sylv.TrSylvSymC(r, alpha-sigma, w, m); err != nil {
				return err
			}
			for b := 0; b < m; b++ {
				for c := 0; c < m; c++ {
					pRe[b*n+c], pIm[b*n+c] = real(w[b*n+c]), imag(w[b*n+c])
				}
			}
			continue
		}
		beta, gamma := r.At(l0, l0+1), r.At(l0+1, l0)
		mu := complex(0, math.Sqrt(-beta*gamma))
		g := complex(gamma, 0)
		qRe, qIm := re[(l0+1)*nn:(l0+2)*nn], im[(l0+1)*nn:(l0+2)*nn]
		w2 := s.w[nn:]
		for b := 0; b < m; b++ {
			for c := b; c < n; c++ {
				gp := g * complex(pRe[b*n+c], pIm[b*n+c])
				mq := mu * complex(qRe[b*n+c], qIm[b*n+c])
				w[b*n+c], w2[b*n+c] = gp+mq, gp-mq
			}
		}
		if err := sylv.TrSylvSymC(r, alpha+mu-sigma, w, m); err != nil {
			return err
		}
		if err := sylv.TrSylvSymC(r, alpha-mu-sigma, w2, m); err != nil {
			return err
		}
		ip, iq := 1/(2*g), 1/(2*mu)
		for b := 0; b < m; b++ {
			for c := 0; c < m; c++ {
				y1, y2 := w[b*n+c], w2[b*n+c]
				p, q := (y1+y2)*ip, (y1-y2)*iq
				pRe[b*n+c], pIm[b*n+c] = real(p), imag(p)
				qRe[b*n+c], qIm[b*n+c] = real(q), imag(q)
			}
		}
		keepSymmetric(pRe, qRe, l0, m, n)
		keepSymmetric(pIm, qIm, l0, m, n)
	}
	return nil
}

// prepare readies the slabs of the diagonal block [l0, m) of zt for
// their solve: it copies each slab's entries T[a,b,c] with
// max(b,c) ≥ m from the slabs already solved, and subtracts the
// coupling to those slabs from the upper triangle of its leading m×m
// block.
func (s *Sym3) prepare(zt []float64, l0, m int) {
	n, nn := s.ss.n, s.ss.n*s.ss.n
	r := s.ss.s2.s.T
	for a := l0; a < m; a++ {
		slab := zt[a*nn : (a+1)*nn]
		// T[a,b,c] = T[b,a,c] for b ≥ m: row a of slab b.
		for b := m; b < n; b++ {
			copy(slab[b*n:(b+1)*n], zt[b*nn+a*n:b*nn+(a+1)*n])
		}
		for b := 0; b < m; b++ {
			for c := m; c < n; c++ {
				slab[b*n+c] = slab[c*n+b]
			}
		}
		subtractSolvedSym(r.Row(a), zt, slab, m, n)
	}
}

// keepSymmetric sets T[l0,l0+1,c] and T[l0,c,l0+1] in p, the slab of
// l0, to T[l0+1,l0,c] from q, the slab of l0+1. A 2×2 block's solve
// yields the two from different parts; keeping one leaves the tensor
// exactly symmetric.
func keepSymmetric(p, q []float64, l0, m, n int) {
	for c := 0; c < m; c++ {
		p[(l0+1)*n+c] = q[l0*n+c]
		p[c*n+l0+1] = q[l0*n+c]
	}
}

// subtractSolvedSym subtracts Σ_{k ≥ m} R[a,k]·T[k,:,:] from the upper
// triangle of the leading m×m block of slab, rrow being row a of R.
func subtractSolvedSym(rrow, z, slab []float64, m, n int) {
	nn := n * n
	for b := 0; b < m; b++ {
		w := slab[b*n+b : b*n+m]
		off := b*n + b
		k := m
		// Four solved slabs per sweep over w.
		for ; k+4 <= n; k += 4 {
			r0, r1, r2, r3 := rrow[k], rrow[k+1], rrow[k+2], rrow[k+3]
			x0 := z[k*nn+off:][:len(w)]
			x1 := z[(k+1)*nn+off:][:len(w)]
			x2 := z[(k+2)*nn+off:][:len(w)]
			x3 := z[(k+3)*nn+off:][:len(w)]
			for i := range w {
				w[i] -= r0*x0[i] + r1*x1[i] + r2*x2[i] + r3*x3[i]
			}
		}
		for ; k < n; k++ {
			rk := rrow[k]
			xk := z[k*nn+off:][:len(w)]
			for i := range w {
				w[i] -= rk * xk[i]
			}
		}
	}
}
