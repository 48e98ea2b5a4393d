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
	w    []complex128 // the complexified slab pair of a 2×2 block
}

// Sym returns a Sym3 over the decomposition of ss.
func (ss *SumSolver3) Sym() *Sym3 {
	return &Sym3{ss: ss, blks: ss.s2.s.Blocks(), w: make([]complex128, ss.n*ss.n)}
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
		w := s.w
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
		// T[l0,l0+1,c] and T[l0+1,l0,c] come out of different parts of
		// the complex solve; keep one so the tensor stays exactly
		// symmetric.
		for c := 0; c < m; c++ {
			p[(l0+1)*n+c] = q[l0*n+c]
			p[c*n+l0+1] = q[l0*n+c]
		}
	}
	return nil
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
