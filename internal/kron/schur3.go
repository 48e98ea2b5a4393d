package kron

import (
	"context"
	"math"

	"avtmor/internal/mat"
	"avtmor/internal/sylv"
)

// Order-3 solves in Schur coordinates. With A = Q·R·Qᵀ,
//
//	⊕³A − σI = (Q⊗Q⊗Q)·(⊕³R − σI)·(Q⊗Q⊗Q)ᵀ,
//
// so a chain of resolvent powers maps its start vector into Schur
// coordinates once (ToSchur), runs every power on R alone (SolveSchur),
// and maps back only what it reads: the whole vector (FromSchur) or
// the entries a sparse coupling uses (assoc's gather). SumSolver3.Solve
// is that sequence for a single power.

// SumSolver3 solves (⊕³A − σI)·z = v. Viewing z = vec(X) with
// X ∈ R^{n²×n}, the equation is (⊕²A)·X + X·Aᵀ − σ·X = V; in Schur
// coordinates it is a Bartels–Stewart recurrence over the column blocks
// of R whose inner solves are quasi-triangular ⊕²R Sylvester equations
// (complexified across 2×2 Schur blocks).
type SumSolver3 struct {
	n  int
	s2 *SumSolver2
}

// NewSumSolver3 caches the Schur form of a.
func NewSumSolver3(a *mat.Dense) (*SumSolver3, error) {
	s2, err := NewSumSolver2(a)
	if err != nil {
		return nil, err
	}
	return s2.Sum3(), nil
}

// Sum3 returns the order-3 solver over the same decomposition.
func (ss *SumSolver2) Sum3() *SumSolver3 { return &SumSolver3{n: ss.n, s2: ss} }

// N returns the base dimension n (the solver acts on length-n³ vectors).
func (ss *SumSolver3) N() int { return ss.n }

// Sum2 returns the order-2 solver sharing this decomposition.
func (ss *SumSolver3) Sum2() *SumSolver2 { return ss.s2 }

// Solve computes z with (⊕³A − σI)·z = v for real σ and v of length n³.
func (ss *SumSolver3) Solve(sigma float64, v []float64) ([]float64, error) {
	ss.checkLen(len(v))
	zt := ss.s2.ToSchur(v, 3)
	if err := ss.SolveSchur(context.Background(), sigma, zt); err != nil {
		return nil, err
	}
	return ss.s2.FromSchur(zt, 3), nil
}

func (ss *SumSolver3) checkLen(l int) {
	if l != ss.n*ss.n*ss.n {
		panic("kron: SumSolver3 length mismatch")
	}
}

// SolveSchur overwrites zt, a length-n³ vector in Schur coordinates,
// with (⊕³R − σI)⁻¹·zt. Column blocks of R are processed right to
// left; each costs one ⊕²R solve (one complex solve for a 2×2 block)
// plus the coupling to the columns already solved. ctx is polled once
// per column block.
func (ss *SumSolver3) SolveSchur(ctx context.Context, sigma float64, zt []float64) error {
	ss.checkLen(len(zt))
	n, nn := ss.n, ss.n*ss.n
	r := ss.s2.s.T
	blks := ss.s2.s.Blocks()
	for bi := len(blks) - 1; bi >= 0; bi-- {
		if err := ctx.Err(); err != nil {
			return err
		}
		l0, ln := blks[bi][0], blks[bi][1]
		cols := subtractSolved(r, zt, nn, l0, ln)
		if ln == 1 {
			x, err := sylv.TrSylvT(r, r, -(sigma - r.At(l0, l0)), &mat.Dense{R: n, C: n, A: cols[0]})
			if err != nil {
				return err
			}
			copy(cols[0], x.A)
			continue
		}
		// Standardized 2×2 block [[α,β],[γ,α]], βγ<0: complexify into one
		// complex solve (⊕²R − (σ−α−iμ)I)·(x_p + i·s·x_q) = w_p + i·s·w_q
		// with μ = √(−βγ), s = −β/μ.
		alpha, beta, gamma := r.At(l0, l0), r.At(l0, l0+1), r.At(l0+1, l0)
		mu := math.Sqrt(-beta * gamma)
		sc := -beta / mu
		w := mat.NewCDense(n, n)
		for i := range w.A {
			w.A[i] = complex(cols[0][i], sc*cols[1][i])
		}
		z, err := sylv.TrSylvTC(r, r, -complex(sigma-alpha, -mu), w)
		if err != nil {
			return err
		}
		for i, zi := range z.A {
			cols[0][i] = real(zi)
			cols[1][i] = imag(zi) / sc
		}
	}
	return nil
}

// subtractSolved returns the ln columns of block l0 of z (n columns of
// length nn, stored contiguously) after subtracting the coupling
// Σ_{k ≥ l0+ln} R[l,k]·x_k to the columns already solved. The columns
// of a vec(Y) layout are read as Yᵀ in row-major order, which the ⊕²R
// operator maps to the transpose of its image, so each column is
// passed to the Sylvester kernel as is.
func subtractSolved(r *mat.Dense, z []float64, nn, l0, ln int) [][]float64 {
	n := r.R
	cols := make([][]float64, ln)
	for p := range cols {
		w := z[(l0+p)*nn : (l0+p+1)*nn]
		rrow := r.Row(l0 + p)
		k := l0 + ln
		// Four solved columns per sweep over w.
		for ; k+4 <= n; k += 4 {
			r0, r1, r2, r3 := rrow[k], rrow[k+1], rrow[k+2], rrow[k+3]
			x0 := z[k*nn : (k+1)*nn][:len(w)]
			x1 := z[(k+1)*nn : (k+2)*nn][:len(w)]
			x2 := z[(k+2)*nn : (k+3)*nn][:len(w)]
			x3 := z[(k+3)*nn : (k+4)*nn][:len(w)]
			for i := range w {
				w[i] -= r0*x0[i] + r1*x1[i] + r2*x2[i] + r3*x3[i]
			}
		}
		for ; k < n; k++ {
			xk := z[k*nn : (k+1)*nn][:len(w)]
			for i := range w {
				w[i] -= rrow[k] * xk[i]
			}
		}
		cols[p] = w
	}
	return cols
}

// ToSchur returns (Q⊗…⊗Q)ᵀ·v for a d-way tensor v of length nᵈ.
func (ss *SumSolver2) ToSchur(v []float64, d int) []float64 { return kronPow(ss.qt, ss.s.Q, v, d) }

// FromSchur returns (Q⊗…⊗Q)·zt for a d-way tensor zt of length nᵈ.
func (ss *SumSolver2) FromSchur(zt []float64, d int) []float64 {
	return kronPow(ss.s.Q, ss.qt, zt, d)
}

// kronPow returns (m⊗…⊗m)·t for a d-way tensor t of length nᵈ (mode 0
// slowest, the VecKron convention), one mode product at a time; mt is
// mᵀ.
func kronPow(m, mt *mat.Dense, t []float64, d int) []float64 {
	n := m.R
	var bufs [2][]float64
	src, stride := t, len(t)
	for mode := 0; mode < d; mode++ {
		stride /= n
		dst := bufs[mode%2]
		if dst == nil {
			dst = make([]float64, len(t))
			bufs[mode%2] = dst
		}
		modeProduct(m, mt, src, dst, stride)
		src = dst
	}
	return src
}

// modeChunk bounds the slab width of a mode product so that the n rows
// it streams stay cache-resident.
const modeChunk = 256

// modeProduct computes dst[o,i,s] = Σ_k m[i,k]·src[o,k,s], the product
// of m along the mode whose index has the given stride. Every inner
// loop is an axpy over independent entries; the fastest mode reads the
// rows of mt = mᵀ for that.
func modeProduct(m, mt *mat.Dense, src, dst []float64, stride int) {
	n := m.R
	blk := n * stride
	for base := 0; base < len(src); base += blk {
		if stride == 1 {
			o := dst[base : base+n]
			clear(o)
			for k, v := range src[base : base+n] {
				if v == 0 {
					continue
				}
				for i, mik := range mt.Row(k) {
					o[i] += mik * v
				}
			}
			continue
		}
		for c0 := 0; c0 < stride; c0 += modeChunk {
			c1 := min(c0+modeChunk, stride)
			for i := 0; i < n; i++ {
				orow := dst[base+i*stride+c0 : base+i*stride+c1]
				clear(orow)
				for k, mik := range m.Row(i) {
					if mik == 0 {
						continue
					}
					srow := src[base+k*stride+c0 : base+k*stride+c1]
					for x, v := range srow {
						orow[x] += mik * v
					}
				}
			}
		}
	}
}
