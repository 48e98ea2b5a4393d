// Package sylv solves Sylvester equations
//
//	A·X + X·B  + σ·X = C      (variant N)
//	A·X + X·Bᵀ + σ·X = C      (variant T)
//
// for A, B upper quasi-triangular (real Schur factors), by the classic
// block back-substitution of Bartels & Stewart (the dtrsyl algorithm),
// plus full-matrix wrappers that compute the Schur forms first.
//
// This is the workhorse behind the paper's structured solves: the
// Kronecker-sum resolvents of Theorem 1, the Sylvester decoupling
// G1·Π + G2 = Π·(⊕²G1) of Eq. (18), and the quasi-triangular
// back-substitution advocated in §2.3 all reduce to these kernels.
package sylv

import (
	"errors"
	"fmt"

	"avtmor/internal/mat"
)

// ErrSingular indicates the equation is (numerically) singular: some
// eigenvalue pairing λi(A) + λj(B) + σ vanishes.
var ErrSingular = errors.New("sylv: singular Sylvester equation (λi(A)+λj(B)+σ ≈ 0)")

// blocks returns the quasi-triangular diagonal block partition of t.
func blocks(t *mat.Dense) [][2]int {
	var out [][2]int
	n := t.R
	for i := 0; i < n; {
		if i+1 < n && t.At(i+1, i) != 0 {
			out = append(out, [2]int{i, 2})
			i += 2
		} else {
			out = append(out, [2]int{i, 1})
			i++
		}
	}
	return out
}

// TrSylvN solves A·X + X·B + σ·X = C for upper quasi-triangular A (m×m)
// and B (n×n), real σ, dense C (m×n). C is not modified.
func TrSylvN(a, b *mat.Dense, sigma float64, c *mat.Dense) (*mat.Dense, error) {
	return trSylvReal(a, b, sigma, c, false)
}

// TrSylvT solves A·X + X·Bᵀ + σ·X = C (same shapes as TrSylvN).
func TrSylvT(a, b *mat.Dense, sigma float64, c *mat.Dense) (*mat.Dense, error) {
	return trSylvReal(a, b, sigma, c, true)
}

func trSylvReal(a, b *mat.Dense, sigma float64, c *mat.Dense, transB bool) (*mat.Dense, error) {
	m, n := a.R, b.R
	if a.C != m || b.C != n || c.R != m || c.C != n {
		panic(fmt.Sprintf("sylv: shape mismatch A %d×%d B %d×%d C %d×%d", a.R, a.C, b.R, b.C, c.R, c.C))
	}
	x := mat.NewDense(m, n)
	// xc mirrors X column-major (xc[j·m+i] = X[i][j]) so the A·X sums
	// read a contiguous column; the N variant reads B by columns, i.e.
	// the rows of Bᵀ.
	xc := make([]float64, m*n)
	bc := b
	if !transB {
		bc = b.T()
	}
	ab := blocks(a)
	bb := blocks(b)
	// Column-block processing order depends on the B variant.
	lIdx := make([]int, len(bb))
	for i := range lIdx {
		if transB {
			lIdx[i] = len(bb) - 1 - i // right to left
		} else {
			lIdx[i] = i // left to right
		}
	}
	var f [4]float64
	for _, li := range lIdx {
		l0, ln := bb[li][0], bb[li][1]
		for ki := len(ab) - 1; ki >= 0; ki-- {
			k0, kn := ab[ki][0], ab[ki][1]
			// RHS block F = C_kl − Σ_{j>k} A_kj X_jl − (X·B or X·Bᵀ terms).
			for p := 0; p < kn; p++ {
				xrow := x.A[(k0+p)*n : (k0+p+1)*n]
				// Rows below the k block of A (A upper: columns j > k block).
				arow := a.A[(k0+p)*m+k0+kn : (k0+p+1)*m]
				for q := 0; q < ln; q++ {
					s := c.A[(k0+p)*n+l0+q]
					xcol := xc[(l0+q)*m+k0+kn : (l0+q+1)*m]
					xcol = xcol[:len(arow)]
					for j, av := range arow {
						s -= av * xcol[j]
					}
					brow := bc.A[(l0+q)*n : (l0+q+1)*n]
					if transB {
						// (X Bᵀ)_{k,l} = Σ_{i>l-block} X_ki·B_{l i} over processed cols.
						for i := l0 + ln; i < n; i++ {
							s -= xrow[i] * brow[i]
						}
					} else {
						// (X B)_{k,l} = Σ_{i<l-block} X_ki·B_{i l}.
						for i := 0; i < l0; i++ {
							s -= xrow[i] * brow[i]
						}
					}
					f[p*ln+q] = s
				}
			}
			if kn == 1 && ln == 1 {
				// The 1×1 case of solveSmallReal, same operations in the
				// same order: (0 + a_kk + b_ll + σ), then one division.
				v := 0.0
				v += a.A[k0*m+k0]
				v += b.A[l0*n+l0]
				v += sigma
				if v == 0 {
					return nil, ErrSingular
				}
				x.A[k0*n+l0] = f[0] / v
				xc[l0*m+k0] = x.A[k0*n+l0]
				continue
			}
			if err := solveSmallReal(a, b, k0, kn, l0, ln, sigma, transB, f[:kn*ln], x); err != nil {
				return nil, err
			}
			for p := 0; p < kn; p++ {
				for q := 0; q < ln; q++ {
					xc[(l0+q)*m+k0+p] = x.A[(k0+p)*n+l0+q]
				}
			}
		}
	}
	return x, nil
}

// solveSmallReal solves the ≤2×2 by ≤2×2 block equation
// A_kk·Xb + Xb·Bop + σ·Xb = F, with Bop = B_ll or B_llᵀ, and writes the
// block into x.
func solveSmallReal(a, b *mat.Dense, k0, kn, l0, ln int, sigma float64, transB bool, f []float64, x *mat.Dense) error {
	sz := kn * ln
	var sys [16]float64
	// Unknown ordering: x_{pq} at index p*ln+q.
	for p := 0; p < kn; p++ {
		for q := 0; q < ln; q++ {
			row := (p*ln + q) * sz
			for r := 0; r < kn; r++ {
				for s := 0; s < ln; s++ {
					v := 0.0
					if s == q {
						v += a.At(k0+p, k0+r)
					}
					if r == p {
						if transB {
							v += b.At(l0+q, l0+s) // (Bᵀ)_{sq} = B_{qs}
						} else {
							v += b.At(l0+s, l0+q)
						}
					}
					if r == p && s == q {
						v += sigma
					}
					sys[row+r*ln+s] = v
				}
			}
		}
	}
	var sol [4]float64
	if !gauss(sys[:sz*sz], f, sol[:sz], sz) {
		return ErrSingular
	}
	for p := 0; p < kn; p++ {
		for q := 0; q < ln; q++ {
			x.Set(k0+p, l0+q, sol[p*ln+q])
		}
	}
	return nil
}

// gauss solves an n×n (n ≤ 4) dense system in place with partial pivoting.
func gauss(a []float64, b []float64, x []float64, n int) bool {
	var aa [16]float64
	var bb [4]float64
	copy(aa[:], a[:n*n])
	copy(bb[:], b[:n])
	for k := 0; k < n; k++ {
		p, best := k, abs(aa[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := abs(aa[i*n+k]); v > best {
				p, best = i, v
			}
		}
		if best == 0 {
			return false
		}
		if p != k {
			for j := 0; j < n; j++ {
				aa[p*n+j], aa[k*n+j] = aa[k*n+j], aa[p*n+j]
			}
			bb[p], bb[k] = bb[k], bb[p]
		}
		inv := 1 / aa[k*n+k]
		for i := k + 1; i < n; i++ {
			l := aa[i*n+k] * inv
			if l == 0 {
				continue
			}
			for j := k; j < n; j++ {
				aa[i*n+j] -= l * aa[k*n+j]
			}
			bb[i] -= l * bb[k]
		}
	}
	for i := n - 1; i >= 0; i-- {
		s := bb[i]
		for j := i + 1; j < n; j++ {
			s -= aa[i*n+j] * x[j]
		}
		x[i] = s / aa[i*n+i]
	}
	return true
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
