package sylv

import (
	"fmt"
	"math/cmplx"

	"avtmor/internal/mat"
)

// Complex-shift variants. A and B stay real quasi-triangular (they come
// from one cached real Schur decomposition); the shift σ and the
// right-hand side are complex. These appear whenever a 2×2 Schur block
// (complex eigenvalue pair) is complexified into a single shifted solve,
// and when evaluating transfer functions at s = jω.

// TrSylvTC solves A·X + X·Bᵀ + σ·X = C with complex σ and C, in the
// operation order of TrSylvT.
func TrSylvTC(a, b *mat.Dense, sigma complex128, c *mat.CDense) (*mat.CDense, error) {
	m, n := a.R, b.R
	if a.C != m || b.C != n || c.R != m || c.C != n {
		panic(fmt.Sprintf("sylv: shape mismatch A %d×%d B %d×%d C %d×%d", a.R, a.C, b.R, b.C, c.R, c.C))
	}
	x := mat.NewCDense(m, n)
	// Column-major mirror of X, as in TrSylvT.
	xc := make([]complex128, m*n)
	ab := blocks(a)
	bb := blocks(b)
	var f [4]complex128
	for li := len(bb) - 1; li >= 0; li-- {
		l0, ln := bb[li][0], bb[li][1]
		for ki := len(ab) - 1; ki >= 0; ki-- {
			k0, kn := ab[ki][0], ab[ki][1]
			for p := 0; p < kn; p++ {
				xrow := x.A[(k0+p)*n : (k0+p+1)*n]
				arow := a.A[(k0+p)*m+k0+kn : (k0+p+1)*m]
				for q := 0; q < ln; q++ {
					s := c.A[(k0+p)*n+l0+q]
					xcol := xc[(l0+q)*m+k0+kn : (l0+q+1)*m]
					xcol = xcol[:len(arow)]
					for j, av := range arow {
						s -= complex(av, 0) * xcol[j]
					}
					brow := b.A[(l0+q)*n : (l0+q+1)*n]
					for i := l0 + ln; i < n; i++ {
						s -= xrow[i] * complex(brow[i], 0)
					}
					f[p*ln+q] = s
				}
			}
			if kn == 1 && ln == 1 {
				// The 1×1 case of solveSmallCplx, as in TrSylvT.
				var v complex128
				v += complex(a.A[k0*m+k0], 0)
				v += complex(b.A[l0*n+l0], 0)
				v += sigma
				if v == 0 {
					return nil, ErrSingular
				}
				x.A[k0*n+l0] = f[0] / v
				xc[l0*m+k0] = x.A[k0*n+l0]
				continue
			}
			if err := solveSmallCplx(a, b, k0, kn, l0, ln, sigma, f[:kn*ln], x); err != nil {
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

func solveSmallCplx(a, b *mat.Dense, k0, kn, l0, ln int, sigma complex128, f []complex128, x *mat.CDense) error {
	sz := kn * ln
	var sys [16]complex128
	for p := 0; p < kn; p++ {
		for q := 0; q < ln; q++ {
			row := (p*ln + q) * sz
			for r := 0; r < kn; r++ {
				for s := 0; s < ln; s++ {
					var v complex128
					if s == q {
						v += complex(a.At(k0+p, k0+r), 0)
					}
					if r == p {
						v += complex(b.At(l0+q, l0+s), 0)
					}
					if r == p && s == q {
						v += sigma
					}
					sys[row+r*ln+s] = v
				}
			}
		}
	}
	var sol [4]complex128
	if !gaussC(sys[:sz*sz], f, sol[:sz], sz) {
		return ErrSingular
	}
	for p := 0; p < kn; p++ {
		for q := 0; q < ln; q++ {
			x.Set(k0+p, l0+q, sol[p*ln+q])
		}
	}
	return nil
}

func gaussC(a []complex128, b []complex128, x []complex128, n int) bool {
	var aa [16]complex128
	var bb [4]complex128
	copy(aa[:], a[:n*n])
	copy(bb[:], b[:n])
	for k := 0; k < n; k++ {
		p, best := k, cmplx.Abs(aa[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := cmplx.Abs(aa[i*n+k]); v > best {
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
