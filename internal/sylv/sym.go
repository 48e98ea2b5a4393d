package sylv

import (
	"fmt"

	"avtmor/internal/mat"
)

// Symmetric right-hand sides. With B = A and C symmetric, the solution
// of A·X + X·Aᵀ + σ·X = C is symmetric too (transposing the equation
// leaves it unchanged), so only its upper triangle needs computing.
// These kernels run the TrSylvT recurrence — column blocks right to
// left, row blocks bottom up — over the upper triangle alone, mirror
// every entry as soon as it is known, and read X[j][l] = X[l][j] along
// row l, so both sums of an entry are contiguous dot products. They
// work in place and allocate nothing.
//
// A leading-block variant serves the ⊕³ recurrence of package kron:
// given X outside the leading m×m block (rows k < m, columns l ≥ m),
// the leading block solves with the sums still running to n, which
// folds in the coupling to the known entries.

// TrSylvSym solves the leading m×m block of A·X + X·Aᵀ + σ·X = C in
// place for upper quasi-triangular A (n×n) and symmetric C. x is n×n
// row-major. On entry it holds C on the upper triangle of the leading
// block (x[k·n+l], k ≤ l < m) and X right of that block (x[k·n+l],
// k < m ≤ l); nothing else is read. On exit the leading block holds X,
// computed on its upper triangle and mirrored into the lower one, so
// it is exactly symmetric. m = n solves the whole equation; m must not
// split a 2×2 diagonal block of A.
func TrSylvSym(a *mat.Dense, sigma float64, x []float64, m int) error {
	n := checkSym(a, len(x), m)
	xd := mat.Dense{R: n, C: n, A: x}
	var f [4]float64
	for l1 := m; l1 > 0; {
		l0 := blockStart(a, l1)
		ln := l1 - l0
		for k1 := l1; k1 > 0; {
			k0 := blockStart(a, k1)
			kn := k1 - k0
			for p := 0; p < kn; p++ {
				k := k0 + p
				arow := a.A[k*n+k1 : (k+1)*n]
				xk := x[k*n+l1 : (k+1)*n]
				for q := 0; q < ln; q++ {
					l := l0 + q
					if k > l {
						continue // the lower entry of a diagonal 2×2 pair
					}
					// C[k][l] − Σ_{j≥k1} A[k][j]·X[l][j] − Σ_{i≥l1} X[k][i]·A[l][i].
					s := x[k*n+l] - dot(arow, x[l*n+k1:(l+1)*n]) - dot(xk, a.A[l*n+l1:(l+1)*n])
					f[p*ln+q] = s
				}
			}
			if kn == 1 && ln == 1 {
				v := a.A[k0*n+k0] + a.A[l0*n+l0] + sigma
				if v == 0 {
					return ErrSingular
				}
				x[k0*n+l0] = f[0] / v
				x[l0*n+k0] = x[k0*n+l0]
			} else {
				if k0 == l0 {
					f[2] = f[1]
				}
				if err := solveSmallReal(a, a, k0, kn, l0, ln, sigma, f[:kn*ln], &xd); err != nil {
					return err
				}
				mirrorBlock(x, n, k0, kn, l0, ln)
			}
			k1 = k0
		}
		l1 = l0
	}
	return nil
}

// TrSylvSymC is TrSylvSym for complex σ and C (A stays real). X is
// complex symmetric, not Hermitian: it is mirrored without conjugation.
func TrSylvSymC(a *mat.Dense, sigma complex128, x []complex128, m int) error {
	n := checkSym(a, len(x), m)
	xd := mat.CDense{R: n, C: n, A: x}
	var f [4]complex128
	for l1 := m; l1 > 0; {
		l0 := blockStart(a, l1)
		ln := l1 - l0
		for k1 := l1; k1 > 0; {
			k0 := blockStart(a, k1)
			kn := k1 - k0
			for p := 0; p < kn; p++ {
				k := k0 + p
				arow := a.A[k*n+k1 : (k+1)*n]
				xk := x[k*n+l1 : (k+1)*n]
				for q := 0; q < ln; q++ {
					l := l0 + q
					if k > l {
						continue
					}
					f[p*ln+q] = x[k*n+l] - dotC(arow, x[l*n+k1:(l+1)*n]) - dotC(a.A[l*n+l1:(l+1)*n], xk)
				}
			}
			if kn == 1 && ln == 1 {
				v := complex(a.A[k0*n+k0]+a.A[l0*n+l0], 0) + sigma
				if v == 0 {
					return ErrSingular
				}
				x[k0*n+l0] = f[0] / v
				x[l0*n+k0] = x[k0*n+l0]
			} else {
				if k0 == l0 {
					f[2] = f[1]
				}
				if err := solveSmallCplx(a, a, k0, kn, l0, ln, sigma, f[:kn*ln], &xd); err != nil {
					return err
				}
				mirrorBlock(x, n, k0, kn, l0, ln)
			}
			k1 = k0
		}
		l1 = l0
	}
	return nil
}

func checkSym(a *mat.Dense, lx, m int) int {
	n := a.R
	if a.C != n || lx != n*n || m < 0 || m > n {
		panic(fmt.Sprintf("sylv: symmetric solve of A %d×%d, X of length %d, leading block %d", a.R, a.C, lx, m))
	}
	if m > 0 && m < n && a.A[m*n+m-1] != 0 {
		panic("sylv: symmetric solve's leading block splits a 2×2 block")
	}
	return n
}

// blockStart returns the first index of the diagonal block of the
// quasi-triangular a that ends just before l1.
func blockStart(a *mat.Dense, l1 int) int {
	if l1 >= 2 && a.A[(l1-1)*a.C+l1-2] != 0 {
		return l1 - 2
	}
	return l1 - 1
}

// mirrorBlock copies the block of x at rows k0.., columns l0.. (k0 ≤ l0)
// into its transpose position; on a diagonal pair the upper entry wins.
func mirrorBlock[T float64 | complex128](x []T, n, k0, kn, l0, ln int) {
	for p := 0; p < kn; p++ {
		for q := 0; q < ln; q++ {
			if k0 == l0 && p > q {
				continue
			}
			x[(l0+q)*n+k0+p] = x[(k0+p)*n+l0+q]
		}
	}
}

// dot returns Σ u[i]·v[i] over len(u) entries, in four partial sums so
// that no multiply-add waits on the previous one.
func dot(u, v []float64) float64 {
	v = v[:len(u)]
	var s0, s1, s2, s3 float64
	for len(u) >= 4 && len(v) >= 4 {
		s0 += u[0] * v[0]
		s1 += u[1] * v[1]
		s2 += u[2] * v[2]
		s3 += u[3] * v[3]
		u, v = u[4:], v[4:]
	}
	v = v[:len(u)]
	for i, x := range u {
		s0 += x * v[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// dotC is dot for real u and complex v.
func dotC(u []float64, v []complex128) complex128 {
	v = v[:len(u)]
	var re0, im0, re1, im1 float64
	for len(u) >= 2 && len(v) >= 2 {
		re0 += u[0] * real(v[0])
		im0 += u[0] * imag(v[0])
		re1 += u[1] * real(v[1])
		im1 += u[1] * imag(v[1])
		u, v = u[2:], v[2:]
	}
	if len(u) == 1 && len(v) == 1 {
		re0 += u[0] * real(v[0])
		im0 += u[0] * imag(v[0])
	}
	return complex(re0+re1, im0+im1)
}
