// Package schur computes the real Schur decomposition A = Q T Qᵀ with Q
// orthogonal and T upper quasi-triangular (1×1 and standardized 2×2
// diagonal blocks), via Householder–Hessenberg reduction followed by the
// Francis implicit double-shift QR iteration.
//
// The paper's fast solver stack (§2.3) rests on this form: with
// G1 = Q R Qᵀ, the Kronecker sum ⊕ᵏG1 becomes quasi-triangular after the
// transform (Q⊗…⊗Q), so every resolvent application reduces to
// back-substitution. Package sylv and kron consume the factorization.
package schur

import (
	"errors"
	"math"

	"avtmor/internal/mat"
)

// Schur holds a real Schur decomposition A = Q·T·Qᵀ.
type Schur struct {
	Q *mat.Dense // orthogonal
	T *mat.Dense // upper quasi-triangular with standardized 2×2 blocks
	// BlockStart[i] reports whether a diagonal block starts at index i.
	// A 2×2 block starting at i occupies i, i+1.
	blockStart []bool
}

// maxIterFactor bounds the total QR sweeps at maxIterFactor·n.
const maxIterFactor = 60

// ErrNoConvergence is returned when the QR iteration fails to deflate.
var ErrNoConvergence = errors.New("schur: QR iteration did not converge")

// Decompose computes the real Schur decomposition of a square matrix.
// The input is not modified.
func Decompose(a *mat.Dense) (*Schur, error) {
	if a.R != a.C {
		return nil, errors.New("schur: matrix must be square")
	}
	n := a.R
	t := a.Clone()
	q := mat.Eye(n)
	hessenberg(t, q)
	if err := francis(t, q); err != nil {
		return nil, err
	}
	s := &Schur{Q: q, T: t}
	s.scanBlocks()
	return s, nil
}

// hessenberg reduces h to upper Hessenberg form in place, accumulating the
// orthogonal transform into q (q ← q·P for each reflector P).
func hessenberg(h, q *mat.Dense) {
	n := h.R
	for k := 0; k+2 < n; k++ {
		// Householder vector for h[k+1:n, k].
		x := make([]float64, n-k-1)
		for i := k + 1; i < n; i++ {
			x[i-k-1] = h.At(i, k)
		}
		alpha := mat.Norm2(x)
		if alpha == 0 {
			continue
		}
		if x[0] > 0 {
			alpha = -alpha
		}
		v := mat.CopyVec(x)
		v[0] -= alpha
		vn := mat.Norm2(v)
		if vn == 0 {
			continue
		}
		mat.ScaleVec(1/vn, v)
		reflectRows(h, v, k+1, 0)
		reflectCols(h, v, k+1, n)
		reflectCols(q, v, k+1, n)
		// Clean the annihilated entries.
		h.Set(k+1, k, alpha)
		for i := k + 2; i < n; i++ {
			h.Set(i, k, 0)
		}
	}
}

// reflectRows applies P = I − 2vvᵀ (v occupying rows r0..r0+len(v)-1) from
// the left: m ← P·m, touching columns c0..end.
func reflectRows(m *mat.Dense, v []float64, r0, c0 int) {
	if len(v) == 3 {
		// The Francis sweep's reflector, unrolled: the same operations
		// in the same order as the loop below.
		v0, v1, v2 := v[0], v[1], v[2]
		a, b, c := m.Row(r0)[c0:], m.Row(r0 + 1)[c0:], m.Row(r0 + 2)[c0:]
		b, c = b[:len(a)], c[:len(a)]
		for j := range a {
			s := 0.0
			s += v0 * a[j]
			s += v1 * b[j]
			s += v2 * c[j]
			s *= 2
			if s == 0 {
				continue
			}
			a[j] += -s * v0
			b[j] += -s * v1
			c[j] += -s * v2
		}
		return
	}
	for j := c0; j < m.C; j++ {
		s := 0.0
		for i, vi := range v {
			s += vi * m.At(r0+i, j)
		}
		s *= 2
		if s == 0 {
			continue
		}
		for i, vi := range v {
			m.Add(r0+i, j, -s*vi)
		}
	}
}

// reflectCols applies P from the right: m ← m·P, v occupying columns
// c0..c0+len(v)-1, touching rows 0..r1-1.
func reflectCols(m *mat.Dense, v []float64, c0, r1 int) {
	if len(v) == 3 {
		v0, v1, v2 := v[0], v[1], v[2]
		for i := 0; i < r1; i++ {
			row := m.Row(i)[c0 : c0+3]
			s := 0.0
			s += v0 * row[0]
			s += v1 * row[1]
			s += v2 * row[2]
			s *= 2
			if s == 0 {
				continue
			}
			row[0] -= s * v0
			row[1] -= s * v1
			row[2] -= s * v2
		}
		return
	}
	for i := 0; i < r1; i++ {
		row := m.Row(i)
		s := 0.0
		for j, vj := range v {
			s += vj * row[c0+j]
		}
		s *= 2
		if s == 0 {
			continue
		}
		for j, vj := range v {
			row[c0+j] -= s * vj
		}
	}
}

// francis runs the implicit double-shift QR iteration on the Hessenberg
// matrix h, accumulating transforms into q, until h is quasi-triangular.
func francis(h, q *mat.Dense) error {
	n := h.R
	if n <= 1 {
		return nil
	}
	const ulp = 2.220446049250313e-16
	smlnum := math.SmallestNonzeroFloat64 / ulp * float64(n)
	hi := n - 1
	sinceDeflate := 0
	budget := maxIterFactor * n
	for hi >= 0 {
		if budget <= 0 {
			return ErrNoConvergence
		}
		// Find the start of the active block: walk up while the
		// subdiagonal is non-negligible.
		lo := hi
		for lo > 0 {
			sub := math.Abs(h.At(lo, lo-1))
			if sub <= smlnum || sub <= ulp*(math.Abs(h.At(lo-1, lo-1))+math.Abs(h.At(lo, lo))) {
				h.Set(lo, lo-1, 0)
				break
			}
			lo--
		}
		switch {
		case lo == hi: // 1×1 block converged
			hi--
			sinceDeflate = 0
		case lo == hi-1: // 2×2 block converged: standardize and deflate
			standardize2x2(h, q, lo)
			hi -= 2
			sinceDeflate = 0
		default:
			sinceDeflate++
			budget--
			exceptional := sinceDeflate%14 == 0
			doubleShiftSweep(h, q, lo, hi, exceptional)
		}
	}
	return nil
}

// doubleShiftSweep performs one implicit double-shift bulge chase on the
// active window rows/cols lo..hi (inclusive, size ≥ 3).
//
// The reflectors touch only the part of h that can be nonzero: the
// reflector at k updates columns ≥ k−1 of rows k..k+2 and rows
// ≤ min(k+3, hi) of columns k..k+2. Every entry a full update would
// also visit is an exact zero, which the update leaves unchanged, or
// lies below the subdiagonal left of the bulge, which nothing reads
// before the clean-up at the end zeroes it; so h and q come out
// bit-identical to full-width updates. q is updated on all rows.
func doubleShiftSweep(h, q *mat.Dense, lo, hi int, exceptional bool) {
	var s, t float64
	if exceptional {
		// Ad-hoc exceptional shift (Wilkinson's recipe) breaks cycles.
		w := math.Abs(h.At(hi, hi-1)) + math.Abs(h.At(hi-1, hi-2))
		s = 1.5 * w
		t = w * w * 0.75 * 0.9375
	} else {
		s = h.At(hi-1, hi-1) + h.At(hi, hi)
		t = h.At(hi-1, hi-1)*h.At(hi, hi) - h.At(hi-1, hi)*h.At(hi, hi-1)
	}
	x := h.At(lo, lo)*h.At(lo, lo) + h.At(lo, lo+1)*h.At(lo+1, lo) - s*h.At(lo, lo) + t
	y := h.At(lo+1, lo) * (h.At(lo, lo) + h.At(lo+1, lo+1) - s)
	z := h.At(lo+1, lo) * h.At(lo+2, lo+1)

	for k := lo; k <= hi-2; k++ {
		v := [3]float64{x, y, z}
		if householder(v[:]) {
			reflectRows(h, v[:], k, max(k-1, 0))
			reflectCols(h, v[:], k, min(k+3, hi)+1)
			reflectCols(q, v[:], k, q.R)
		}
		if k < hi-2 {
			x = h.At(k+1, k)
			y = h.At(k+2, k)
			if k+3 <= hi {
				z = h.At(k+3, k)
			} else {
				z = 0
			}
		}
	}
	// Trailing 2-vector reflector to restore Hessenberg form at the bottom.
	if v := [2]float64{h.At(hi-1, hi-2), h.At(hi, hi-2)}; householder(v[:]) {
		reflectRows(h, v[:], hi-1, hi-2)
		reflectCols(h, v[:], hi-1, hi+1)
		reflectCols(q, v[:], hi-1, q.R)
	}
	// Clean below-bulge entries that should be exactly zero.
	for i := lo + 2; i <= hi; i++ {
		for j := lo; j <= i-2; j++ {
			h.Set(i, j, 0)
		}
	}
}

// householder overwrites the 2- or 3-vector x with the unit vector of
// the reflector that maps x onto a multiple of e1. It returns false when
// there is no reflector to apply (x is zero); x is then unusable.
func householder(x []float64) bool {
	alpha := mat.Norm2(x)
	if alpha == 0 {
		return false
	}
	if x[0] > 0 {
		alpha = -alpha
	}
	x[0] -= alpha
	vn := mat.Norm2(x)
	if vn == 0 {
		return false
	}
	mat.ScaleVec(1/vn, x)
	return true
}

// standardize2x2 rotates the 2×2 diagonal block at rows/cols p, p+1 into
// standard form: either upper triangular (real eigenvalues) or
// [[α, β],[γ, α]] with βγ < 0 (complex pair α ± i√(−βγ)). The rotation is
// applied as a full similarity on h and accumulated into q.
func standardize2x2(h, q *mat.Dense, p int) {
	a, b := h.At(p, p), h.At(p, p+1)
	c, d := h.At(p+1, p), h.At(p+1, p+1)
	if c == 0 {
		return // already triangular
	}
	tr := a + d
	det := a*d - b*c
	disc := tr*tr/4 - det
	if disc >= 0 {
		// Real eigenvalues: rotate an eigenvector onto e1.
		root := math.Sqrt(disc)
		// Pick the eigenvalue that keeps the eigenvector well-scaled.
		lambda := tr/2 + root
		if math.Abs(lambda-a) < math.Abs(tr/2-root-a) {
			lambda = tr/2 - root
		}
		// Eigenvector of [[a-λ, b],[c, d-λ]]: rows are parallel; use the
		// better-conditioned one.
		var vx, vy float64
		if math.Abs(b)+math.Abs(a-lambda) >= math.Abs(d-lambda)+math.Abs(c) {
			vx, vy = b, lambda-a
		} else {
			vx, vy = lambda-d, c
		}
		applyGivens(h, q, p, vx, vy)
		h.Set(p+1, p, 0)
		return
	}
	// Complex pair: rotate so the diagonal entries are equal.
	// For G = [[cs,sn],[-sn,cs]]: (GMGᵀ)00 − (GMGᵀ)11 =
	// cos2θ·(a−d) + sin2θ·(b+c); solve for θ.
	var cs, sn float64
	if b+c == 0 {
		if a == d {
			return
		}
		// Need cos2θ = 0: θ = π/4.
		cs, sn = math.Sqrt2/2, math.Sqrt2/2
	} else {
		theta := 0.5 * math.Atan2(-(a-d), b+c)
		cs, sn = math.Cos(theta), math.Sin(theta)
	}
	rotate(h, q, p, cs, sn)
	// Force exact symmetry of the standardized form.
	avg := (h.At(p, p) + h.At(p+1, p+1)) / 2
	h.Set(p, p, avg)
	h.Set(p+1, p+1, avg)
}

// applyGivens builds the Givens rotation aligning (vx,vy) with e1 and
// applies it as a similarity at position p.
func applyGivens(h, q *mat.Dense, p int, vx, vy float64) {
	r := math.Hypot(vx, vy)
	if r == 0 {
		return
	}
	rotate(h, q, p, vx/r, vy/r)
}

// rotate applies G = [[cs, sn],[-sn, cs]] as h ← G·h·Gᵀ at rows/cols
// p, p+1 and accumulates q ← q·Gᵀ.
func rotate(h, q *mat.Dense, p int, cs, sn float64) {
	n := h.C
	for j := 0; j < n; j++ {
		u, v := h.At(p, j), h.At(p+1, j)
		h.Set(p, j, cs*u+sn*v)
		h.Set(p+1, j, -sn*u+cs*v)
	}
	for i := 0; i < h.R; i++ {
		u, v := h.At(i, p), h.At(i, p+1)
		h.Set(i, p, cs*u+sn*v)
		h.Set(i, p+1, -sn*u+cs*v)
	}
	for i := 0; i < q.R; i++ {
		u, v := q.At(i, p), q.At(i, p+1)
		q.Set(i, p, cs*u+sn*v)
		q.Set(i, p+1, -sn*u+cs*v)
	}
}

// scanBlocks records where diagonal blocks start.
func (s *Schur) scanBlocks() {
	n := s.T.R
	s.blockStart = make([]bool, n)
	for i := 0; i < n; {
		s.blockStart[i] = true
		if i+1 < n && s.T.At(i+1, i) != 0 {
			i += 2
		} else {
			i++
		}
	}
}

// Blocks returns the start index and size (1 or 2) of each diagonal block.
func (s *Schur) Blocks() [][2]int {
	var out [][2]int
	n := s.T.R
	for i := 0; i < n; {
		if i+1 < n && s.T.At(i+1, i) != 0 {
			out = append(out, [2]int{i, 2})
			i += 2
		} else {
			out = append(out, [2]int{i, 1})
			i++
		}
	}
	return out
}

// Eigenvalues returns the spectrum read off the quasi-triangular factor.
func (s *Schur) Eigenvalues() []complex128 {
	t := s.T
	n := t.R
	eig := make([]complex128, 0, n)
	for _, blk := range s.Blocks() {
		i, sz := blk[0], blk[1]
		if sz == 1 {
			eig = append(eig, complex(t.At(i, i), 0))
			continue
		}
		alpha := (t.At(i, i) + t.At(i+1, i+1)) / 2
		prod := t.At(i, i+1) * t.At(i+1, i)
		beta := math.Sqrt(math.Max(0, -prod))
		eig = append(eig, complex(alpha, beta), complex(alpha, -beta))
	}
	return eig
}

// Eigenvalues computes the eigenvalues of a square matrix.
func Eigenvalues(a *mat.Dense) ([]complex128, error) {
	s, err := Decompose(a)
	if err != nil {
		return nil, err
	}
	return s.Eigenvalues(), nil
}
