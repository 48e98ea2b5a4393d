package sparse

// Packed is a Kronecker-power coupling of degree 2 or 3, G2 ∈ R^{r×n²}
// or G3 ∈ R^{r×n³}, folded onto its distinct monomials. Only the
// symmetric part of G acts on x⊗x and x⊗x⊗x, so each row keeps one
// coefficient per monomial x_p·x_q (p ≤ q) or x_p·x_q·x_w (p ≤ q ≤ w),
// in lexicographic order: n(n+1)/2 or n(n+1)(n+2)/6 slots against the
// n² or n³ columns of the CSR form. A coefficient is the sum of every
// CSR entry that names its monomial, in whatever index order. AddApply
// forms each monomial once per call and reads no index. A Packed owns
// the scratch AddApply forms the monomials in, so it serves one
// goroutine at a time; its coefficients never change once built.
type Packed struct {
	rows, n, deg int
	val          []float64 // rows × len(mono), row-major
	mono         []float64 // AddApply's scratch: the monomials of x
}

// monomials returns the number of distinct monomials of degree deg
// (2 or 3) in n variables.
func monomials(n, deg int) int {
	if deg == 2 {
		return n * (n + 1) / 2
	}
	return n * (n + 1) / 2 * (n + 2) / 3
}

// slot2 is the lexicographic position of x_p·x_q, p ≤ q < n, among the
// degree-2 monomials in n variables: the monomials that start below p
// come first.
func slot2(n, p, q int) int {
	return monomials(n, 2) - monomials(n-p, 2) + q - p
}

// slot3 is slot2's degree-3 analogue for x_p·x_q·x_w, p ≤ q ≤ w < n.
// Within the block of monomials that start at p, (q, w) runs over the
// degree-2 monomials in the n−p variables from p on.
func slot3(n, p, q, w int) int {
	return monomials(n, 3) - monomials(n-p, 3) + slot2(n-p, q-p, w-p)
}

// Pack returns the packed form of m, a degree-deg (2 or 3) Kronecker
// power coupling over n states, or nil when m stores fewer than half as
// many entries as the packed form would have slots. Such a coupling —
// every full circuit model's, whose rows hold a few nonzeros each —
// keeps the indexed kernels, which read only its nonzeros. The rule
// reads m's entry count alone, so a rejected coupling costs no
// allocation. Entries are summed into their slots in CSR order.
func (m *CSR) Pack(n, deg int) *Packed {
	if deg != 2 && deg != 3 {
		panic("sparse: Pack degree must be 2 or 3")
	}
	cols := n * n
	if deg == 3 {
		cols *= n
	}
	if m.Cols != cols {
		panic("sparse: Pack shape mismatch")
	}
	slots := monomials(n, deg)
	// 2·nnz ≥ rows·slots, in a form that cannot overflow.
	if m.Rows == 0 || slots > 2*m.NNZ()/m.Rows {
		return nil
	}
	pk := &Packed{rows: m.Rows, n: n, deg: deg, val: make([]float64, m.Rows*slots), mono: make([]float64, slots)}
	for r := 0; r < m.Rows; r++ {
		row := pk.val[r*slots : (r+1)*slots]
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			c := m.ColIdx[k]
			var s int
			if deg == 2 {
				p, q := c/n, c%n
				s = slot2(n, min(p, q), max(p, q))
			} else {
				p, q, w := c/(n*n), (c/n)%n, c%n
				lo, hi := min(p, q, w), max(p, q, w)
				s = slot3(n, lo, p+q+w-lo-hi, hi)
			}
			row[s] += m.Val[k]
		}
	}
	return pk
}

// row returns the coefficients of row r, clamped to the last row so
// that a final group of fewer than four rows repeats it.
func (pk *Packed) row(r int) []float64 {
	r, slots := min(r, pk.rows-1), len(pk.mono)
	return pk.val[r*slots : (r+1)*slots]
}

// AddApply computes dst += a·G2·(x⊗x) or dst += a·G3·(x⊗x⊗x): it forms
// the monomials of x once, then takes each row's dot product with them.
// Four rows advance together so that their sum chains overlap; a last
// group of fewer rows repeats its final row and drops the copies.
func (pk *Packed) AddApply(dst []float64, a float64, x []float64) {
	if len(x) != pk.n || len(dst) != pk.rows {
		panic("sparse: Packed.AddApply length mismatch")
	}
	z := pk.mono
	k := 0
	for p, xp := range x {
		if pk.deg == 2 {
			k += scaleInto(z[k:], xp, x[p:])
			continue
		}
		for q := p; q < len(x); q++ {
			k += scaleInto(z[k:], xp*x[q], x[q:])
		}
	}
	for r := 0; r < pk.rows; r += 4 {
		s := dotRows4(pk.row(r), pk.row(r+1), pk.row(r+2), pk.row(r+3), z)
		for i := 0; i < 4 && r+i < pk.rows; i++ {
			dst[r+i] += a * s[i]
		}
	}
}

// scaleInto writes c·x[i] to dst[i] and returns len(x).
func scaleInto(dst []float64, c float64, x []float64) int {
	dst = dst[:len(x)]
	for i, xi := range x {
		dst[i] = c * xi
	}
	return len(x)
}

// dotRows4 returns the dot product of each of v0…v3 with z, summed in
// ascending order.
func dotRows4(v0, v1, v2, v3, z []float64) [4]float64 {
	v0, v1, v2, v3 = v0[:len(z)], v1[:len(z)], v2[:len(z)], v3[:len(z)]
	var s0, s1, s2, s3 float64
	for k, t := range z {
		s0 += v0[k] * t
		s1 += v1[k] * t
		s2 += v2[k] * t
		s3 += v3[k] * t
	}
	return [4]float64{s0, s1, s2, s3}
}

// Jacobian accumulates a·∂/∂x [G2·(x⊗x)] or a·∂/∂x [G3·(x⊗x⊗x)] into
// dst (dense rows×n, row-major). It adds to every entry of every row,
// zero coefficients included.
func (pk *Packed) Jacobian(dst []float64, a float64, x []float64) {
	n := pk.n
	if len(x) != n || len(dst) != pk.rows*n {
		panic("sparse: Packed.Jacobian length mismatch")
	}
	for r := 0; r < pk.rows; r++ {
		if pk.deg == 2 {
			jacobianRow2(dst[r*n:(r+1)*n], pk.row(r), a, x)
		} else {
			jacobianRow3(dst[r*n:(r+1)*n], pk.row(r), a, x)
		}
	}
}

// jacobianRow2 adds a·∂/∂x Σ v[k]·x_p·x_q to row. Monomial (p, q)
// adds v·x_q to column p and v·x_p to column q; the column-p terms of
// block p are summed in a register first.
func jacobianRow2(row, v []float64, a float64, x []float64) {
	row = row[:len(x)]
	k := 0
	for p, xp := range x {
		tail := x[p:]
		rt := row[p:]
		u := v[k : k+len(tail)]
		t := 0.0
		for i, xq := range tail {
			c := a * u[i]
			t += c * xq
			rt[i] += c * xp
		}
		row[p] += t
		k += len(tail)
	}
}

// jacobianRow3 is jacobianRow2's degree-3 analogue: monomial
// (p, q, w) adds v·x_q·x_w to column p, v·x_p·x_w to column q and
// v·x_p·x_q to column w. For fixed (p, q), t = Σ_w v·x_w carries the
// first two.
func jacobianRow3(row, v []float64, a float64, x []float64) {
	row = row[:len(x)]
	k := 0
	for p, xp := range x {
		for q := p; q < len(x); q++ {
			xq := x[q]
			xpq := xp * xq
			tail := x[q:]
			rt := row[q:]
			u := v[k : k+len(tail)]
			t := 0.0
			for i, xw := range tail {
				c := a * u[i]
				t += c * xw
				rt[i] += c * xpq
			}
			row[p] += t * xq
			row[q] += t * xp
			k += len(tail)
		}
	}
}
