package sparse

// Kernels for the Kronecker-power couplings of the QLDAE: a row of
// G2 ∈ R^{n×n²} indexes column (p·n+q) ↔ the monomial x_p·x_q, matching
// package kron's (x⊗x)[p·n+q] = x_p·x_q convention; G3 ∈ R^{n×n³} indexes
// (p·n+q)·n+r ↔ x_p·x_q·x_r.

// kronIndex holds the decoded Kronecker factor indices of every
// nonzero: (p, q) for a Kronecker-square column c = p·n + q, (p, q, r)
// for a cube column c = (p·n + q)·n + r. full reports a Kronecker-square
// matrix whose every row stores all n² columns in ascending order (a
// projected ROM's G2), which the quadratic kernels walk without the
// indices. It is immutable once published.
type kronIndex struct {
	p, q, r []int32
	full    bool
}

// quadIndex returns the (p, q) factor indices of every nonzero for
// Kronecker-square columns, decoding them on first use. Decoding once
// removes the per-nonzero integer division from the simulation hot
// loop; publishing through an atomic pointer lets concurrent
// simulations of one system share the matrix (a racing first use
// decodes twice and keeps the first result, which is identical).
func (m *CSR) quadIndex(n int) *kronIndex {
	if ix := m.quad.Load(); ix != nil {
		return ix
	}
	ix := &kronIndex{p: make([]int32, len(m.ColIdx)), q: make([]int32, len(m.ColIdx))}
	for k, c := range m.ColIdx {
		ix.p[k] = int32(c / n)
		ix.q[k] = int32(c % n)
	}
	ix.full = len(m.ColIdx) == m.Rows*n*n
	for r := 0; ix.full && r < m.Rows; r++ {
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			if m.ColIdx[k] != k-r*n*n {
				ix.full = false
				break
			}
		}
	}
	m.quad.CompareAndSwap(nil, ix)
	return m.quad.Load()
}

// cubeIndex is the Kronecker-cube analogue of quadIndex.
func (m *CSR) cubeIndex(n int) *kronIndex {
	if ix := m.cube.Load(); ix != nil {
		return ix
	}
	ix := &kronIndex{p: make([]int32, len(m.ColIdx)), q: make([]int32, len(m.ColIdx)), r: make([]int32, len(m.ColIdx))}
	for k, c := range m.ColIdx {
		ix.p[k] = int32(c / (n * n))
		ix.q[k] = int32((c / n) % n)
		ix.r[k] = int32(c % n)
	}
	m.cube.CompareAndSwap(nil, ix)
	return m.cube.Load()
}

// QuadApply computes dst = G2·(x⊗y) without forming x⊗y.
// n = len(x) = len(y) must satisfy m.Cols == n².
func (m *CSR) QuadApply(dst, x, y []float64) {
	n := len(x)
	if len(y) != n || m.Cols != n*n || len(dst) != m.Rows {
		panic("sparse: QuadApply length mismatch")
	}
	ix := m.quadIndex(n)
	for r := 0; r < m.Rows; r++ {
		s := 0.0
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			s += m.Val[k] * x[ix.p[k]] * y[ix.q[k]]
		}
		dst[r] = s
	}
}

// QuadAddApply computes dst += a·G2·(x⊗y).
func (m *CSR) QuadAddApply(dst []float64, a float64, x, y []float64) {
	n := len(x)
	if len(y) != n || m.Cols != n*n || len(dst) != m.Rows {
		panic("sparse: QuadAddApply length mismatch")
	}
	ix := m.quadIndex(n)
	if ix.full {
		m.quadAddApplyFull(dst, a, x, y)
		return
	}
	for r := 0; r < m.Rows; r++ {
		s := 0.0
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			s += m.Val[k] * x[ix.p[k]] * y[ix.q[k]]
		}
		dst[r] += a * s
	}
}

// quadAddApplyFull is QuadAddApply for a G2 that stores every monomial
// of every row, as a projected ROM's does: entry k of a row is monomial
// (k/n, k%n), so no index is loaded, and four rows advance together so
// that their sum chains overlap (a last group of fewer rows repeats its
// final row and drops the copies). Each row still adds its products in
// ascending column order, so the bits are the indexed kernel's.
func (m *CSR) quadAddApplyFull(dst []float64, a float64, x, y []float64) {
	nn := len(x) * len(y)
	row := func(r int) []float64 {
		r = min(r, m.Rows-1)
		return m.Val[r*nn : (r+1)*nn]
	}
	for r := 0; r < m.Rows; r += 4 {
		s := quadRows4(row(r), row(r+1), row(r+2), row(r+3), x, y)
		for i := 0; i < 4 && r+i < m.Rows; i++ {
			dst[r+i] += a * s[i]
		}
	}
}

// quadRows4 returns Σ (v[k]·x[p])·y[q] for each of the four n²-long rows
// v0…v3, summed in ascending k = p·n + q.
func quadRows4(v0, v1, v2, v3, x, y []float64) [4]float64 {
	n := len(y)
	var s0, s1, s2, s3 float64
	for p, xp := range x {
		u0, u1, u2, u3 := v0[p*n:p*n+n], v1[p*n:p*n+n], v2[p*n:p*n+n], v3[p*n:p*n+n]
		for q, yq := range y {
			s0 += u0[q] * xp * yq
			s1 += u1[q] * xp * yq
			s2 += u2[q] * xp * yq
			s3 += u3[q] * xp * yq
		}
	}
	return [4]float64{s0, s1, s2, s3}
}

// QuadJacobian accumulates ∂/∂x [G2·(x⊗x)] = G2·(I⊗x + x⊗I) into dst
// (dense n×n row-major, dst[i*n+j] += ...), scaled by a.
func (m *CSR) QuadJacobian(dst []float64, a float64, x []float64) {
	n := len(x)
	if m.Cols != n*n || len(dst) != m.Rows*n {
		panic("sparse: QuadJacobian length mismatch")
	}
	ix := m.quadIndex(n)
	if ix.full {
		m.quadJacobianFull(dst, a, x)
		return
	}
	for r := 0; r < m.Rows; r++ {
		row := dst[r*n : (r+1)*n]
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			p, q := ix.p[k], ix.q[k]
			v := a * m.Val[k]
			row[p] += v * x[q]
			row[q] += v * x[p]
		}
	}
}

// quadJacobianFull is QuadJacobian for a G2 that stores every monomial
// of every row. The entries of monomials (p, ·) all add to dst[r, p]
// first, so that entry is summed in a register across the p block and
// stored once, and two rows advance together so that their register
// sums overlap. Every entry of dst receives the indexed kernel's
// additions in its order.
func (m *CSR) quadJacobianFull(dst []float64, a float64, x []float64) {
	n := len(x)
	nn := n * n
	r := 0
	for ; r+2 <= m.Rows; r += 2 {
		quadJacobianRows2(dst[r*n:(r+1)*n], dst[(r+1)*n:(r+2)*n], m.Val[r*nn:(r+1)*nn], m.Val[(r+1)*nn:(r+2)*nn], a, x)
	}
	if r < m.Rows {
		quadJacobianRow(dst[r*n:(r+1)*n], m.Val[r*nn:(r+1)*nn], a, x)
	}
}

// quadJacobianRows2 adds the quadratic Jacobian of the two full rows
// v0, v1 into row0, row1.
func quadJacobianRows2(row0, row1, v0, v1 []float64, a float64, x []float64) {
	n := len(x)
	row0, row1 = row0[:n], row1[:n]
	for p, xp := range x {
		u0, u1 := v0[p*n:p*n+n], v1[p*n:p*n+n]
		acc0, acc1 := row0[p], row1[p]
		for q := 0; q < p; q++ {
			w0, w1 := a*u0[q], a*u1[q]
			acc0 += w0 * x[q]
			acc1 += w1 * x[q]
			row0[q] += w0 * xp
			row1[q] += w1 * xp
		}
		w0, w1 := a*u0[p], a*u1[p]
		acc0 += w0 * xp
		acc1 += w1 * xp
		acc0 += w0 * xp
		acc1 += w1 * xp
		for q := p + 1; q < n; q++ {
			w0, w1 := a*u0[q], a*u1[q]
			acc0 += w0 * x[q]
			acc1 += w1 * x[q]
			row0[q] += w0 * xp
			row1[q] += w1 * xp
		}
		row0[p], row1[p] = acc0, acc1
	}
}

// quadJacobianRow is quadJacobianRows2 for a single row.
func quadJacobianRow(row, v []float64, a float64, x []float64) {
	n := len(x)
	row = row[:n]
	for p, xp := range x {
		u := v[p*n : p*n+n]
		acc := row[p]
		for q := 0; q < p; q++ {
			w := a * u[q]
			acc += w * x[q]
			row[q] += w * xp
		}
		w := a * u[p]
		acc += w * xp
		acc += w * xp
		for q := p + 1; q < n; q++ {
			w := a * u[q]
			acc += w * x[q]
			row[q] += w * xp
		}
		row[p] = acc
	}
}

// QuadJacobianVisit reports each entry of a·∂/∂x [G2·(x⊗x)] through
// visit(row, col, val) — the triplet form the sparse Newton assembly of
// package ode consumes instead of a dense n×n scatter.
func (m *CSR) QuadJacobianVisit(a float64, x []float64, visit func(r, c int, v float64)) {
	n := len(x)
	if m.Cols != n*n {
		panic("sparse: QuadJacobianVisit length mismatch")
	}
	ix := m.quadIndex(n)
	for r := 0; r < m.Rows; r++ {
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			p, q := ix.p[k], ix.q[k]
			v := a * m.Val[k]
			visit(r, int(p), v*x[q])
			visit(r, int(q), v*x[p])
		}
	}
}

// CubeApply computes dst = G3·(x⊗x⊗x) without forming the Kronecker cube.
func (m *CSR) CubeApply(dst, x []float64) {
	n := len(x)
	if m.Cols != n*n*n || len(dst) != m.Rows {
		panic("sparse: CubeApply length mismatch")
	}
	ix := m.cubeIndex(n)
	for r := 0; r < m.Rows; r++ {
		s := 0.0
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			s += m.Val[k] * x[ix.p[k]] * x[ix.q[k]] * x[ix.r[k]]
		}
		dst[r] = s
	}
}

// CubeJacobian accumulates a·∂/∂x [G3·(x⊗x⊗x)] into dst (dense n×n
// row-major): the derivative of x_p·x_q·x_r contributes to columns p, q, r.
func (m *CSR) CubeJacobian(dst []float64, a float64, x []float64) {
	n := len(x)
	if m.Cols != n*n*n || len(dst) != m.Rows*n {
		panic("sparse: CubeJacobian length mismatch")
	}
	ix := m.cubeIndex(n)
	for r := 0; r < m.Rows; r++ {
		row := dst[r*n : (r+1)*n]
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			p, q, t := ix.p[k], ix.q[k], ix.r[k]
			v := a * m.Val[k]
			row[p] += v * x[q] * x[t]
			row[q] += v * x[p] * x[t]
			row[t] += v * x[p] * x[q]
		}
	}
}

// CubeJacobianVisit is the triplet-form counterpart of CubeJacobian.
func (m *CSR) CubeJacobianVisit(a float64, x []float64, visit func(r, c int, v float64)) {
	n := len(x)
	if m.Cols != n*n*n {
		panic("sparse: CubeJacobianVisit length mismatch")
	}
	ix := m.cubeIndex(n)
	for r := 0; r < m.Rows; r++ {
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			p, q, t := ix.p[k], ix.q[k], ix.r[k]
			v := a * m.Val[k]
			visit(r, int(p), v*x[q]*x[t])
			visit(r, int(q), v*x[p]*x[t])
			visit(r, int(t), v*x[p]*x[q])
		}
	}
}

// QuadApplyC computes dst = G2·(x⊗y) for complex vectors (the transfer
// function and oracle paths evaluate at complex frequencies).
func (m *CSR) QuadApplyC(dst, x, y []complex128) {
	n := len(x)
	if len(y) != n || m.Cols != n*n || len(dst) != m.Rows {
		panic("sparse: QuadApplyC length mismatch")
	}
	for r := 0; r < m.Rows; r++ {
		var s complex128
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			c := m.ColIdx[k]
			s += complex(m.Val[k], 0) * x[c/n] * y[c%n]
		}
		dst[r] = s
	}
}

// CubeApplyC computes dst = G3·(x⊗y⊗z) for complex vectors.
func (m *CSR) CubeApplyC(dst, x, y, z []complex128) {
	n := len(x)
	if len(y) != n || len(z) != n || m.Cols != n*n*n || len(dst) != m.Rows {
		panic("sparse: CubeApplyC length mismatch")
	}
	for r := 0; r < m.Rows; r++ {
		var s complex128
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			c := m.ColIdx[k]
			s += complex(m.Val[k], 0) * x[c/(n*n)] * y[(c/n)%n] * z[c%n]
		}
		dst[r] = s
	}
}

// TriApply computes dst = G3·(x⊗y⊗z) for distinct real vectors.
func (m *CSR) TriApply(dst, x, y, z []float64) {
	n := len(x)
	if len(y) != n || len(z) != n || m.Cols != n*n*n || len(dst) != m.Rows {
		panic("sparse: TriApply length mismatch")
	}
	for r := 0; r < m.Rows; r++ {
		s := 0.0
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			c := m.ColIdx[k]
			s += m.Val[k] * x[c/(n*n)] * y[(c/n)%n] * z[c%n]
		}
		dst[r] = s
	}
}
