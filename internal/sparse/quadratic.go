package sparse

// Kernels for the Kronecker-power couplings of the QLDAE: a row of
// G2 ∈ R^{n×n²} indexes column (p·n+q) ↔ the monomial x_p·x_q, matching
// package kron's (x⊗x)[p·n+q] = x_p·x_q convention; G3 ∈ R^{n×n³} indexes
// (p·n+q)·n+r ↔ x_p·x_q·x_r.

// kronIndex holds the decoded Kronecker factor indices of every
// nonzero: (p, q) for a Kronecker-square column c = p·n + q, (p, q, r)
// for a cube column c = (p·n + q)·n + r. It is immutable once
// published.
type kronIndex struct {
	p, q, r []int32
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
	for r := 0; r < m.Rows; r++ {
		s := 0.0
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			s += m.Val[k] * x[ix.p[k]] * y[ix.q[k]]
		}
		dst[r] += a * s
	}
}

// QuadJacobian accumulates ∂/∂x [G2·(x⊗x)] = G2·(I⊗x + x⊗I) into dst
// (dense n×n row-major, dst[i*n+j] += ...), scaled by a.
func (m *CSR) QuadJacobian(dst []float64, a float64, x []float64) {
	n := len(x)
	if m.Cols != n*n || len(dst) != m.Rows*n {
		panic("sparse: QuadJacobian length mismatch")
	}
	ix := m.quadIndex(n)
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
