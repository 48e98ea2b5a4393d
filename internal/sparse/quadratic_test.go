package sparse

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// signedVec draws a vector with exact and negative zeros among its
// entries.
func signedVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		switch rng.Intn(6) {
		case 0:
			v[i] = 0
		case 1:
			v[i] = math.Copysign(0, -1)
		default:
			v[i] = 2*rng.Float64() - 1
		}
	}
	return v
}

// packedTol is the bound the packed kernels are held to: a result may
// differ from the exact value by packedTol·ε·Σ|terms|, where the terms
// are the initial dst entry and every a·G[r, c]·(x^⊗d)[c] (for a
// Jacobian entry, every product-rule term the indexed kernel adds). The
// worst case of a recursive float64 sum of N terms is N·ε/2·Σ|terms|,
// but on mixed-sign data the partial sums stay far below Σ|terms| and
// the roundings cancel. Below, every value lies within 1 ε·Σ|terms| of
// the exact one, and every Jacobian entry within 2.3 of the indexed
// kernel's, whose own rounding adds to the difference.
const packedTol = 4

// randCoupling returns a degree-deg Kronecker-power coupling over n
// states with rows rows and, per row, every column with probability
// keep. Its values are mixed-sign, and about one in eight is a stored
// +0 or −0, which a Builder would drop; a dense row stores each
// monomial in every index order.
func randCoupling(rng *rand.Rand, rows, n, deg int, keep float64) *CSR {
	cols := n * n
	if deg == 3 {
		cols *= n
	}
	m := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if rng.Float64() >= keep {
				continue
			}
			v := 2*rng.Float64() - 1
			switch rng.Intn(16) {
			case 0:
				v = 0
			case 1:
				v = math.Copysign(0, -1)
			}
			m.ColIdx = append(m.ColIdx, c)
			m.Val = append(m.Val, v)
		}
		m.RowPtr[r+1] = len(m.ColIdx)
	}
	return m
}

// kronFactors returns the Kronecker factor indices of column c of a
// degree-deg coupling over n states.
func kronFactors(c, n, deg int) []int {
	if deg == 2 {
		return []int{c / n, c % n}
	}
	return []int{c / (n * n), (c / n) % n, c % n}
}

// kronExact is the explicit Kronecker transcription of one row of
// dst += a·G·x^⊗d, evaluated in 256-bit arithmetic: it forms every
// entry of x^⊗d, multiplies the dense row G[r, ·] into it, and adds the
// products to dst0. It returns the value, rounded once, and Σ|terms|.
func kronExact(m *CSR, r, deg int, a, dst0 float64, x []float64) (float64, float64) {
	const prec = 256
	n := len(x)
	g := m.Dense().Row(r)
	xk := make([]*big.Float, len(g))
	for c := range xk {
		xk[c] = new(big.Float).SetPrec(prec).SetFloat64(1)
		for _, i := range kronFactors(c, n, deg) {
			xk[c].Mul(xk[c], new(big.Float).SetFloat64(x[i]))
		}
	}
	sum := new(big.Float).SetPrec(prec).SetFloat64(dst0)
	abs := math.Abs(dst0)
	for c, gc := range g {
		t := new(big.Float).SetPrec(prec).SetFloat64(a)
		t.Mul(t, new(big.Float).SetFloat64(gc))
		t.Mul(t, xk[c])
		sum.Add(sum, t)
		tf, _ := t.Float64()
		abs += math.Abs(tf)
	}
	v, _ := sum.Float64()
	return v, abs
}

// indexedJacobian runs the indexed Jacobian kernel of degree deg.
func indexedJacobian(m *CSR, deg int, dst []float64, a float64, x []float64) {
	if deg == 2 {
		m.QuadJacobian(dst, a, x)
	} else {
		m.CubeJacobian(dst, a, x)
	}
}

// termSums returns, per entry of a Jacobian accumulated into dst0, the
// initial entry's magnitude plus Σ|terms| over the product-rule terms
// the indexed kernel adds to it.
func termSums(m *CSR, deg int, dst0 []float64, a float64, x []float64) []float64 {
	n := len(x)
	abs := make([]float64, len(dst0))
	for i, v := range dst0 {
		abs[i] = math.Abs(v)
	}
	for r := 0; r < m.Rows; r++ {
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			f := kronFactors(m.ColIdx[k], n, deg)
			for i, col := range f {
				t := a * m.Val[k]
				for j, other := range f {
					if j != i {
						t *= x[other]
					}
				}
				abs[r*n+col] += math.Abs(t)
			}
		}
	}
	return abs
}

// TestPackedMatchesKronecker holds the packed apply and Jacobian
// kernels to the explicit Kronecker transcription, for degrees 2 and 3
// and q = 1…9 states (every remainder of the four-row grouping), on
// couplings with mixed signs, stored ±0 entries, both index orders of
// every monomial, and, in the holed case, some of them missing. Values
// must lie within packedTol·ε·Σ|terms| of the exact result and the
// Jacobian within the same bound of the indexed kernels; central
// differences of the packed apply must match the Jacobian.
func TestPackedMatchesKronecker(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	eps := math.Nextafter(1, 2) - 1
	worst := 0.0
	for _, deg := range []int{2, 3} {
		for q := 1; q <= 9; q++ {
			for _, keep := range []float64{1, 0.8} {
				m := randCoupling(rng, q, q, deg, keep)
				slots := monomials(q, deg)
				pk := m.Pack(q, deg)
				if want := 2*m.NNZ() >= q*slots; (pk != nil) != want {
					t.Fatalf("deg %d q %d: Pack packed = %v, want %v (nnz %d, %d slots)", deg, q, pk != nil, want, m.NNZ(), q*slots)
				}
				if pk == nil {
					continue
				}
				for trial := 0; trial < 3; trial++ {
					x := signedVec(rng, q)
					a := []float64{1, -0.5, 3}[trial]
					dst0 := signedVec(rng, q)
					got := append([]float64(nil), dst0...)
					pk.AddApply(got, a, x)
					for r := range got {
						want, abs := kronExact(m, r, deg, a, dst0[r], x)
						if d := math.Abs(got[r] - want); d > packedTol*eps*abs {
							t.Fatalf("deg %d q %d row %d: AddApply %v, exact %v (off by %.2g ε·Σ|terms|)", deg, q, r, got[r], want, d/(eps*abs))
						} else if abs > 0 {
							worst = max(worst, d/(eps*abs))
						}
					}

					jac0 := signedVec(rng, q*q)
					jac := append([]float64(nil), jac0...)
					pk.Jacobian(jac, a, x)
					wantJ := append([]float64(nil), jac0...)
					indexedJacobian(m, deg, wantJ, a, x)
					abs := termSums(m, deg, jac0, a, x)
					for i := range jac {
						if d := math.Abs(jac[i] - wantJ[i]); d > packedTol*eps*abs[i] {
							t.Fatalf("deg %d q %d: Jacobian[%d,%d] = %v, indexed %v (off by %.2g ε·Σ|terms|)", deg, q, i/q, i%q, jac[i], wantJ[i], d/(eps*abs[i]))
						} else if abs[i] > 0 {
							worst = max(worst, d/(eps*abs[i]))
						}
					}

					// Central differences are exact for a quadratic and
					// carry h²·|G| for a cubic, up to rounding.
					const h = 1e-5
					fd := func(xs []float64) []float64 {
						f := make([]float64, q)
						pk.AddApply(f, a, xs)
						return f
					}
					for j := 0; j < q; j++ {
						xp, xm := append([]float64(nil), x...), append([]float64(nil), x...)
						xp[j] += h
						xm[j] -= h
						fp, fm := fd(xp), fd(xm)
						for r := 0; r < q; r++ {
							got := jac[r*q+j] - jac0[r*q+j]
							want := (fp[r] - fm[r]) / (2 * h)
							if math.Abs(got-want) > 1e-7*(1+math.Abs(want)) {
								t.Fatalf("deg %d q %d: ∂row %d/∂x_%d = %v, central difference %v", deg, q, r, j, got, want)
							}
						}
					}
				}
			}
		}
	}
	t.Logf("worst error: %.3g ε·Σ|terms|", worst)
}

// TestPackRule pins the density rule at its edge: a coupling is packed
// exactly when its CSR stores at least half as many entries as the
// packed form has slots, and below the rule Pack allocates nothing.
func TestPackRule(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, tc := range []struct{ n, deg int }{{5, 2}, {6, 2}, {4, 3}, {5, 3}} {
		rows, slots := tc.n, monomials(tc.n, tc.deg)
		need := (rows*slots + 1) / 2
		full := randCoupling(rng, rows, tc.n, tc.deg, 1)
		for _, nnz := range []int{need - 1, need} {
			m := &CSR{Rows: rows, Cols: full.Cols, RowPtr: make([]int, rows+1),
				ColIdx: full.ColIdx[:nnz], Val: full.Val[:nnz]}
			for r := range m.RowPtr {
				m.RowPtr[r] = min(full.RowPtr[r], nnz)
			}
			if pk := m.Pack(tc.n, tc.deg); (pk != nil) != (nnz == need) {
				t.Fatalf("n %d deg %d nnz %d: packed = %v, want %v", tc.n, tc.deg, nnz, pk != nil, nnz == need)
			}
			if nnz < need {
				if allocs := testing.AllocsPerRun(10, func() { m.Pack(tc.n, tc.deg) }); allocs != 0 {
					t.Fatalf("n %d deg %d: a rejected Pack allocates %v times", tc.n, tc.deg, allocs)
				}
			}
		}
	}
}

// TestPackedKernelsAllocationFree: the per-step kernels of a ROM
// transient allocate nothing.
func TestPackedKernelsAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, deg := range []int{2, 3} {
		const q = 7
		pk := randCoupling(rng, q, q, deg, 1).Pack(q, deg)
		x, dst, jac := signedVec(rng, q), make([]float64, q), make([]float64, q*q)
		if allocs := testing.AllocsPerRun(50, func() { pk.AddApply(dst, 1, x) }); allocs != 0 {
			t.Fatalf("deg %d: AddApply allocates %v times", deg, allocs)
		}
		if allocs := testing.AllocsPerRun(50, func() { pk.Jacobian(jac, 1, x) }); allocs != 0 {
			t.Fatalf("deg %d: Jacobian allocates %v times", deg, allocs)
		}
	}
}
