package assoc

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"avtmor/internal/kron"
	"avtmor/internal/mat"
	"avtmor/internal/qldae"
	"avtmor/internal/qr"
	"avtmor/internal/schur"
	"avtmor/internal/sparse"
)

// taylorCoeffs extracts Taylor coefficients of an analytic vector function
// about s0 by trapezoidal contour sampling on a radius-ρ circle.
func taylorCoeffs(f func(complex128) ([]complex128, error), s0 complex128, rho float64, kmax, n int, t *testing.T) [][]complex128 {
	t.Helper()
	const m = 32
	samples := make([][]complex128, m)
	for l := 0; l < m; l++ {
		theta := 2 * math.Pi * float64(l) / m
		s := s0 + complex(rho*math.Cos(theta), rho*math.Sin(theta))
		v, err := f(s)
		if err != nil {
			t.Fatal(err)
		}
		samples[l] = v
	}
	coeffs := make([][]complex128, kmax)
	for k := 0; k < kmax; k++ {
		c := make([]complex128, n)
		for l := 0; l < m; l++ {
			theta := 2 * math.Pi * float64(l) / m
			w := cmplx.Exp(complex(0, -float64(k)*theta)) / complex(float64(m)*math.Pow(rho, float64(k)), 0)
			for i := range c {
				c[i] += w * samples[l][i]
			}
		}
		coeffs[k] = c
	}
	return coeffs
}

// inSpan reports the relative residual of (the real part of) v after
// projection onto the orthonormalized columns.
func inSpan(cols [][]float64, v []complex128) float64 {
	basis := qr.Orthonormalize(cols, 1e-12)
	if basis == nil {
		return 1
	}
	re := mat.RealPart(v)
	nrm := mat.Norm2(re)
	if nrm == 0 {
		return 0
	}
	coef := make([]float64, basis.C)
	basis.MulVecT(coef, re)
	rec := make([]float64, len(re))
	basis.MulVec(rec, coef)
	mat.Axpy(-1, re, rec)
	return mat.Norm2(rec) / nrm
}

func TestH1MomentsSpanTaylor(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sys := testSystem(rng, 6, true)
	r, err := New(sys)
	if err != nil {
		t.Fatal(err)
	}
	const k1 = 4
	ms, err := r.H1Moments(k1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != k1 {
		t.Fatalf("got %d H1 moments", len(ms))
	}
	coeffs := taylorCoeffs(func(s complex128) ([]complex128, error) {
		return r.EvalH1(0, s)
	}, 0, 0.05, k1, sys.N, t)
	for k, c := range coeffs {
		if res := inSpan(ms[:k+1], c); res > 1e-6 {
			t.Fatalf("H1 Taylor coefficient %d not in moment span (residual %g)", k, res)
		}
	}
}

func TestH2CandidatesSpanTaylor(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	sys := testSystem(rng, 5, true)
	r, err := New(sys)
	if err != nil {
		t.Fatal(err)
	}
	const k2 = 3
	cand, err := r.H2Candidates(k2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cand) == 0 {
		t.Fatal("no H2 candidates")
	}
	coeffs := taylorCoeffs(func(s complex128) ([]complex128, error) {
		return r.EvalAssocH2(0, 0, s)
	}, 0, 0.05, k2, sys.N, t)
	for k, c := range coeffs {
		if res := inSpan(cand, c); res > 1e-5 {
			t.Fatalf("A2(H2) Taylor coefficient %d not in candidate span (residual %g)", k, res)
		}
	}
}

// requireMixedSchur fails unless G1's real Schur form has both a 2×2
// (complex pair) and a 1×1 diagonal block, so an H3 span case runs
// both branches of the Schur-coordinate column recurrence.
func requireMixedSchur(t *testing.T, g1 *mat.Dense) {
	t.Helper()
	s, err := schur.Decompose(g1)
	if err != nil {
		t.Fatal(err)
	}
	var sizes [3]int
	for _, b := range s.Blocks() {
		sizes[b[1]]++
	}
	if sizes[1] == 0 || sizes[2] == 0 {
		t.Fatalf("G1 Schur blocks: %d of 1×1, %d of 2×2; the case needs both", sizes[1], sizes[2])
	}
}

// h3SpanCases are the (seed, s0) pairs of the H3 span tests: seeds whose
// random stable G1 has mixed Schur blocks, at DC and off DC.
var h3SpanCases = []struct {
	seed int64
	s0   float64
}{{3, 0}, {3, 0.3}, {14, 0}, {14, 0.3}}

func TestH3MomentsSpanTaylor(t *testing.T) {
	for _, tc := range h3SpanCases {
		t.Run(fmt.Sprintf("seed=%d/s0=%g", tc.seed, tc.s0), func(t *testing.T) {
			sys := testSystem(rand.New(rand.NewSource(tc.seed)), 4, true)
			requireMixedSchur(t, sys.G1)
			r, err := New(sys)
			if err != nil {
				t.Fatal(err)
			}
			const k3 = 3
			ms, err := r.H3Moments(k3, tc.s0)
			if err != nil {
				t.Fatal(err)
			}
			if len(ms) != k3 {
				t.Fatalf("got %d H3 moments", len(ms))
			}
			coeffs := taylorCoeffs(func(s complex128) ([]complex128, error) {
				return r.EvalAssocH3(s)
			}, complex(tc.s0, 0), 0.05, k3, sys.N, t)
			for k, c := range coeffs {
				// m_k is the exact k-th moment (up to scale), so the span of
				// m_0..m_k must contain the k-th Taylor coefficient.
				if res := inSpan(ms[:k+1], c); res > 1e-5 {
					t.Fatalf("A3(H3) Taylor coefficient %d not in moment span (residual %g)", k, res)
				}
			}
		})
	}
}

func TestH3MomentsCubicSpanTaylor(t *testing.T) {
	for _, tc := range h3SpanCases {
		t.Run(fmt.Sprintf("seed=%d/s0=%g", tc.seed, tc.s0), func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			n := 4
			g3b := sparse.NewBuilder(n, n*n*n)
			for i := 0; i < 3*n; i++ {
				g3b.Add(rng.Intn(n), rng.Intn(n*n*n), 0.3*(2*rng.Float64()-1))
			}
			sys := &qldae.System{
				N:  n,
				G1: mat.RandStable(rng, n, 0.4),
				G3: g3b.Build(),
				B:  mat.RandDense(rng, n, 1),
				L:  mat.RandDense(rng, 1, n),
			}
			requireMixedSchur(t, sys.G1)
			r, err := New(sys)
			if err != nil {
				t.Fatal(err)
			}
			s3, err := kron.NewSumSolver3(sys.G1)
			if err != nil {
				t.Fatal(err)
			}
			const k3 = 2
			ms, err := r.H3MomentsCubic(s3, k3, tc.s0)
			if err != nil {
				t.Fatal(err)
			}
			coeffs := taylorCoeffs(func(s complex128) ([]complex128, error) {
				return r.EvalAssocH3Cubic(s)
			}, complex(tc.s0, 0), 0.05, k3, sys.N, t)
			for k, c := range coeffs {
				if res := inSpan(ms[:k+1], c); res > 1e-5 {
					t.Fatalf("cubic A3(H3) Taylor coefficient %d not in span (residual %g)", k, res)
				}
			}
		})
	}
}

func TestH2CandidatesMISO(t *testing.T) {
	// Two inputs: candidates must cover all three input pairs.
	rng := rand.New(rand.NewSource(15))
	n := 5
	g2b := sparse.NewBuilder(n, n*n)
	for i := 0; i < 3*n; i++ {
		g2b.Add(rng.Intn(n), rng.Intn(n*n), 0.3*(2*rng.Float64()-1))
	}
	sys := &qldae.System{
		N:  n,
		G1: mat.RandStable(rng, n, 0.4),
		G2: g2b.Build(),
		B:  mat.RandDense(rng, n, 2),
		L:  mat.RandDense(rng, 1, n),
	}
	r, err := New(sys)
	if err != nil {
		t.Fatal(err)
	}
	cand, err := r.H2Candidates(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cand) < 3 {
		t.Fatalf("MISO H2 candidates too few: %d", len(cand))
	}
	// Zeroth Taylor coefficients of all pairs must be in span.
	for i := 0; i <= 1; i++ {
		for j := i; j <= 1; j++ {
			v, err := r.EvalAssocH2(i, j, 1e-4)
			if err != nil {
				t.Fatal(err)
			}
			if res := inSpan(cand, v); res > 1e-4 {
				t.Fatalf("pair (%d,%d) moment not covered (residual %g)", i, j, res)
			}
		}
	}
}

func TestMomentsAtNonzeroExpansionPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	sys := testSystem(rng, 4, true)
	r, err := New(sys)
	if err != nil {
		t.Fatal(err)
	}
	s0 := -0.5 // expansion about s = −0.5 (multipoint support, §4 bullet 3)
	ms, err := r.H3Moments(2, s0)
	if err != nil {
		t.Fatal(err)
	}
	coeffs := taylorCoeffs(func(s complex128) ([]complex128, error) {
		return r.EvalAssocH3(s)
	}, complex(s0, 0), 0.04, 2, sys.N, t)
	for k, c := range coeffs {
		if res := inSpan(ms[:k+1], c); res > 1e-5 {
			t.Fatalf("s0=%v coefficient %d residual %g", s0, k, res)
		}
	}
}

func TestH3MomentsRejectsMIMO(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	sys := testSystem(rng, 4, false)
	sys.B = mat.RandDense(rng, 4, 2)
	r, err := New(sys)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.H3Moments(2, 0); err == nil {
		t.Fatal("expected SISO-only error")
	}
}
