package solver

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"avtmor/internal/lu"
	"avtmor/internal/mat"
	"avtmor/internal/sparse"
)

// randSparse builds a random diagonally-dominant n×n CSR with about
// fill·n² off-diagonal nonzeros (dominance keeps both backends near
// machine precision, so the agreement check is a pure algebra test).
func randSparse(rng *rand.Rand, n int, fill float64) *sparse.CSR {
	b := sparse.NewBuilder(n, n)
	rowAbs := make([]float64, n)
	offDiag := int(fill * float64(n) * float64(n))
	for k := 0; k < offDiag; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		v := rng.NormFloat64()
		b.Add(i, j, v)
		rowAbs[i] += math.Abs(v)
	}
	for i := 0; i < n; i++ {
		b.Add(i, i, rowAbs[i]+1+rng.Float64())
	}
	return b.Build()
}

func TestSparseLUMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 5, 17, 60, 140} {
		for trial := 0; trial < 3; trial++ {
			a := randSparse(rng, n, 0.08)
			fs, err := (Sparse{}).FactorCtx(context.Background(), FromCSR(a))
			if err != nil {
				t.Fatalf("n=%d: sparse factor: %v", n, err)
			}
			fd, err := (Dense{}).FactorCtx(context.Background(), FromDense(a.Dense()))
			if err != nil {
				t.Fatalf("n=%d: dense factor: %v", n, err)
			}
			b := mat.RandVec(rng, n)
			xs := make([]float64, n)
			xd := make([]float64, n)
			fs.Solve(xs, b)
			fd.Solve(xd, b)
			for i := range xs {
				if d := math.Abs(xs[i] - xd[i]); d > 1e-12*(1+math.Abs(xd[i])) {
					t.Fatalf("n=%d trial %d: solution mismatch at %d: sparse %g dense %g", n, trial, i, xs[i], xd[i])
				}
			}
			// Residual check directly against A.
			res := make([]float64, n)
			a.MulVec(res, xs)
			mat.Axpy(-1, b, res)
			if r := mat.NormInf(res); r > 1e-10*(1+mat.NormInf(b)) {
				t.Fatalf("n=%d: residual %g too large", n, r)
			}
		}
	}
}

func TestSparseLUNonDominantPivoting(t *testing.T) {
	// Zero leading diagonal forces a genuine row exchange; the
	// threshold pivot must keep the factorization accurate.
	b := sparse.NewBuilder(3, 3)
	b.Add(0, 1, 2)
	b.Add(0, 2, 1)
	b.Add(1, 0, 4)
	b.Add(1, 1, 1)
	b.Add(2, 0, 1)
	b.Add(2, 2, 3)
	a := b.Build()
	f, err := (Sparse{}).FactorCtx(context.Background(), FromCSR(a))
	if err != nil {
		t.Fatal(err)
	}
	rhs := []float64{1, 2, 3}
	x := make([]float64, 3)
	f.Solve(x, rhs)
	res := make([]float64, 3)
	a.MulVec(res, x)
	mat.Axpy(-1, rhs, res)
	if mat.NormInf(res) > 1e-12 {
		t.Fatalf("residual %g", mat.NormInf(res))
	}
}

func TestSparseLUSingular(t *testing.T) {
	// Structurally singular: an empty row.
	b := sparse.NewBuilder(3, 3)
	b.Add(0, 0, 1)
	b.Add(2, 2, 1)
	if _, err := (Sparse{}).FactorCtx(context.Background(), FromCSR(b.Build())); err == nil {
		t.Fatal("expected singular error for an empty row")
	} else if !strings.Contains(err.Error(), "singular") {
		t.Fatalf("unhelpful error: %v", err)
	}
	// Numerically singular: two identical rows.
	b2 := sparse.NewBuilder(2, 2)
	b2.Add(0, 0, 1)
	b2.Add(0, 1, 2)
	b2.Add(1, 0, 1)
	b2.Add(1, 1, 2)
	if _, err := (Sparse{}).FactorCtx(context.Background(), FromCSR(b2.Build())); err == nil {
		t.Fatal("expected singular error for a rank-deficient matrix")
	}
	// Non-square input is rejected.
	if _, err := (Sparse{}).FactorCtx(context.Background(), FromCSR(sparse.NewBuilder(2, 3).Build())); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestSparseLUPivotWitness(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randSparse(rng, 40, 0.1)
	f, err := (Sparse{}).FactorCtx(context.Background(), FromCSR(a))
	if err != nil {
		t.Fatal(err)
	}
	if f.MinAbsPivot() <= 0 {
		t.Fatal("MinAbsPivot must be positive for a nonsingular matrix")
	}
}

func TestBandedFillStaysLinear(t *testing.T) {
	// A tridiagonal system (the RLC-line pattern): factor nonzeros must
	// stay O(n), not O(n²) — the point of the RCM preorder.
	n := 500
	b := sparse.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 4)
		if i > 0 {
			b.Add(i, i-1, 1)
		}
		if i < n-1 {
			b.Add(i, i+1, 1)
		}
	}
	f, err := factorCSR(context.Background(), b.Build())
	if err != nil {
		t.Fatal(err)
	}
	if nnz := n + len(f.lidx) + len(f.uidx); nnz > 10*n {
		t.Fatalf("tridiagonal fill blew up: %d stored entries for n=%d", nnz, n)
	}
}

func TestRCMOrderIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 9, 64} {
		p := rcmOrder(randSparse(rng, n, 0.05))
		if len(p) != n {
			t.Fatalf("n=%d: got %d entries", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("n=%d: not a permutation: %v", n, p)
			}
			seen[v] = true
		}
	}
}

// TestRCMOrderAllocs: the preorder allocates its scratch once per call,
// whatever the pattern. On the path-like 1999-state RLC line the BFS
// queues are one or two wide, so a queue that lost its front capacity
// to each pop would regrow every few pops.
func TestRCMOrderAllocs(t *testing.T) {
	a := rlcLineCSR(1000)
	if allocs := testing.AllocsPerRun(5, func() { rcmOrder(a) }); allocs > 16 {
		t.Fatalf("rcmOrder of the %d-state RLC line allocates %v times, want at most 16", a.Rows, allocs)
	}
}

func TestShiftedCacheIdentityDescriptor(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randSparse(rng, 30, 0.1)
	for _, ls := range []LinearSolver{Dense{}, Sparse{}, Auto{}} {
		sc := NewShiftedCache(Operand(a.Dense(), a), nil, ls)
		for _, sigma := range []float64{0, -0.7, 2.5} {
			f, err := sc.FactorCtx(context.Background(), sigma)
			if err != nil {
				t.Fatalf("%s σ=%g: %v", ls.Name(), sigma, err)
			}
			// Check (A + σI)·x = b.
			b := mat.RandVec(rng, 30)
			x := make([]float64, 30)
			f.Solve(x, b)
			res := make([]float64, 30)
			a.MulVec(res, x)
			mat.Axpy(sigma, x, res)
			mat.Axpy(-1, b, res)
			if mat.NormInf(res) > 1e-10 {
				t.Fatalf("%s σ=%g: residual %g", ls.Name(), sigma, mat.NormInf(res))
			}
			// Second request hits the cache (same pointer).
			f2, _ := sc.FactorCtx(context.Background(), sigma)
			if f2 != f {
				t.Fatalf("%s σ=%g: cache miss on repeat", ls.Name(), sigma)
			}
		}
	}
}

func TestShiftedCacheGeneralDescriptor(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randSparse(rng, 20, 0.1)
	c := randSparse(rng, 20, 0.1)
	sc := NewShiftedCache(FromCSR(g), FromCSR(c), Sparse{})
	sigma := 0.3
	f, err := sc.FactorCtx(context.Background(), sigma)
	if err != nil {
		t.Fatal(err)
	}
	b := mat.RandVec(rng, 20)
	x := make([]float64, 20)
	f.Solve(x, b)
	res := make([]float64, 20)
	g.MulVec(res, x)
	tmp := make([]float64, 20)
	c.MulVec(tmp, x)
	mat.Axpy(sigma, tmp, res)
	mat.Axpy(-1, b, res)
	if mat.NormInf(res) > 1e-10 {
		t.Fatalf("residual %g", mat.NormInf(res))
	}
}

func TestShiftedCacheConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	// Two operand flavors: CSR-only, and dense-only above the routing
	// cutoff so Auto sends concurrent factorizations through the lazy
	// AsCSR conversion of one shared Matrix (the race-prone path).
	small := randSparse(rng, 50, 0.08)
	big := randSparse(rng, 300, 0.005)
	for name, op := range map[string]*Matrix{
		"csr-only":   FromCSR(small),
		"dense-only": FromDense(big.Dense()),
	} {
		sc := NewShiftedCache(op, nil, Auto{})
		shifts := []float64{0, -0.1, -0.2, 0.4, 1.1, 2.2}
		var wg sync.WaitGroup
		errs := make([]error, 24)
		for w := 0; w < len(errs); w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				_, errs[w] = sc.FactorCtx(context.Background(), shifts[w%len(shifts)])
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}

func TestAutoRouting(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	small := randSparse(rng, 8, 0.3)
	if got := (Auto{}).Pick(Operand(small.Dense(), small)).Name(); got != "dense" {
		t.Fatalf("small operand routed to %s", got)
	}
	big := randSparse(rng, 400, 0.005)
	if got := (Auto{}).Pick(Operand(big.Dense(), big)).Name(); got != "sparse" {
		t.Fatalf("large sparse operand routed to %s", got)
	}
	if got := (Auto{}).Pick(FromCSR(big)).Name(); got != "sparse" {
		t.Fatalf("CSR-only operand routed to %s", got)
	}
	dense := mat.RandDense(rng, 400, 400)
	for i := 0; i < 400; i++ {
		dense.Add(i, i, 500)
	}
	if got := (Auto{}).Pick(FromDense(dense)).Name(); got != "dense" {
		t.Fatalf("dense operand routed to %s", got)
	}
}

func TestKindRoundTrip(t *testing.T) {
	for _, k := range []Kind{KindAuto, KindDense, KindSparse} {
		if ByKind(k).Name() != k.String() && k != KindAuto {
			t.Fatalf("kind %v mismatch", k)
		}
	}
}

func TestDenseBackendMatchesLUPackage(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a := mat.RandDense(rng, 12, 12)
	for i := 0; i < 12; i++ {
		a.Add(i, i, 15)
	}
	f, err := (Dense{}).FactorCtx(context.Background(), FromDense(a))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := lu.Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	b := mat.RandVec(rng, 12)
	x1 := make([]float64, 12)
	x2 := make([]float64, 12)
	f.Solve(x1, b)
	ref.Solve(x2, b)
	for i := range x1 {
		if x1[i] != x2[i] {
			t.Fatal("dense backend must be the package-lu factorization")
		}
	}
}

// TestScratchOperandFactorsInPlace pins the ownership rule of Scratch:
// the dense backend factors it in the caller's storage (same solves as a
// cloned factorization), and the sparse backend never writes it.
func TestScratchOperandFactorsInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	a := mat.RandDense(rng, 10, 10)
	for i := 0; i < 10; i++ {
		a.Add(i, i, 12)
	}
	ref, err := (Dense{}).FactorCtx(context.Background(), FromDense(a))
	if err != nil {
		t.Fatal(err)
	}
	b := mat.RandVec(rng, 10)
	want := make([]float64, 10)
	ref.Solve(want, b)
	for _, tc := range []struct {
		ls      LinearSolver
		inPlace bool
	}{{Dense{}, true}, {Sparse{}, false}, {Auto{}, true}} {
		d := a.Clone()
		f, err := tc.ls.FactorCtx(context.Background(), Scratch(d))
		if err != nil {
			t.Fatal(err)
		}
		changed := false
		for i, v := range d.A {
			changed = changed || math.Float64bits(v) != math.Float64bits(a.A[i])
		}
		if changed != tc.inPlace {
			t.Fatalf("%s: scratch storage rewritten = %v, want %v", tc.ls.Name(), changed, tc.inPlace)
		}
		if !tc.inPlace {
			continue
		}
		got := make([]float64, 10)
		f.Solve(got, b)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: in-place solve[%d] = %v, cloned %v", tc.ls.Name(), i, got[i], want[i])
			}
		}
	}
}
