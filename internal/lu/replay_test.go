package lu

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"avtmor/internal/mat"
)

// replayPattern is a random sparsity pattern in compressed-row form:
// the diagonal plus each off-diagonal cell with probability density.
func replayPattern(rng *rand.Rand, n int, density float64) (rowPtr, colIdx []int) {
	rowPtr = make([]int, n+1)
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			if r == c || rng.Float64() < density {
				colIdx = append(colIdx, c)
			}
		}
		rowPtr[r+1] = len(colIdx)
	}
	return rowPtr, colIdx
}

// onPattern returns a matrix holding vals on the pattern and off the
// pattern holding fill (0 for a fresh factorization's operand, NaN for
// a replay's, which must never read those cells).
func onPattern(n int, rowPtr, colIdx []int, vals []float64, fill float64) *mat.Dense {
	a := mat.NewDense(n, n)
	for i := range a.A {
		a.A[i] = fill
	}
	for r := 0; r < n; r++ {
		for k := rowPtr[r]; k < rowPtr[r+1]; k++ {
			a.Set(r, colIdx[k], vals[k])
		}
	}
	return a
}

// inS reports which cells r·n + c the record's elimination pattern holds.
func (rec *Record) inS() []bool {
	n := rec.n
	s := make([]bool, n*n)
	for i, r := range rec.piv {
		s[r*n+i] = true
		for _, j := range rec.lcol[rec.lptr[i]:rec.lptr[i+1]] {
			s[r*n+int(j)] = true
		}
		for _, j := range rec.ucol[rec.uptr[i]:rec.uptr[i+1]] {
			s[r*n+int(j)] = true
		}
	}
	return s
}

// sameFactors checks a completed replay against the fresh factors of
// the same matrix, bit for bit on the recorded pattern, and the fresh
// factors for exact zeros off it; it returns the number of exactly zero
// L multipliers on the pattern.
func sameFactors(t *testing.T, rec *Record, got *Refactored, fresh *LU) int {
	t.Helper()
	n := rec.n
	for i, r := range rec.piv {
		if fresh.piv[i] != r {
			t.Fatalf("factor row %d: replay pivots row %d, FactorInPlace row %d", i, r, fresh.piv[i])
		}
	}
	s := rec.inS()
	zeroL := 0
	for i, r := range rec.piv {
		for j := 0; j < n; j++ {
			want := fresh.lu.At(i, j)
			if !s[r*n+j] {
				if want != 0 {
					t.Fatalf("fresh factor (%d,%d) = %v lies off the recorded pattern", i, j, want)
				}
				continue
			}
			v := got.lu.At(r, j)
			if math.Float64bits(v) != math.Float64bits(want) {
				t.Fatalf("factor (%d,%d): replay %v, FactorInPlace %v", i, j, v, want)
			}
			if j < i && v == 0 {
				zeroL++
			}
		}
	}
	return zeroL
}

func sameSolves(t *testing.T, rng *rand.Rand, got *Refactored, fresh *LU) {
	t.Helper()
	n := fresh.N()
	a, b := make([][]float64, 3), make([][]float64, 3)
	for c := range a {
		a[c] = mat.RandVec(rng, n)
		b[c] = mat.CopyVec(a[c])
	}
	fresh.SolveBatch(a)
	got.SolveBatch(b)
	one := mat.RandVec(rng, n)
	wantOne := make([]float64, n)
	fresh.Solve(wantOne, one)
	got.Solve(one, one)
	a, b = append(a, wantOne), append(b, one)
	for c := range a {
		for i := range a[c] {
			if math.Float64bits(a[c][i]) != math.Float64bits(b[c][i]) {
				t.Fatalf("solve column %d entry %d: replay %v, FactorInPlace %v", c, i, b[c][i], a[c][i])
			}
		}
	}
	if got.MinAbsPivot() != fresh.MinAbsPivot() {
		t.Fatalf("MinAbsPivot: replay %v, FactorInPlace %v", got.MinAbsPivot(), fresh.MinAbsPivot())
	}
}

// TestRefactorMatchesFactorInPlace records random sparse patterns and
// refactors each with several value sets: small perturbations of the
// recorded values (which keep its pivots), fresh random values (which
// often do not), and perturbations with exact zeros on the pattern (zero
// multipliers). A completed replay must match FactorInPlace bit for bit;
// a rejected one must be justified by a different fresh pivot sequence,
// and the re-recorded factors must match again.
func TestRefactorMatchesFactorInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	replayed, rejected, zeroL := 0, 0, 0
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(59)
		density := 0.03 + 0.27*rng.Float64()
		rowPtr, colIdx := replayPattern(rng, n, density)
		base := make([]float64, len(colIdx))
		for k := range base {
			base[k] = 2*rng.Float64() - 1
		}
		f0, err := FactorInPlace(onPattern(n, rowPtr, colIdx, base, 0))
		if err != nil {
			continue
		}
		rec := NewRecord(f0, rowPtr, colIdx)
		if rec == nil {
			t.Fatalf("trial %d: no record for a matrix on its own pattern", trial)
		}
		for set := 0; set < 6; set++ {
			vals := make([]float64, len(base))
			for k := range vals {
				switch {
				case set%3 == 1:
					vals[k] = 2*rng.Float64() - 1
				case set%3 == 2 && colIdx[k] != rowOf(rowPtr, k) && rng.Intn(4) == 0:
					vals[k] = 0
				default:
					vals[k] = base[k] * (1 + 1e-3*(2*rng.Float64()-1))
				}
			}
			fresh, ferr := FactorInPlace(onPattern(n, rowPtr, colIdx, vals, 0))
			got, ok, err := rec.Refactor(onPattern(n, rowPtr, colIdx, vals, math.NaN()))
			switch {
			case ferr != nil || err != nil:
				if !errors.Is(ferr, ErrSingular) || ok {
					t.Fatalf("trial %d set %d: FactorInPlace %v, Refactor %v (ok %v)", trial, set, ferr, err, ok)
				}
				continue
			case ok:
				replayed++
				zeroL += sameFactors(t, rec, got, fresh)
				sameSolves(t, rng, got, fresh)
				continue
			}
			rejected++
			if equalInts(fresh.piv, rec.piv) {
				t.Fatalf("trial %d set %d: replay rejected a pivot sequence FactorInPlace reproduces", trial, set)
			}
			again := NewRecord(fresh, rowPtr, colIdx)
			fresh2, _ := FactorInPlace(onPattern(n, rowPtr, colIdx, vals, 0))
			got, ok, err = again.Refactor(onPattern(n, rowPtr, colIdx, vals, math.NaN()))
			if !ok || err != nil {
				t.Fatalf("trial %d set %d: the re-recorded pattern rejects its own values (%v)", trial, set, err)
			}
			zeroL += sameFactors(t, again, got, fresh2)
			sameSolves(t, rng, got, fresh2)
		}
	}
	t.Logf("%d replays, %d rejections, %d zero multipliers", replayed, rejected, zeroL)
	if replayed == 0 || rejected == 0 || zeroL == 0 {
		t.Fatalf("coverage: %d replays, %d rejections, %d zero multipliers; want all three", replayed, rejected, zeroL)
	}
}

// TestRefactorBreaksTiesAsTheKernel refactors value sets drawn from
// {±1, ±2}, where pivot candidates of equal magnitude are common: the
// kernel keeps the first one it scans, and the replay must agree, step
// by step, wherever the fresh pivot sequence matches the record.
func TestRefactorBreaksTiesAsTheKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	draw := func(vals []float64) {
		for k := range vals {
			vals[k] = float64((1 + rng.Intn(2)) * (1 - 2*rng.Intn(2)))
		}
	}
	replayed := 0
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(7)
		rowPtr, colIdx := replayPattern(rng, n, 0.5)
		vals := make([]float64, len(colIdx))
		draw(vals)
		f0, err := FactorInPlace(onPattern(n, rowPtr, colIdx, vals, 0))
		if err != nil {
			continue
		}
		rec := NewRecord(f0, rowPtr, colIdx)
		draw(vals)
		fresh, ferr := FactorInPlace(onPattern(n, rowPtr, colIdx, vals, 0))
		got, ok, err := rec.Refactor(onPattern(n, rowPtr, colIdx, vals, math.NaN()))
		if ferr != nil || err != nil {
			continue
		}
		if ok != equalInts(fresh.piv, rec.piv) {
			t.Fatalf("trial %d: replay ok = %v, but FactorInPlace pivots %v against the record's %v", trial, ok, fresh.piv, rec.piv)
		}
		if ok {
			replayed++
			sameFactors(t, rec, got, fresh)
		}
	}
	if replayed == 0 {
		t.Fatal("no value set replayed")
	}
}

// TestRefactorNaNPivotAsTheKernel puts a NaN at the first pivot: the
// kernel's scan starts there and no magnitude is larger than NaN, so it
// pivots on it, and the replay must do the same rather than move on or
// report a singular column.
func TestRefactorNaNPivotAsTheKernel(t *testing.T) {
	rowPtr := []int{0, 2, 4, 6}
	colIdx := []int{0, 1, 0, 1, 0, 2}
	vals := []float64{3, 1, 1, 2, 1, 4}
	f0, err := FactorInPlace(onPattern(3, rowPtr, colIdx, vals, 0))
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecord(f0, rowPtr, colIdx)
	vals[0] = math.NaN()
	fresh, ferr := FactorInPlace(onPattern(3, rowPtr, colIdx, vals, 0))
	_, ok, err := rec.Refactor(onPattern(3, rowPtr, colIdx, vals, 0))
	if ferr != nil || err != nil || !ok || !equalInts(fresh.piv, rec.piv) {
		t.Fatalf("FactorInPlace %v (pivots %v), Refactor ok %v err %v (record %v)", ferr, fresh.piv, ok, err, rec.piv)
	}
}

// TestRefactorRejectsPivotFlip makes a non-pivot candidate of the first
// column dominant: FactorInPlace then pivots on it at step 0, so the
// replay must reject at step 0.
func TestRefactorRejectsPivotFlip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(30)
		rowPtr, colIdx := replayPattern(rng, n, 0.2)
		vals := make([]float64, len(colIdx))
		for k := range vals {
			vals[k] = 2*rng.Float64() - 1
		}
		f0, err := FactorInPlace(onPattern(n, rowPtr, colIdx, vals, 0))
		if err != nil {
			continue
		}
		rec := NewRecord(f0, rowPtr, colIdx)
		flip := -1
		for k := range vals {
			if colIdx[k] == 0 && rowOf(rowPtr, k) != rec.piv[0] {
				flip = k
				break
			}
		}
		if flip < 0 {
			continue
		}
		vals[flip] = 10
		_, step, err := rec.refactor(onPattern(n, rowPtr, colIdx, vals, math.NaN()))
		if err != nil || step != 0 {
			t.Fatalf("trial %d: refactor stopped at step %d (%v), want a rejection at step 0", trial, step, err)
		}
		if _, ok, _ := rec.Refactor(onPattern(n, rowPtr, colIdx, vals, math.NaN())); ok {
			t.Fatalf("trial %d: Refactor accepted a flipped pivot", trial)
		}
		return
	}
	t.Fatal("no trial had a second candidate in column 0")
}

// TestRefactorSingularAtSameStep zeroes one column of the recorded
// values: every earlier pivot is unchanged, so the replay reaches that
// column and must report ErrSingular at the step FactorInPlace does.
func TestRefactorSingularAtSameStep(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	checked := 0
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(40)
		rowPtr, colIdx := replayPattern(rng, n, 0.15)
		vals := make([]float64, len(colIdx))
		for k := range vals {
			vals[k] = 2*rng.Float64() - 1
		}
		f0, err := FactorInPlace(onPattern(n, rowPtr, colIdx, vals, 0))
		if err != nil {
			continue
		}
		rec := NewRecord(f0, rowPtr, colIdx)
		col := rng.Intn(n)
		for k := range vals {
			if colIdx[k] == col {
				vals[k] = 0
			}
		}
		_, wantStep, ferr := factorInPlace(onPattern(n, rowPtr, colIdx, vals, 0))
		_, step, err := rec.refactor(onPattern(n, rowPtr, colIdx, vals, math.NaN()))
		if ferr != ErrSingular || err != ErrSingular || step != wantStep || step != col {
			t.Fatalf("trial %d: FactorInPlace %v at step %d, Refactor %v at step %d; column %d is zero",
				trial, ferr, wantStep, err, step, col)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no trial was checked")
	}
}

func rowOf(rowPtr []int, k int) int {
	r := 0
	for rowPtr[r+1] <= k {
		r++
	}
	return r
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
