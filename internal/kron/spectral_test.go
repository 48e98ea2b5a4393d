package kron

import (
	"errors"

	"avtmor/internal/mat"
	"avtmor/internal/schur"
)

// Spectral is the eigendecomposition oracle for Kronecker-sum resolvents:
// with A = S·Λ·S⁻¹, (⊕ᵈA − σI)⁻¹ = (⊗ᵈS)·diag(1/(λ_{i1}+…+λ_{id}−σ))·(⊗ᵈS)⁻¹,
// applied by d mode multiplications. It requires a diagonalizable A and
// cross-validates the Schur/Sylvester solvers by an independent method.
type Spectral struct {
	n    int
	vals []complex128
	s    *mat.CDense
	sinv *mat.CDense
}

// NewSpectral eigendecomposes a.
func NewSpectral(a *mat.Dense) (*Spectral, error) {
	e, err := schur.Eigen(a)
	if err != nil {
		return nil, err
	}
	inv, err := e.InverseVectors()
	if err != nil {
		return nil, err
	}
	return &Spectral{n: a.R, vals: e.Values, s: e.Vectors, sinv: inv}, nil
}

// Values returns the eigenvalues of A.
func (sp *Spectral) Values() []complex128 { return sp.vals }

// Solve computes z with (⊕ᵈA − σI)·z = v for d ∈ {1, 2, 3}.
// v has length n^d; the result is complex (real inputs with real σ give
// results with negligible imaginary part, which callers may discard).
func (sp *Spectral) Solve(d int, sigma complex128, v []complex128) ([]complex128, error) {
	n := sp.n
	size := 1
	for i := 0; i < d; i++ {
		size *= n
	}
	if len(v) != size {
		panic("kron: Spectral Solve length mismatch")
	}
	if d < 1 || d > 3 {
		return nil, errors.New("kron: Spectral supports d = 1, 2, 3")
	}
	w := make([]complex128, size)
	copy(w, v)
	// Transform to eigencoordinates: apply S⁻¹ along every mode.
	for m := 0; m < d; m++ {
		w = modeMul(sp.sinv, w, n, d, m)
	}
	// Divide by λ_{i1}+…+λ_{id} − σ.
	idx := make([]int, d)
	for flat := 0; flat < size; flat++ {
		f := flat
		var lam complex128
		for m := d - 1; m >= 0; m-- {
			idx[m] = f % n
			f /= n
		}
		for _, i := range idx {
			lam += sp.vals[i]
		}
		den := lam - sigma
		if den == 0 {
			return nil, errors.New("kron: Spectral singular shift")
		}
		w[flat] /= den
	}
	// Transform back.
	for m := 0; m < d; m++ {
		w = modeMul(sp.s, w, n, d, m)
	}
	return w, nil
}

// modeMul applies the n×n matrix m along mode "mode" of a d-way tensor
// stored flat with mode 0 slowest (index i0·n^{d-1} + i1·n^{d-2} + …).
// Mode index convention matches VecKron: (x⊗y)[p·n+q] means mode 0 is the
// first Kronecker factor.
func modeMul(mm *mat.CDense, t []complex128, n, d, mode int) []complex128 {
	// stride between consecutive values of the mode index.
	stride := 1
	for m := d - 1; m > mode; m-- {
		stride *= n
	}
	outer := len(t) / (n * stride) // number of blocks of the slower modes
	out := make([]complex128, len(t))
	for o := 0; o < outer; o++ {
		base := o * n * stride
		for s := 0; s < stride; s++ {
			// Gather the fiber, multiply, scatter.
			for i := 0; i < n; i++ {
				var acc complex128
				row := mm.A[i*n : (i+1)*n]
				for k := 0; k < n; k++ {
					acc += row[k] * t[base+k*stride+s]
				}
				out[base+i*stride+s] = acc
			}
		}
	}
	return out
}
