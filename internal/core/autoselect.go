package core

import (
	"errors"
	"fmt"

	"avtmor/internal/balance"
	"avtmor/internal/qldae"
)

// SuggestOrders implements the paper's §4 (first bullet) observation:
// because the associated transforms are ordinary single-s transfer
// functions, the moment counts can be chosen automatically from "the
// Hankel singular values or similar measure inherent to linear MOR"
// instead of NORM's ad hoc order choice.
//
// k1 is the number of Hankel singular values of the linear part
// (G1, B, L) above tol·σ_max; k2 and k3 taper as ⌈k1/2⌉ and ⌈k1/3⌉ — the
// ratio the paper's own experiments use (6/3/2). Orders for absent
// nonlinear terms are zeroed. Requires a strictly stable G1 (the Lyapunov
// equations of a marginally stable system are singular; quadratic-
// linearized models with neutral manifold directions should pick orders
// manually and expand off DC).
func SuggestOrders(sys *qldae.System, tol float64) (Options, error) {
	if err := sys.Validate(); err != nil {
		return Options{}, err
	}
	if tol <= 0 {
		tol = 1e-4
	}
	if sys.G1 == nil {
		return Options{}, errors.New("core: Hankel order selection needs a dense G1 (CSR-only system); pick moment counts manually")
	}
	hsv, err := balance.HSV(sys.G1, sys.B, sys.L)
	if err != nil {
		return Options{}, fmt.Errorf("core: Hankel singular values: %w", err)
	}
	k1 := balance.SuggestOrder(hsv, tol)
	opt := Options{K1: k1}
	if sys.G2 != nil || sys.D1 != nil {
		opt.K2 = (k1 + 1) / 2
	}
	if (sys.G2 != nil || sys.G3 != nil) && sys.Inputs() == 1 {
		opt.K3 = (k1 + 2) / 3
	}
	return opt, nil
}
