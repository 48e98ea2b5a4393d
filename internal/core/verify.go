package core

import (
	"errors"

	"avtmor/internal/assoc"
	"avtmor/internal/mat"
)

// Verification helpers: evaluate the output-side transfer functions
// L·H1(s), L·A2(H2)(s), L·A3(H3)(s) of the full model and the ROM at a
// frequency s and report the relative deviation. Near the expansion point
// the deviation decays like |s−s0|^k for k matched moments; away from it
// the curves quantify ROM fidelity (this is how EXPERIMENTS.md tabulates
// "paper vs measured" accuracy).

// realizations returns the realizations of the reduced system and, when
// withFull is set, of the full one. Each is built once per ROM, under
// mu, and then shared: the error probes and the ROM's own transfer
// function evaluate through them concurrently, which a Realization
// allows, and the cubic probes reuse each one's cached Schur form.
func (r *ROM) realizations(withFull bool) (full, red *assoc.Realization, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.red == nil {
		if r.red, err = assoc.New(r.Sys); err != nil {
			return nil, nil, err
		}
	}
	if withFull && r.full == nil {
		if r.full, err = assoc.New(r.Full); err != nil {
			return nil, nil, err
		}
	}
	return r.full, r.red, nil
}

// TransferH1 evaluates the reduced system's own output transfer
// function L̂·(sI − Ĝ1)⁻¹·b̂ for input column in. It needs no full
// model, so it works on deserialized ROMs too.
func (r *ROM) TransferH1(in int, s complex128) ([]complex128, error) {
	_, red, err := r.realizations(false)
	if err != nil {
		return nil, err
	}
	x, err := red.EvalH1(in, s)
	if err != nil {
		return nil, err
	}
	y := make([]complex128, r.Sys.L.R)
	r.Sys.L.Complex().MulVec(y, x)
	return y, nil
}

// relOutErr maps two state-space vectors through the respective output
// maps and returns the relative output difference.
func (r *ROM) relOutErr(xf, xr []complex128) float64 {
	lf := r.Full.L.Complex()
	lr := r.Sys.L.Complex()
	yf := make([]complex128, lf.R)
	yr := make([]complex128, lr.R)
	lf.MulVec(yf, xf)
	lr.MulVec(yr, xr)
	den := mat.CNorm2(yf)
	if den == 0 {
		return mat.CNorm2(yr)
	}
	d := make([]complex128, len(yf))
	for i := range d {
		d[i] = yf[i] - yr[i]
	}
	return mat.CNorm2(d) / den
}

// H1Error returns the relative output error of H1 at s (input column in).
func (r *ROM) H1Error(in int, s complex128) (float64, error) {
	full, red, err := r.realizations(true)
	if err != nil {
		return 0, err
	}
	xf, err := full.EvalH1(in, s)
	if err != nil {
		return 0, err
	}
	xr, err := red.EvalH1(in, s)
	if err != nil {
		return 0, err
	}
	return r.relOutErr(xf, xr), nil
}

// H2Error returns the relative output error of A2(H2) for input pair
// (i, j) at s.
func (r *ROM) H2Error(i, j int, s complex128) (float64, error) {
	full, red, err := r.realizations(true)
	if err != nil {
		return 0, err
	}
	xf, err := full.EvalAssocH2(i, j, s)
	if err != nil {
		return 0, err
	}
	xr, err := red.EvalAssocH2(i, j, s)
	if err != nil {
		return 0, err
	}
	return r.relOutErr(xf, xr), nil
}

// H3Error returns the relative output error of A3(H3) at s (SISO systems;
// uses the quadratic or the cubic branch automatically).
func (r *ROM) H3Error(s complex128) (float64, error) {
	if r.Full.Inputs() != 1 {
		return 0, errors.New("core: H3Error is SISO only")
	}
	full, red, err := r.realizations(true)
	if err != nil {
		return 0, err
	}
	eval := (*assoc.Realization).EvalAssocH3
	if r.Full.G3 != nil {
		eval = (*assoc.Realization).EvalAssocH3Cubic
	}
	xf, err := eval(full, s)
	if err != nil {
		return 0, err
	}
	xr, err := eval(red, s)
	if err != nil {
		return 0, err
	}
	return r.relOutErr(xf, xr), nil
}
