package serve

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"avtmor"
)

// simRequest is the workload JSON accepted by POST
// /v1/roms/{key}/simulate: a time window, an integrator, and a stimulus.
type simRequest struct {
	// TEnd is the integration window [0, TEnd]; required, > 0.
	TEnd float64 `json:"tEnd"`
	// Steps is the fixed step count of rk4/trapezoidal (default 4000).
	Steps int `json:"steps,omitempty"`
	// Integrator is "rk4" (default), "trapezoidal" (stiff systems), or
	// "dopri5" (adaptive, with rtol/atol).
	Integrator string  `json:"integrator,omitempty"`
	RTol       float64 `json:"rtol,omitempty"`
	ATol       float64 `json:"atol,omitempty"`
	// X0 is the initial state in reduced coordinates (default origin).
	X0 []float64 `json:"x0,omitempty"`
	// Every decimates the recorded trajectory: keep every k-th sample
	// (default 1 = all).
	Every int `json:"every,omitempty"`
	// Timeout bounds the simulation (Go duration string).
	Timeout string   `json:"timeout,omitempty"`
	Input   simInput `json:"input"`
}

// simInput describes the stimulus u(t), vector-valued over the ROM's
// input channels.
type simInput struct {
	// Kind is "const" (u = values), "sin" (u_i =
	// values_i·sin(2π·freqHz_i·t + phase_i)), or "step" (u = 0 before
	// at, values after).
	Kind   string    `json:"kind"`
	Values []float64 `json:"values"`
	FreqHz []float64 `json:"freqHz,omitempty"`
	Phase  []float64 `json:"phase,omitempty"`
	At     float64   `json:"at,omitempty"`
}

// simResponse is the JSON trajectory: outputs Y[k] recorded at T[k].
type simResponse struct {
	T           []float64   `json:"t"`
	Y           [][]float64 `json:"y"`
	Steps       int         `json:"steps"`
	Rejected    int         `json:"rejected"`
	NewtonIters int         `json:"newtonIters"`
}

// handleSimulate integrates a stored ROM under a JSON-described
// workload and returns the trajectory as JSON (default) or CSV
// (?format=csv or Accept: text/csv). Simulations pass the same cost
// admission as reductions: a saturated daemon sheds them with 429 too.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	s.simReqs.Add(1)
	start := time.Now()
	if !s.checkQuota(w, r, 1) {
		return
	}
	digest := r.PathValue("key")
	if owners := s.route(r, digest); owners != nil {
		if s.hasLocal(digest) {
			s.cluster.localHits.Add(1)
		} else {
			// Forwarding needs the workload bytes twice (relay, then
			// possibly the local fallback), so buffer them up front.
			body, ok := s.readBody(w, r)
			if !ok {
				return
			}
			for _, owner := range owners {
				if s.relay(w, r, owner, bytes.NewReader(body)) {
					return
				}
			}
			s.cluster.fallbackLocal.Add(1)
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
	}
	rom, err := s.lookup(digest)
	if err != nil {
		s.httpError(w, http.StatusInternalServerError, "loading ROM: %v", err)
		return
	}
	if rom == nil {
		s.httpError(w, http.StatusNotFound, "no ROM with key %s", digest)
		return
	}
	var req simRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.httpError(w, http.StatusBadRequest, "decoding workload JSON: %v", err)
		return
	}
	u, opts, timeout, err := req.build(rom)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ctx := r.Context()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	cost := simulateCost(rom.Order(), req.Steps)
	setCost(w, cost)
	release, admitted := s.admitted(ctx, w, cost)
	if !admitted {
		return
	}
	defer release()
	res, err := rom.Simulate(ctx, u, req.TEnd, opts...)
	if err != nil {
		s.opError(w, "simulation", err)
		return
	}
	s.simLatency.Observe(time.Since(start).Seconds())
	every := req.Every
	if every < 1 {
		every = 1
	}
	out := simResponse{Steps: res.Steps, Rejected: res.Rejected, NewtonIters: res.NewtonIters}
	for k := 0; k < len(res.T); k += every {
		out.T = append(out.T, res.T[k])
		out.Y = append(out.Y, res.Y[k])
	}
	if r.URL.Query().Get("format") == "csv" || r.Header.Get("Accept") == "text/csv" {
		writeCSV(w, rom.Outputs(), &out)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	json.NewEncoder(w).Encode(&out)
}

// build resolves the workload into the facade's Input and SimOptions.
func (req *simRequest) build(rom *avtmor.ROM) (avtmor.Input, []avtmor.SimOption, time.Duration, error) {
	if !(req.TEnd > 0) || math.IsInf(req.TEnd, 0) {
		return nil, nil, 0, fmt.Errorf("tEnd must be a positive finite time, got %g", req.TEnd)
	}
	m := rom.Inputs()
	in := req.Input
	if len(in.Values) != m {
		return nil, nil, 0, fmt.Errorf("input.values has %d channels, ROM has %d inputs", len(in.Values), m)
	}
	var u avtmor.Input
	switch in.Kind {
	case "", "const":
		u = avtmor.ConstInput(in.Values)
	case "sin":
		if len(in.FreqHz) != m {
			return nil, nil, 0, fmt.Errorf("input.freqHz has %d channels, ROM has %d inputs", len(in.FreqHz), m)
		}
		if in.Phase != nil && len(in.Phase) != m {
			return nil, nil, 0, fmt.Errorf("input.phase has %d channels, ROM has %d inputs", len(in.Phase), m)
		}
		amp, freq, phase := in.Values, in.FreqHz, in.Phase
		u = func(t float64) []float64 {
			out := make([]float64, m)
			for i := range out {
				arg := 2 * math.Pi * freq[i] * t
				if phase != nil {
					arg += phase[i]
				}
				out[i] = amp[i] * math.Sin(arg)
			}
			return out
		}
	case "step":
		vals, at, zero := in.Values, in.At, make([]float64, m)
		u = func(t float64) []float64 {
			if t < at {
				return zero
			}
			return vals
		}
	default:
		return nil, nil, 0, fmt.Errorf("input.kind: want const, sin, or step, got %q", in.Kind)
	}

	steps := req.Steps
	if steps == 0 {
		steps = 4000
	}
	var opts []avtmor.SimOption
	switch req.Integrator {
	case "", "rk4":
		opts = append(opts, avtmor.WithRK4(steps))
	case "trapezoidal":
		opts = append(opts, avtmor.WithTrapezoidal(steps))
	case "dopri5":
		rtol, atol := req.RTol, req.ATol
		if rtol == 0 {
			rtol = 1e-7
		}
		if atol == 0 {
			atol = 1e-9
		}
		opts = append(opts, avtmor.WithDopri5(rtol, atol))
	default:
		return nil, nil, 0, fmt.Errorf("integrator: want rk4, trapezoidal, or dopri5, got %q", req.Integrator)
	}
	if req.X0 != nil {
		if len(req.X0) != rom.Order() {
			return nil, nil, 0, fmt.Errorf("x0 has %d entries, ROM order is %d", len(req.X0), rom.Order())
		}
		opts = append(opts, avtmor.WithInitialState(req.X0))
	}
	var timeout time.Duration
	if req.Timeout != "" {
		d, err := time.ParseDuration(req.Timeout)
		if err != nil || d <= 0 {
			return nil, nil, 0, fmt.Errorf("timeout: want a positive Go duration, got %q", req.Timeout)
		}
		timeout = d
	}
	return u, opts, timeout, nil
}

// writeCSV renders the trajectory as "t,y0,…,y{p-1}" rows.
func writeCSV(w http.ResponseWriter, outputs int, res *simResponse) {
	w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	cw := csv.NewWriter(w)
	header := make([]string, 1+outputs)
	header[0] = "t"
	for j := 0; j < outputs; j++ {
		header[j+1] = "y" + strconv.Itoa(j)
	}
	cw.Write(header)
	row := make([]string, 1+outputs)
	for k := range res.T {
		row[0] = strconv.FormatFloat(res.T[k], 'g', -1, 64)
		for j, v := range res.Y[k] {
			row[j+1] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		cw.Write(row)
	}
	cw.Flush()
}
