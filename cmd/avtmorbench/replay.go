package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"time"

	"avtmor"
	"avtmor/internal/assoc"
	"avtmor/internal/core"
	"avtmor/internal/kron"
	"avtmor/internal/qldae"
	"avtmor/internal/qr"
	"avtmor/internal/solver"
)

// replayReduce is core.ReduceContext's serial path, stage by stage,
// through the public functions of assoc, kron, qr and qldae, with a span
// around each call. It must build the ROM core builds: equalBytes holds
// it to avtmor.Reduce byte for byte, so the per-layer decomposition
// cannot drift from the code it decomposes.
func replayReduce(ctx context.Context, tr *tracer, parent, req int, sys *qldae.System, opt core.Options) (*core.ROM, error) {
	start := time.Now()
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if opt.K1 <= 0 && opt.K2 <= 0 && opt.K3 <= 0 {
		return nil, errors.New("replay: at least one moment count must be positive")
	}
	sp := tr.begin("assoc.setup", parent, req)
	r, err := assoc.NewWithSolverCtx(ctx, sys, solver.ByKind(opt.Solver))
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	r.SetBlockSize(opt.BlockSize)
	wantH2 := sys.G2 != nil || sys.D1 != nil
	wantH3 := wantH2 && opt.K3 > 0 && sys.Inputs() == 1
	wantH3Cubic := sys.G3 != nil && opt.K3 > 0 && sys.Inputs() == 1
	var cols [][]float64
	stage := func(name string, f func() ([][]float64, error)) error {
		sp := tr.begin(name, parent, req)
		c, err := f()
		tr.end(sp)
		cols = append(cols, c...)
		return err
	}
	for _, s0 := range append([]float64{opt.S0}, opt.ExtraPoints...) {
		if err := stage("assoc.h1", func() ([][]float64, error) { return r.H1Moments(opt.K1, s0) }); err != nil {
			return nil, err
		}
		if !wantH2 {
			continue
		}
		h2 := r.H2Candidates
		if opt.DecoupledH2 {
			h2 = r.H2CandidatesDecoupled
		}
		if err := stage("assoc.h2", func() ([][]float64, error) { return h2(opt.K2, s0) }); err != nil {
			return nil, err
		}
	}
	if wantH3 {
		if err := stage("assoc.h3", func() ([][]float64, error) { return r.H3Moments(opt.K3, opt.S0) }); err != nil {
			return nil, err
		}
	}
	if wantH3Cubic {
		if sys.G1 == nil {
			return nil, errors.New("replay: cubic H3 moments need a dense G1")
		}
		sp := tr.begin("kron.sum3_setup", parent, req)
		s3, err := kron.NewSumSolver3(sys.G1)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		if err := stage("assoc.h3", func() ([][]float64, error) { return r.H3MomentsCubic(s3, opt.K3, opt.S0) }); err != nil {
			return nil, err
		}
	}
	dropTol := opt.DropTol
	if dropTol <= 0 {
		dropTol = 1e-8 // core.Options' default
	}
	sp = tr.begin("qr.orthonormalize", parent, req)
	v := qr.Orthonormalize(cols, dropTol)
	tr.end(sp)
	if v == nil {
		return nil, errors.New("replay: all candidate vectors deflated")
	}
	sp = tr.begin("qldae.project", parent, req)
	rsys := sys.Project(v)
	tr.end(sp)
	cs := r.SolverStats()
	return &core.ROM{
		V: v, Sys: rsys, Full: sys, Method: "assoc",
		Stats: core.Stats{
			Candidates:       len(cols),
			Order:            v.C,
			Build:            time.Since(start),
			Backend:          r.SolverBackend(),
			Factorizations:   cs.Factorizations,
			SolveCacheHits:   cs.Hits,
			BatchSolves:      cs.BatchSolves,
			BatchColumns:     cs.BatchColumns,
			SymbolicAnalyses: cs.SymbolicAnalyses,
			NumericRefactors: cs.NumericRefactors,
		},
	}, nil
}

// equalBytes reports whether the replayed ROM serializes to exactly the
// bytes of ref, an avtmor.Reduce result for the same system and options.
// The two fields that differ between any two reductions — the build's
// wall-clock time and its process-wide allocation count — are taken from
// ref first; everything else must match bit for bit.
func equalBytes(replayed *core.ROM, ref *avtmor.ROM) (bool, error) {
	var want bytes.Buffer
	if _, err := ref.WriteTo(&want); err != nil {
		return false, err
	}
	st := ref.Stats()
	replayed.Stats.Build, replayed.Stats.Allocs = st.Build, st.Allocs
	got, err := romBytes(replayed)
	if err != nil {
		return false, err
	}
	return bytes.Equal(got, want.Bytes()), nil
}

// romBytes serializes an engine-level ROM through avtmor.ROM.WriteTo, the
// one ROM codec, by placing it in a facade ROM.
func romBytes(r *core.ROM) ([]byte, error) {
	var out avtmor.ROM
	p, err := unexported[*core.ROM](&out, "rom")
	if err != nil {
		return nil, err
	}
	*p = r
	var buf bytes.Buffer
	_, err = out.WriteTo(&buf)
	return buf.Bytes(), err
}

// internalSystem returns the QLDAE behind a facade System: the replay
// must drive the internal layers with exactly the matrices Reduce sees,
// and the facade does not export them.
func internalSystem(s *avtmor.System) (*qldae.System, error) {
	p, err := unexported[*qldae.System](s, "sys")
	if err != nil {
		return nil, err
	}
	return *p, nil
}

// unexported returns a pointer to the unexported field name of the struct
// *ptr, checked to have type T.
func unexported[T any](ptr any, name string) (*T, error) {
	f := reflect.ValueOf(ptr).Elem().FieldByName(name)
	if !f.IsValid() || f.Type() != reflect.TypeFor[T]() {
		return nil, fmt.Errorf("avtmorbench: %T has no field %s of type %v", ptr, name, reflect.TypeFor[T]())
	}
	return (*T)(f.Addr().UnsafePointer()), nil
}
