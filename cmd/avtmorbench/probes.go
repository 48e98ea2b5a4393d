package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"avtmor"
	"avtmor/internal/kron"
	"avtmor/internal/netlist"
	"avtmor/internal/solver"
	"avtmor/internal/store"
)

// Layer probes: direct, timed calls to one package's public functions on
// the workload's own systems and ROMs, for the layers whose cost the
// traced pass cannot separate from its caller.

func msSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }

// probeKron times the Kronecker-sum solvers on each network's dense G1
// at its expansion point: ⊕² where the reduction takes H2/H3 moments
// through the Eq.-(17) realization, ⊕³ where it takes cubic H3 moments.
func probeKron(ctx context.Context, rn *run, nets []*network) error {
	rng := rand.New(rand.NewSource(1))
	var s2set, s2solve, s3set, s3solve float64
	for _, nw := range nets {
		if err := ctx.Err(); err != nil {
			return err
		}
		sys, err := internalSystem(nw.sys)
		if err != nil {
			return err
		}
		wantH2 := (sys.G2 != nil || sys.D1 != nil) && (nw.k2 > 0 || nw.k3 > 0)
		wantH3Cubic := sys.G3 != nil && nw.k3 > 0
		if sys.G1 == nil || !(wantH2 || wantH3Cubic) {
			continue
		}
		n := sys.N
		if wantH2 {
			t0 := time.Now()
			s2, err := kron.NewSumSolver2(sys.G1)
			s2set += msSince(t0)
			if err != nil {
				return fmt.Errorf("%s: kron.NewSumSolver2: %w", nw.id, err)
			}
			v := randVec(rng, n*n)
			t0 = time.Now()
			_, err = s2.Solve(nw.s0, v)
			s2solve += msSince(t0)
			if err != nil {
				return fmt.Errorf("%s: SumSolver2.Solve: %w", nw.id, err)
			}
		}
		if wantH3Cubic {
			t0 := time.Now()
			s3, err := kron.NewSumSolver3(sys.G1)
			s3set += msSince(t0)
			if err != nil {
				return fmt.Errorf("%s: kron.NewSumSolver3: %w", nw.id, err)
			}
			v := randVec(rng, n*n*n)
			t0 = time.Now()
			_, err = s3.Solve(nw.s0, v)
			s3solve += msSince(t0)
			if err != nil {
				return fmt.Errorf("%s: SumSolver3.Solve: %w", nw.id, err)
			}
		}
	}
	rn.set("kron.sum2_setup_ms", s2set)
	rn.set("kron.sum2_solve_ms", s2solve)
	rn.set("kron.sum3_setup_ms", s3set)
	rn.set("kron.sum3_solve_ms", s3solve)
	return nil
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 2*rng.Float64() - 1
	}
	return v
}

// probeBatchWidth is the column count of the SolveBatch probe.
const probeBatchWidth = 8

// probeSolver times the shifted-pencil factorizations on each network's
// G1 through a fresh solver.ShiftedCache (auto-routed, as Reduce uses
// it): the first shift pays the full factorization (for sparse pencils,
// the symbolic analysis too), the second is served numeric-only from the
// recorded pattern where the sparse backend can replay it. Then one
// SolveBatch of probeBatchWidth columns.
func probeSolver(ctx context.Context, rn *run, nets []*network) error {
	rng := rand.New(rand.NewSource(2))
	var fresh, refactor, perCol float64
	for _, nw := range nets {
		sys, err := internalSystem(nw.sys)
		if err != nil {
			return err
		}
		sc := solver.NewShiftedCache(solver.Operand(sys.G1, sys.G1S), nil, nil)
		sigma := -(nw.s0 + 0.25)
		t0 := time.Now()
		if _, err := sc.FactorCtx(ctx, sigma); err != nil {
			return fmt.Errorf("%s: first factorization: %w", nw.id, err)
		}
		fresh += msSince(t0)
		t0 = time.Now()
		f, err := sc.FactorCtx(ctx, sigma-0.25)
		if err != nil {
			return fmt.Errorf("%s: second factorization: %w", nw.id, err)
		}
		refactor += msSince(t0)
		cols := make([][]float64, probeBatchWidth)
		for i := range cols {
			cols[i] = randVec(rng, sys.N)
		}
		t0 = time.Now()
		if err := f.SolveBatchCtx(ctx, cols); err != nil {
			return err
		}
		perCol += 1e3 * msSince(t0) / probeBatchWidth
	}
	rn.set("solver.factor_fresh_ms", fresh)
	rn.set("solver.refactor_ms", refactor)
	if len(nets) > 0 {
		rn.set("solver.solve_batch_us_per_col", perCol/float64(len(nets)))
	}
	return nil
}

// probeNetlist times netlist.Parse and Circuit.Build over the workload's
// netlist texts.
func probeNetlist(rn *run, texts [][]byte) error {
	if len(texts) == 0 {
		return nil
	}
	var parseUs, buildMs, kb float64
	for _, text := range texts {
		t0 := time.Now()
		c, err := netlist.Parse(bytes.NewReader(text))
		parseUs += 1e3 * msSince(t0)
		if err != nil {
			return fmt.Errorf("netlist.Parse: %w", err)
		}
		t0 = time.Now()
		if _, err := c.Build(); err != nil {
			return fmt.Errorf("Circuit.Build: %w", err)
		}
		buildMs += msSince(t0)
		kb += float64(len(text)) / 1024
	}
	rn.set("netlist.parse_us_per_kb", parseUs/kb)
	rn.set("netlist.build_ms", buildMs/float64(len(texts)))
	return nil
}

// probeFingerprint times the first (uncached) Fingerprint of each
// system, the cost every reduce request pays to find its cache key.
func probeFingerprint(rn *run, systems []*avtmor.System) {
	if len(systems) == 0 {
		return
	}
	total := 0.0
	for _, s := range systems {
		t0 := time.Now()
		s.Fingerprint()
		total += 1e3 * msSince(t0)
	}
	rn.set("system.fingerprint_us", total/float64(len(systems)))
}

// probeROMIO times ROM.WriteTo and ReadROM on the workload's ROMs.
func probeROMIO(rn *run, roms []*avtmor.ROM) error {
	if len(roms) == 0 {
		return nil
	}
	var enc, dec, size float64
	for _, r := range roms {
		var buf bytes.Buffer
		t0 := time.Now()
		if _, err := r.WriteTo(&buf); err != nil {
			return fmt.Errorf("ROM.WriteTo: %w", err)
		}
		enc += 1e3 * msSince(t0)
		size += float64(buf.Len())
		t0 = time.Now()
		if _, err := avtmor.ReadROM(bytes.NewReader(buf.Bytes())); err != nil {
			return fmt.Errorf("ReadROM: %w", err)
		}
		dec += 1e3 * msSince(t0)
	}
	n := float64(len(roms))
	rn.set("romio.encode_us", enc/n)
	rn.set("romio.decode_us", dec/n)
	rn.set("romio.bytes", size/n)
	return nil
}

// probeStore times the on-disk store on the workload's ROMs in a fresh
// directory of the run's work area: Store (serialize, write, fsync,
// rename), Load, and OpenRaw.
func probeStore(cfg *config, rn *run, keys []string, roms []*avtmor.ROM) error {
	if len(roms) == 0 {
		return nil
	}
	dir := filepath.Join(cfg.runDir(), "probe-store")
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	var write, load, open float64
	for i, r := range roms {
		t0 := time.Now()
		if err := st.Store(keys[i], r); err != nil {
			return fmt.Errorf("store.Store: %w", err)
		}
		write += msSince(t0)
	}
	for _, k := range keys {
		t0 := time.Now()
		r, err := st.Load(k)
		load += msSince(t0)
		if err != nil || r == nil {
			return fmt.Errorf("store.Load: %v (found %v)", err, r != nil)
		}
		t0 = time.Now()
		f, _, err := st.OpenRaw(store.Digest(k))
		open += 1e3 * msSince(t0)
		if err != nil {
			return fmt.Errorf("store.OpenRaw: %w", err)
		}
		f.Close()
	}
	n := float64(len(roms))
	rn.set("store.write_ms", write/n)
	rn.set("store.load_ms", load/n)
	rn.set("store.open_raw_us", open/n)
	return nil
}
