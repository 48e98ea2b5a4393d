package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"time"

	"avtmor"
	"avtmor/internal/core"
	"avtmor/internal/ode"
	"avtmor/internal/qldae"
)

// network is one system a library workload reduces, with the stimulus,
// integrator and orders it is run with and the error bound its ROMs must
// meet against the full transient.
type network struct {
	id         string
	sys        *avtmor.System
	u          avtmor.Input
	tEnd       float64
	steps      int
	stiff      bool
	k1, k2, k3 int
	s0         float64
	extra      []float64
	norm       bool    // also reduce with NORM (Table 1's comparison)
	bound      float64 // max relative transient error of every ROM
	netlist    []byte  // the netlist text the system was parsed from, if any
}

func (nw *network) opts() []avtmor.Option {
	return []avtmor.Option{avtmor.WithOrders(nw.k1, nw.k2, nw.k3), avtmor.WithExpansion(nw.s0, nw.extra...)}
}

func (nw *network) coreOpts() core.Options {
	return core.Options{K1: nw.k1, K2: nw.k2, K3: nw.k3, S0: nw.s0, ExtraPoints: nw.extra}
}

func (nw *network) simOpts() []avtmor.SimOption {
	if nw.stiff {
		return []avtmor.SimOption{avtmor.WithTrapezoidal(nw.steps)}
	}
	return []avtmor.SimOption{avtmor.WithRK4(nw.steps)}
}

// paperNetworks are the four §3 testbenches exactly as internal/exper
// runs them. They are the paper's fixed circuits, so the seed changes
// nothing here.
func paperNetworks(int64) ([]*network, error) {
	mk := func(id string, w *avtmor.Workload, k1, k2, k3 int, norm bool, bound float64) *network {
		return &network{id: id, sys: w.System, u: w.U, tEnd: w.TEnd, steps: w.Steps, stiff: w.Stiff,
			k1: k1, k2: k2, k3: k3, s0: w.S0, norm: norm, bound: bound}
	}
	return []*network{
		mk("s31", avtmor.NTLVoltage(50), 7, 4, 2, false, 1e-3),
		mk("s32", avtmor.NTLCurrent(70), 6, 3, 2, true, 1e-3),
		mk("s33", avtmor.RFReceiver(), 4, 2, 0, true, 0.1),
		mk("s34", avtmor.Varistor(), 7, 0, 2, false, 0.05),
	}, nil
}

// Interconnect sizes and schedule: network (a) is a CSR-only line of
// 2·4000−1 states, network (b) a netlist of 300 sections (898 states).
// Both are reduced with 6 H1 moments about three expansion points and
// integrated with 1000 trapezoidal steps.
const (
	lineSections = 4000
	netSections  = 300
	icSteps      = 1000
	icTEnd       = 40.0
)

func interconnectNetworks(seed int64) ([]*network, error) {
	rng := rand.New(rand.NewSource(seed))
	line, err := rlcLine(rng, lineSections)
	if err != nil {
		return nil, err
	}
	text := rlcNetlist(rng, netSections)
	net, err := avtmor.ParseNetlist(strings.NewReader(text))
	if err != nil {
		return nil, err
	}
	mk := func(id string, sys *avtmor.System, text []byte) *network {
		return &network{id: id, sys: sys, u: portInputs(rng, sys.Inputs()), tEnd: icTEnd, steps: icSteps, stiff: true,
			k1: 6, s0: 0, extra: []float64{0.4, 0.9}, bound: 1e-3, netlist: text}
	}
	return []*network{mk("ic-line", line, nil), mk("ic-netlist", net, []byte(text))}, nil
}

// netRecord is what one network contributed to one pass.
type netRecord struct {
	build, full, rom   float64 // seconds
	normBuild, normSim float64
	order, normOrder   int
	delivery           float64     // everything above plus the checks
	checked            int         // ROMs that passed their error check
	proposed           *avtmor.ROM // kept for the first pass only (see runLibrary)
}

// passRecord is one pass over every network of the workload.
type passRecord struct {
	nets []netRecord
}

func (p passRecord) total(f func(netRecord) float64) float64 {
	t := 0.0
	for _, n := range p.nets {
		t += f(n)
	}
	return t
}

// libraryPass runs every network once, untraced: full transient,
// Reduce, ROM transient (and the NORM pair where Table 1 has one), each
// ROM checked against the full transient.
func libraryPass(ctx context.Context, rn *run, nets []*network) passRecord {
	var p passRecord
	for _, nw := range nets {
		var rec netRecord
		t0 := time.Now()
		full, err := nw.sys.Simulate(ctx, nw.u, nw.tEnd, nw.simOpts()...)
		rec.full = time.Since(t0).Seconds()
		if err != nil {
			rn.check(false, "%s: full transient: %v", nw.id, err)
			p.nets = append(p.nets, rec)
			continue
		}
		deliver := func(label string, reduce func(context.Context, *avtmor.System, ...avtmor.Option) (*avtmor.ROM, error)) (*avtmor.ROM, float64, float64) {
			t0 := time.Now()
			rom, err := reduce(ctx, nw.sys, nw.opts()...)
			build := time.Since(t0).Seconds()
			if err != nil {
				rn.check(false, "%s: %s: %v", nw.id, label, err)
				return nil, build, 0
			}
			t0 = time.Now()
			res, err := rom.Simulate(ctx, nw.u, nw.tEnd, nw.simOpts()...)
			sim := time.Since(t0).Seconds()
			if err != nil {
				rn.check(false, "%s: %s ROM transient: %v", nw.id, label, err)
				return rom, build, sim
			}
			e := avtmor.MaxRelErr(full, res, 0)
			rn.check(e <= nw.bound, "%s: %s ROM error %.3g exceeds bound %.3g", nw.id, label, e, nw.bound)
			if e <= nw.bound {
				rec.checked++
			}
			return rom, build, sim
		}
		rec.proposed, rec.build, rec.rom = deliver("Reduce", avtmor.Reduce)
		if rec.proposed != nil {
			rec.order = rec.proposed.Order()
		}
		if nw.norm {
			var norm *avtmor.ROM
			norm, rec.normBuild, rec.normSim = deliver("ReduceNORM", avtmor.ReduceNORM)
			if norm != nil {
				rec.normOrder = norm.Order()
			}
		}
		rec.delivery = time.Since(t0).Seconds()
		p.nets = append(p.nets, rec)
	}
	return p
}

// heapAllocBytes is the process's cumulative heap allocation.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// odeStats accumulates integrator work for the ode.* metrics.
type odeStats struct {
	steps, newton int
	seconds       float64
	allocBytes    uint64
}

func (o *odeStats) msPerStep() float64 {
	if o.steps == 0 {
		return 0
	}
	return 1e3 * o.seconds / float64(o.steps)
}

// integrate runs the facade's integrator choice for nw directly on an
// internal system (ode.TrapezoidalSolverCtx or ode.RK4Ctx, as Simulate
// does) and accounts its work.
func integrate(ctx context.Context, nw *network, sys *qldae.System, acc *odeStats) (*ode.Result, error) {
	a0, t0 := heapAllocBytes(), time.Now()
	x0 := make([]float64, sys.N)
	var res *ode.Result
	var err error
	if nw.stiff {
		res, err = ode.TrapezoidalSolverCtx(ctx, sys, x0, ode.Input(nw.u), nw.tEnd, nw.steps, nil)
	} else {
		res, err = ode.RK4Ctx(ctx, sys, x0, ode.Input(nw.u), nw.tEnd, nw.steps)
	}
	acc.seconds += time.Since(t0).Seconds()
	acc.allocBytes += heapAllocBytes() - a0
	if res != nil {
		acc.steps += res.Steps
		acc.newton += res.NewtonIters
	}
	return res, err
}

// tracedPass runs every network once through the internal layers with a
// span around each call: the full transient and the ROM transient
// through package ode, the proposed reduction through replayReduce. Each
// replayed ROM must serialize to the bytes of the untraced pass's
// avtmor.Reduce ROM for the same network (refs).
func tracedPass(ctx context.Context, rn *run, tr *tracer, nets []*network, refs []netRecord) (fullOde, romOde odeStats, replayed []*core.ROM) {
	pass := tr.begin("pass", 0, 1)
	defer tr.end(pass)
	for i, nw := range nets {
		sp := tr.begin("network", pass, 1)
		sys, err := internalSystem(nw.sys)
		if err != nil {
			rn.check(false, "%s: %v", nw.id, err)
			tr.end(sp)
			continue
		}
		s := tr.begin("ode.full", sp, 1)
		full, err := integrate(ctx, nw, sys, &fullOde)
		tr.end(s)
		if err != nil {
			rn.check(false, "%s: traced full transient: %v", nw.id, err)
			tr.end(sp)
			continue
		}
		s = tr.begin("core.reduce", sp, 1)
		rom, err := replayReduce(ctx, tr, s, 1, sys, nw.coreOpts())
		tr.end(s)
		if err != nil {
			rn.check(false, "%s: replayed reduction: %v", nw.id, err)
			tr.end(sp)
			continue
		}
		replayed = append(replayed, rom)
		s = tr.begin("bench.check", sp, 1)
		if ref := refs[i].proposed; ref != nil {
			eq, err := equalBytes(rom, ref)
			rn.check(err == nil && eq, "%s: replayed ROM bytes differ from avtmor.Reduce (err %v)", nw.id, err)
		}
		tr.end(s)
		s = tr.begin("ode.rom", sp, 1)
		res, err := integrate(ctx, nw, rom.Sys, &romOde)
		tr.end(s)
		s = tr.begin("bench.check", sp, 1)
		if err != nil {
			rn.check(false, "%s: traced ROM transient: %v", nw.id, err)
		} else {
			e := ode.MaxRelErr(full, res, 0)
			rn.check(e <= nw.bound, "%s: replayed ROM error %.3g exceeds bound %.3g", nw.id, e, nw.bound)
		}
		tr.end(s)
		if nw.norm {
			s = tr.begin("core.reduce_norm", sp, 1)
			nm, err := avtmor.ReduceNORM(ctx, nw.sys, nw.opts()...)
			tr.end(s)
			if err != nil {
				rn.check(false, "%s: ReduceNORM: %v", nw.id, err)
			} else {
				s = tr.begin("ode.norm_rom", sp, 1)
				_, err := nm.Simulate(ctx, nw.u, nw.tEnd, nw.simOpts()...)
				tr.end(s)
				rn.check(err == nil, "%s: NORM ROM transient: %v", nw.id, err)
			}
		}
		tr.end(sp)
	}
	return fullOde, romOde, replayed
}

// libraryConfig describes one library workload.
type libraryConfig struct {
	networks func(seed int64) ([]*network, error)
}

var libraryWorkloads = map[string]libraryConfig{
	"paper-s3":     {networks: paperNetworks},
	"interconnect": {networks: interconnectNetworks},
}

// runLibrary runs a library workload: set-up, then timed passes until
// the measuring time is spent (at least one). There is no warm-up pass:
// the first pass measured no slower than later ones (Go compiles ahead
// of time, and every pass allocates its own solver caches). A traced
// run follows its single timed pass with one traced pass and the
// per-layer probes.
func runLibrary(ctx context.Context, cfg *config, lc libraryConfig, rn *run) error {
	var nets []*network
	setup, err := timeSetup(9, func() (time.Duration, error) {
		runtime.GC() // each set-up starts from a heap without the last one's garbage
		t0 := time.Now()
		var err error
		nets, err = lc.networks(cfg.seed)
		return time.Since(t0), err
	})
	if err != nil {
		return fmt.Errorf("building networks: %w", err)
	}
	rn.set("setup_s", setup)
	for _, nw := range nets {
		if nw.id == cfg.faults.tightenBound {
			nw.bound = 1e-15
		}
	}
	var passes []passRecord
	deadline := time.Now().Add(cfg.seconds)
	for len(passes) == 0 || (!cfg.traced && time.Now().Before(deadline)) {
		// Each pass starts from a collected heap whose free pages went back
		// to the OS, and keeps no ROMs past its end except the first pass's
		// (the traced run's references). Then neither its time nor the peak
		// memory depends on how many passes came before it: when the pages
		// and the ROMs stayed, peak_rss_mb rose with the pass count, that is
		// with the host's speed, and spread by 23–27% from run to run.
		debug.FreeOSMemory()
		p := libraryPass(ctx, rn, nets)
		if len(passes) > 0 {
			for i := range p.nets {
				p.nets[i].proposed = nil
			}
		}
		passes = append(passes, p)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	reportLibrary(rn, nets, passes)
	if cfg.traced {
		return traceLibrary(ctx, cfg, rn, nets, passes[0])
	}
	return nil
}

// reportLibrary computes the end-to-end metrics of the timed passes. A
// library workload's unit of work is the pass — deliver a checked ROM for
// every network — so its latency percentiles are over pass times and its
// goodput counts checked ROMs per second.
func reportLibrary(rn *run, nets []*network, passes []passRecord) {
	var build, full, rom, passTimes []float64
	for i, p := range passes {
		build = append(build, p.total(func(n netRecord) float64 { return n.build }))
		full = append(full, p.total(func(n netRecord) float64 { return n.full }))
		rom = append(rom, p.total(func(n netRecord) float64 { return n.rom }))
		passTimes = append(passTimes, p.total(func(n netRecord) float64 { return n.delivery }))
		fmt.Fprintf(os.Stderr, "avtmorbench: pass %d: %.3fs (build %.3fs, full transients %.3fs, ROM transients %.3fs)\n",
			i+1, passTimes[i], build[i], full[i], rom[i])
	}
	rn.set("build_s", median(build))
	rn.set("ode.full_sim_s", median(full))
	rn.set("ode.rom_sim_s", median(rom))
	order := int(passes[0].total(func(n netRecord) float64 { return float64(n.order) }))
	for i, p := range passes[1:] {
		o := int(p.total(func(n netRecord) float64 { return float64(n.order) }))
		rn.check(o == order, "pass %d: summed ROM order %d, first pass %d", i+2, o, order)
	}
	rn.set("rom_order", float64(order))
	rn.set("p50_ms", 1e3*median(passTimes))
	rn.set("p95_ms", 1e3*quantile(passTimes, 0.95))
	delivered := 0
	for _, p := range passes {
		for _, n := range p.nets {
			delivered += n.checked
		}
	}
	rn.set("goodput_rps", float64(delivered)/sum(passTimes))

	// Table 1: the paper's comparison, reported per layer.
	first := passes[0]
	rn.set("norm.build_s", first.total(func(n netRecord) float64 { return n.normBuild }))
	rn.set("norm.rom_sim_s", first.total(func(n netRecord) float64 { return n.normSim }))
	rn.set("norm.rom_order", first.total(func(n netRecord) float64 { return float64(n.normOrder) }))
	for i, nw := range nets {
		if (nw.id != "s32" && nw.id != "s33") || !nw.norm {
			continue
		}
		n := first.nets[i]
		if n.normBuild > 0 && n.normOrder > 0 && n.full > 0 {
			rn.set("table1.prop_over_norm_build."+nw.id, n.build/n.normBuild)
			rn.set("table1.prop_over_norm_order."+nw.id, float64(n.order)/float64(n.normOrder))
			rn.set("table1.rom_over_full_ode."+nw.id, n.rom/n.full)
		}
	}
}

// traceLibrary makes the traced pass, the layer probes, and the span
// file. ref is the untraced pass whose ROMs the replay must reproduce.
func traceLibrary(ctx context.Context, cfg *config, rn *run, nets []*network, ref passRecord) error {
	tr := newTracer()
	fullOde, romOde, replayed := tracedPass(ctx, rn, tr, nets, ref.nets)
	self := tr.selfTimes()
	rn.set("assoc.setup_s", self["assoc.setup"])
	rn.set("assoc.h1_s", self["assoc.h1"])
	rn.set("assoc.h2_s", self["assoc.h2"])
	rn.set("assoc.h3_s", self["assoc.h3"])
	rn.set("qr.orthonormalize_s", self["qr.orthonormalize"])
	rn.set("qldae.project_s", self["qldae.project"])
	var cand, fact, hits, analyses, refactors, batches, cols int64
	tracedBuild := 0.0
	for _, s := range tr.spans {
		if s.Name == "core.reduce" {
			tracedBuild += (s.End - s.Start) / 1e6
		}
	}
	for _, r := range replayed {
		st := r.Stats
		cand += int64(st.Candidates)
		fact += st.Factorizations
		hits += st.SolveCacheHits
		analyses += st.SymbolicAnalyses
		refactors += st.NumericRefactors
		batches += st.BatchSolves
		cols += st.BatchColumns
	}
	rn.set("assoc.candidates", float64(cand))
	rn.set("solver.factorizations", float64(fact))
	rn.set("solver.cache_hits", float64(hits))
	rn.set("solver.symbolic_analyses", float64(analyses))
	rn.set("solver.numeric_refactors", float64(refactors))
	if analyses+refactors > 0 {
		rn.set("solver.refactor_reuse", float64(refactors)/float64(analyses+refactors))
	}
	rn.set("solver.batch_solves", float64(batches))
	if batches > 0 {
		rn.set("solver.batch_width", float64(cols)/float64(batches))
	}
	rn.set("ode.full_steps", float64(fullOde.steps))
	rn.set("ode.full_newton_iters", float64(fullOde.newton))
	rn.set("ode.full_ms_per_step", fullOde.msPerStep())
	rn.set("ode.full_alloc_mb", float64(fullOde.allocBytes)/1e6)
	rn.set("ode.rom_ms_per_step", romOde.msPerStep())
	rn.set("ode.rom_alloc_mb", float64(romOde.allocBytes)/1e6)
	// The replay's layer spans are the children of its core.reduce spans,
	// so what they account for is the traced build less core.reduce's self
	// time. The residual is the share of the untraced build_s they miss,
	// in either direction: work the replay does outside a layer span and
	// tracing overhead both count against it.
	if b := ref.total(func(n netRecord) float64 { return n.build }); b > 0 {
		layers := tracedBuild - self["core.reduce"]
		rn.set("trace.residual_frac", math.Abs(b-layers)/b)
		rn.set("trace.overhead_frac", tracedBuild/b-1)
	}

	if err := probeKron(ctx, rn, nets); err != nil {
		return err
	}
	if err := probeSolver(ctx, rn, nets); err != nil {
		return err
	}
	var texts [][]byte
	var systems []*avtmor.System
	for _, nw := range nets {
		if nw.netlist != nil {
			texts = append(texts, nw.netlist)
		}
		systems = append(systems, nw.sys)
	}
	if err := probeNetlist(rn, texts); err != nil {
		return err
	}
	probeFingerprint(rn, systems) // before RequestKey caches the fingerprints
	var keys []string
	var roms []*avtmor.ROM
	for i, nw := range nets {
		if r := ref.nets[i].proposed; r != nil {
			keys = append(keys, avtmor.RequestKey(nw.sys, nw.opts()...))
			roms = append(roms, r)
		}
	}
	if err := probeROMIO(rn, roms); err != nil {
		return err
	}
	if err := probeStore(cfg, rn, keys, roms); err != nil {
		return err
	}
	return tr.write(cfg.spanPath(), cfg.workload, cfg.seed)
}
