package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// metricDef names one reported metric and its unit. The tables below are
// the benchmark's contract with BENCHMARK.json: every name there is
// emitted on every workload (a layer a workload does not exercise
// reports 0), and the tests hold the two lists to each other.
type metricDef struct {
	name, unit string
}

// endToEnd are the user-visible metrics, measured with tracing off.
// README.md defines each one per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"build_s", "s"},
	{"rom_order", "states"},
	{"p50_ms", "ms"},
	{"p95_ms", "ms"},
	{"goodput_rps", "req/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the per-layer metrics of the traced run, grouped by the
// package whose public functions the benchmark times.
var perLayer = []metricDef{
	{"assoc.setup_s", "s"},
	{"assoc.h1_s", "s"},
	{"assoc.h2_s", "s"},
	{"assoc.h3_s", "s"},
	{"assoc.candidates", "count"},
	{"kron.sum2_setup_ms", "ms"},
	{"kron.sum2_solve_ms", "ms"},
	{"kron.sum3_setup_ms", "ms"},
	{"kron.sum3_solve_ms", "ms"},
	{"solver.factorizations", "count"},
	{"solver.cache_hits", "count"},
	{"solver.symbolic_analyses", "count"},
	{"solver.numeric_refactors", "count"},
	{"solver.refactor_reuse", "fraction"},
	{"solver.batch_solves", "count"},
	{"solver.batch_width", "cols"},
	{"solver.factor_fresh_ms", "ms"},
	{"solver.refactor_ms", "ms"},
	{"solver.solve_batch_us_per_col", "us"},
	{"qr.orthonormalize_s", "s"},
	{"qldae.project_s", "s"},
	{"ode.full_sim_s", "s"},
	{"ode.rom_sim_s", "s"},
	{"ode.full_steps", "count"},
	{"ode.full_newton_iters", "count"},
	{"ode.full_ms_per_step", "ms"},
	{"ode.full_alloc_mb", "MB"},
	{"ode.rom_ms_per_step", "ms"},
	{"ode.rom_alloc_mb", "MB"},
	{"norm.build_s", "s"},
	{"norm.rom_sim_s", "s"},
	{"norm.rom_order", "states"},
	{"table1.prop_over_norm_build.s32", "ratio"},
	{"table1.prop_over_norm_build.s33", "ratio"},
	{"table1.prop_over_norm_order.s32", "ratio"},
	{"table1.prop_over_norm_order.s33", "ratio"},
	{"table1.rom_over_full_ode.s32", "ratio"},
	{"table1.rom_over_full_ode.s33", "ratio"},
	{"netlist.parse_us_per_kb", "us/KB"},
	{"netlist.build_ms", "ms"},
	{"system.fingerprint_us", "us"},
	{"romio.encode_us", "us"},
	{"romio.decode_us", "us"},
	{"romio.bytes", "bytes"},
	{"store.write_ms", "ms"},
	{"store.load_ms", "ms"},
	{"store.open_raw_us", "us"},
	{"serve.queue_wait_ms_mean", "ms"},
	{"serve.queue_wait_p90_ms", "ms"},
	{"serve.reduce_ms_mean", "ms"},
	{"serve.simulate_ms_mean", "ms"},
	{"serve.http_ms_mean", "ms"},
	{"serve.rejected", "count"},
	{"serve.admission_rejected", "count"},
	{"reducer.reductions", "count"},
	{"reducer.cache_hits", "count"},
	{"reducer.store_hits", "count"},
	{"reducer.evictions", "count"},
	{"reducer.hit_ratio", "fraction"},
	{"client.cold.p50_ms", "ms"},
	{"client.hot.p50_ms", "ms"},
	{"client.get.p50_ms", "ms"},
	{"client.get304.p50_ms", "ms"},
	{"client.sim.p50_ms", "ms"},
	{"client.batch.p50_ms", "ms"},
	{"tail.p99_ms", "ms"},
	{"tail.high_p50_ms", "ms"},
	{"tail.high_p95_ms", "ms"},
	{"tail.high_p99_ms", "ms"},
	{"gen.achieved_rps", "req/s"},
	{"gen.max_late_ms", "ms"},
	{"trace.residual_frac", "fraction"},
	{"trace.overhead_frac", "fraction"},
}

// unitOf returns the unit of a known metric.
func unitOf(name string) (string, bool) {
	for _, tbl := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range tbl {
			if d.name == name {
				return d.unit, true
			}
		}
	}
	return "", false
}

// metric is one reported value, in the shape the result line carries.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints: exactly these four keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run accumulates one workload's outcome: operations attempted and
// failed (a failed check counts as a failed operation) and every metric
// it measured, end-to-end and per-layer alike.
type run struct {
	attempted, failed int
	values            map[string]float64
	failures          []string
}

func newRun() *run { return &run{values: map[string]float64{}} }

// set records a metric; unknown names are a programming error.
func (r *run) set(name string, v float64) {
	if _, ok := unitOf(name); !ok {
		panic("avtmorbench: unknown metric " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.values[name] = v
}

// check counts one attempted operation and records a failure when ok is
// false.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, fmt.Sprintf(format, args...))
		}
	}
}

// result renders the metrics of one table: end-to-end for untraced runs,
// per-layer for traced ones. Metrics a workload did not touch report 0.
func (r *run) result(traced bool) result {
	tbl := endToEnd
	if traced {
		tbl = perLayer
	}
	out := result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: max(r.attempted, 1),
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	if r.attempted == 0 {
		out.Failed = 1
	}
	for _, d := range tbl {
		out.Metrics[d.name] = metric{Value: r.values[d.name], Unit: d.unit}
	}
	return out
}

// benchmarkFile is the part of BENCHMARK.json the benchmark itself reads:
// metric names, units, directions, and bounds.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"` // no bounds
}

// benchMetric is one metric entry of BENCHMARK.json.
type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// median returns the middle of xs (mean of the two middles for an even
// count), 0 for none.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics, 0 for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), so the
// spread this benchmark reports is the spread the acceptance rule uses.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		pos := float64(i*(n+1)) / 4
		k := min(max(int(math.Floor(pos)), 1), n-1)
		frac := pos - float64(k) // after the clamp, as Python does
		return s[k-1] + frac*(s[k]-s[k-1])
	}
	return at(1), at(3)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
