// Package exper regenerates every table and figure of the paper's
// evaluation (§3): transient comparisons Figs. 2–5, the runtime comparison
// Table 1, and the §4 subspace-growth ablation. cmd/avtmor prints the
// reports and writes the figure series as CSV; bench_test.go wraps the
// same entry points in testing.B benchmarks; EXPERIMENTS.md records the
// measured outcomes against the paper's.
//
// The harness consumes the public avtmor facade — workload
// constructors, functional-options Reduce, Model simulation — so it
// doubles as an end-to-end exercise of the API surface the library
// ships; only diagnostics reach into internal packages.
package exper

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"time"

	"avtmor"
)

// Report is the result of one experiment.
type Report struct {
	ID    string
	Title string
	// Lines is the human-readable summary (one finding per line).
	Lines []string
	// CSV holds the figure series (first row is the header); nil for
	// table-only experiments.
	CSV [][]string
	// Metrics exposes scalar outcomes for tests and benches.
	Metrics map[string]float64
}

func (r *Report) addLine(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

func (r *Report) metric(k string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]float64{}
	}
	r.Metrics[k] = v
}

// simulate runs the workload-appropriate integrator on m and times it.
func simulate(w *avtmor.Workload, m avtmor.Model) (*avtmor.Result, time.Duration, error) {
	start := time.Now()
	res, err := w.Simulate(context.Background(), m)
	return res, time.Since(start), err
}

// timingRounds is how many times simulateAll runs each transient.
const timingRounds = 3

// simulateAll runs the transient of every model timingRounds times, in
// alternation (all models once, then all again), and reports each
// model's result and fastest time. Every run of a model computes the
// same bits. Alternating puts the full model and its ROMs through the
// same stretches of host load, so their ratio, which is what Table 1
// compares, does not depend on which of them a slow stretch hit.
// Garbage is collected before each round, as testing.B does before a
// benchmark, so that no transient pays for the reductions' garbage.
func simulateAll(w *avtmor.Workload, models ...avtmor.Model) ([]*avtmor.Result, []time.Duration, error) {
	res := make([]*avtmor.Result, len(models))
	best := make([]time.Duration, len(models))
	for round := 0; round < timingRounds; round++ {
		runtime.GC()
		for i, m := range models {
			r, d, err := simulate(w, m)
			if err != nil {
				return nil, nil, err
			}
			if round == 0 || d < best[i] {
				best[i] = d
			}
			res[i] = r
		}
	}
	return res, best, nil
}

// solverMetrics records the observability counters of a reduction
// under a metric prefix and returns the human-readable fragment.
func (r *Report) solverMetrics(prefix string, st avtmor.Stats) string {
	r.metric(prefix+"_factorizations", float64(st.Factorizations))
	r.metric(prefix+"_cache_hits", float64(st.SolveCacheHits))
	r.metric(prefix+"_batch_solves", float64(st.BatchSolves))
	r.metric(prefix+"_batch_columns", float64(st.BatchColumns))
	r.metric(prefix+"_symbolic_analyses", float64(st.SymbolicAnalyses))
	r.metric(prefix+"_numeric_refactors", float64(st.NumericRefactors))
	r.metric(prefix+"_allocs", float64(st.Allocs))
	width := 0.0
	if st.BatchSolves > 0 {
		width = float64(st.BatchColumns) / float64(st.BatchSolves)
	}
	return fmt.Sprintf("solver %s, %d factorizations, %d cache hits, %d batch solves (avg width %.1f), ~%d allocs",
		st.Backend, st.Factorizations, st.SolveCacheHits, st.BatchSolves, width, st.Allocs)
}

// transientCompare reduces the workload with the given methods, simulates
// everything, and fills the common parts of a report. The returned
// results map holds "full", "prop", and optionally "norm" trajectories.
func transientCompare(rep *Report, w *avtmor.Workload, opts []avtmor.Option, withNORM bool) (map[string]*avtmor.Result, error) {
	ctx := context.Background()
	prop, err := avtmor.Reduce(ctx, w.System, opts...)
	if err != nil {
		return nil, fmt.Errorf("%s: Reduce: %w", rep.ID, err)
	}
	models := []avtmor.Model{w.System, prop}
	var nm *avtmor.ROM
	if withNORM {
		if nm, err = avtmor.ReduceNORM(ctx, w.System, opts...); err != nil {
			return nil, fmt.Errorf("%s: ReduceNORM: %w", rep.ID, err)
		}
		models = append(models, nm)
	}
	results, times, err := simulateAll(w, models...)
	if err != nil {
		return nil, fmt.Errorf("%s: simulation: %w", rep.ID, err)
	}
	full, propRes := results[0], results[1]
	tFull, tProp := times[0], times[1]
	rep.metric("full_order", float64(w.System.States()))
	rep.metric("full_ode_ms", float64(tFull.Milliseconds()))

	propStats := prop.Stats()
	rep.metric("prop_order", float64(prop.Order()))
	rep.metric("prop_arnoldi_ms", float64(propStats.Build.Milliseconds()))
	rep.metric("prop_ode_ms", float64(tProp.Milliseconds()))
	rep.metric("prop_maxrelerr", avtmor.MaxRelErr(full, propRes, 0))

	out := map[string]*avtmor.Result{"full": full, "prop": propRes}
	var normSolverLine string
	if withNORM {
		nmRes := results[2]
		rep.metric("norm_order", float64(nm.Order()))
		rep.metric("norm_arnoldi_ms", float64(nm.Stats().Build.Milliseconds()))
		rep.metric("norm_ode_ms", float64(times[2].Milliseconds()))
		rep.metric("norm_maxrelerr", avtmor.MaxRelErr(full, nmRes, 0))
		normSolverLine = rep.solverMetrics("norm", nm.Stats())
		out["norm"] = nmRes
	}

	rep.addLine("full model: n = %d, ODE solve %v", w.System.States(), tFull.Round(time.Millisecond))
	rep.addLine("proposed ROM: q = %d (from %d candidates), build %v, ODE solve %v, max rel err %.3g",
		prop.Order(), propStats.Candidates, propStats.Build.Round(time.Millisecond),
		tProp.Round(time.Millisecond), rep.Metrics["prop_maxrelerr"])
	rep.addLine("proposed ROM %s", rep.solverMetrics("prop", propStats))
	if withNORM {
		rep.addLine("NORM ROM: q = %.0f, build %.0f ms, ODE solve %.0f ms, max rel err %.3g",
			rep.Metrics["norm_order"], rep.Metrics["norm_arnoldi_ms"],
			rep.Metrics["norm_ode_ms"], rep.Metrics["norm_maxrelerr"])
		rep.addLine("NORM ROM %s", normSolverLine)
	}
	return out, nil
}

// buildCSV samples the trajectories onto the full model's grid (thinned to
// at most maxRows rows).
func buildCSV(results map[string]*avtmor.Result, order []string, maxRows int) [][]string {
	full := results["full"]
	stride := 1
	if len(full.T) > maxRows {
		stride = len(full.T) / maxRows
	}
	header := []string{"t", "y_full"}
	for _, name := range order {
		if name == "full" {
			continue
		}
		if _, ok := results[name]; ok {
			header = append(header, "y_"+name, "relerr_"+name)
		}
	}
	csv := [][]string{header}
	peak := 0.0
	for _, y := range full.Y {
		if a := y[0]; a > peak {
			peak = a
		} else if -a > peak {
			peak = -a
		}
	}
	if peak == 0 {
		peak = 1
	}
	for k := 0; k < len(full.T); k += stride {
		t := full.T[k]
		row := []string{fmtF(t), fmtF(full.Y[k][0])}
		for _, name := range order {
			if name == "full" {
				continue
			}
			res, ok := results[name]
			if !ok {
				continue
			}
			y := res.OutputAt(t, 0)
			e := full.Y[k][0] - y
			if e < 0 {
				e = -e
			}
			row = append(row, fmtF(y), fmtF(e/peak))
		}
		csv = append(csv, row)
	}
	return csv
}

func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }
