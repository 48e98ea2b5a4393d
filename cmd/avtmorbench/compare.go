package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// compareMain implements `avtmorbench compare`: result files of
// alternating parent and change runs (parent, change, parent, change, …;
// run them alternating which side goes first), paired in order. For every
// workload and metric it prints each side's median and quartiles, the
// fraction of pairs the change wins (ties count for neither), the bound
// BENCHMARK.json fixes, and a verdict:
//
//	regression  the change's median is worse than the parent's by more than the bound
//	unresolved  the run-to-run spread exceeds the bound, and the change
//	            does not beat the parent on every run
//	gain        the change wins at least 9 in 10 pairs and the medians
//	            differ by more than the parent's quartile spread
//	ok          none of the above
//
// Per-layer metrics have no bound and get only the gain test. It exits 1
// when any end-to-end metric regressed or any run failed its checks.
func compareMain(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("avtmorbench compare", flag.ContinueOnError)
	bench := fs.String("benchmark", "BENCHMARK.json", "the benchmark definition holding directions and bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	files := fs.Args()
	if len(files) == 0 || len(files)%2 != 0 {
		fmt.Fprintln(os.Stderr, "avtmorbench compare: want an even number of result files: PARENT CHANGE [PARENT CHANGE ...]")
		return 2
	}
	bf, err := readBenchmarkFile(*bench)
	if err != nil {
		fmt.Fprintf(os.Stderr, "avtmorbench compare: %v\n", err)
		return 2
	}
	type dirBound struct {
		better string
		bound  float64
		e2e    bool
	}
	defs := map[string]dirBound{}
	for _, m := range bf.EndToEnd {
		defs[m.Name] = dirBound{m.Better, m.Bound, true}
	}
	for _, m := range bf.PerLayer {
		defs[m.Name] = dirBound{better: m.Better}
	}

	type side struct{ parent, change []float64 }
	type key struct{ workload, metric string }
	series := map[key]*side{}
	failed := false
	for i := 0; i < len(files); i += 2 {
		p, err := readResultFile(files[i])
		if err != nil {
			fmt.Fprintf(os.Stderr, "avtmorbench compare: %v\n", err)
			return 2
		}
		c, err := readResultFile(files[i+1])
		if err != nil {
			fmt.Fprintf(os.Stderr, "avtmorbench compare: %v\n", err)
			return 2
		}
		if p.Workload != c.Workload || p.Trace != c.Trace || p.Seconds != c.Seconds {
			fmt.Fprintf(os.Stderr, "avtmorbench compare: %s and %s are not a pair (workload, trace or seconds differ)\n", files[i], files[i+1])
			return 2
		}
		for _, rf := range []*resultFile{p, c} {
			if !rf.Result.Correct {
				fmt.Fprintf(w, "FAILED RUN: %s seed %d: %d of %d operations failed\n", rf.Workload, rf.Seed, rf.Result.Failed, rf.Result.Attempted)
				failed = true
			}
		}
		for name, pm := range p.Result.Metrics {
			cm, ok := c.Result.Metrics[name]
			if !ok {
				continue
			}
			k := key{p.Workload, name}
			if series[k] == nil {
				series[k] = &side{}
			}
			series[k].parent = append(series[k].parent, pm.Value)
			series[k].change = append(series[k].change, cm.Value)
		}
	}
	keys := make([]key, 0, len(series))
	for k := range series {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1, q3]\tchange median [q1, q3]\tchange\twins\tbound\tverdict")
	regressed := false
	for _, k := range keys {
		s := series[k]
		d, known := defs[k.metric]
		if !known {
			continue
		}
		unit, _ := unitOf(k.metric)
		v := judge(s.parent, s.change, d.better, d.bound, d.e2e)
		if v.verdict == "regression" {
			regressed = true
		}
		bound := "-"
		if d.e2e {
			bound = fmt.Sprintf("%.0f%%", 100*d.bound)
		}
		fmt.Fprintf(tw, "%s\t%s (%s)\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%+.1f%%\t%.2f\t%s\t%s\n",
			k.workload, k.metric, unit, v.pMed, v.pQ1, v.pQ3, v.cMed, v.cQ1, v.cQ3, v.relChange, v.wins, bound, v.verdict)
	}
	tw.Flush()
	if regressed || failed {
		return 1
	}
	return 0
}

// judgement is compare's reading of one metric's paired runs.
type judgement struct {
	pMed, pQ1, pQ3, cMed, cQ1, cQ3 float64
	relChange                      float64 // change median vs parent median, in %
	wins                           float64 // fraction of pairs the change won
	verdict                        string
}

// judge applies the pairing rule of the choosing-metrics guide (§8) to
// paired runs: parent[i] and change[i] ran back to back.
func judge(parent, change []float64, better string, bound float64, gated bool) judgement {
	j := judgement{pMed: median(parent), cMed: median(change)}
	j.pQ1, j.pQ3 = quartiles(parent)
	j.cQ1, j.cQ3 = quartiles(change)
	// worse > 0 when the change moved in the bad direction.
	worse := func(c, p float64) float64 {
		if better == "higher" {
			return p - c
		}
		return c - p
	}
	won := 0
	for i := range parent {
		if worse(change[i], parent[i]) < 0 {
			won++
		}
	}
	j.wins = float64(won) / float64(len(parent))
	if j.pMed != 0 {
		j.relChange = 100 * (j.cMed - j.pMed) / math.Abs(j.pMed)
	}
	spread := 0.0
	for _, q := range [][3]float64{{j.pQ1, j.pQ3, j.pMed}, {j.cQ1, j.cQ3, j.cMed}} {
		if q[2] != 0 {
			spread = max(spread, (q[1]-q[0])/math.Abs(q[2]))
		}
	}
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			if worse(c, p) >= 0 {
				allBetter = false
			}
		}
	}
	gain := j.wins >= 0.9 && worse(j.cMed, j.pMed) < 0 && math.Abs(j.cMed-j.pMed) > j.pQ3-j.pQ1
	switch {
	case gated && worse(j.cMed, j.pMed) > bound*math.Abs(j.pMed):
		j.verdict = "regression"
	case gated && spread > bound && !allBetter:
		j.verdict = "unresolved"
	case gain:
		j.verdict = "gain"
	case gated:
		j.verdict = "ok"
	default:
		j.verdict = "-"
	}
	return j
}
