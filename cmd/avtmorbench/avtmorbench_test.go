package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"avtmor"
)

// heldOutSeed is the held-out seed: the workload parameters and error
// bounds were tuned on seed 1, and the smoke runs on seed 2, so every
// check must pass on inputs the benchmark was not tuned to.
const heldOutSeed = 2

func loadBenchmark(t *testing.T) *benchmarkFile {
	t.Helper()
	bf, err := readBenchmarkFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return bf
}

// smokeConfig is a one-pass, one-second, traced run.
func smokeConfig(t *testing.T, workload string) *config {
	return &config{workload: workload, seed: heldOutSeed, seconds: time.Second, traced: true, dir: t.TempDir()}
}

// TestWorkloadsSmoke runs every workload once on a short schedule and
// holds its output to BENCHMARK.json: every metric named there is
// emitted, with its unit, in the table it belongs to, and every check
// passes on the held-out seed.
func TestWorkloadsSmoke(t *testing.T) {
	bf := loadBenchmark(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloads))
	}
	nonzero := map[string]bool{}
	ran := 0
	for i, w := range bf.Workloads {
		if w.Name != workloads[i] {
			t.Fatalf("BENCHMARK.json workload %d is %q, want %q", i, w.Name, workloads[i])
		}
		t.Run(w.Name, func(t *testing.T) {
			cfg := smokeConfig(t, w.Name)
			rn, err := runWorkload(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rn.failed != 0 || rn.attempted == 0 {
				t.Fatalf("%d of %d operations failed: %v", rn.failed, rn.attempted, rn.failures)
			}
			e2e, layers := rn.result(false), rn.result(true)
			if !e2e.Correct || !layers.Correct {
				t.Fatal("result not marked correct")
			}
			checkTable(t, "end_to_end", e2e.Metrics, units(bf.EndToEnd))
			checkTable(t, "per_layer", layers.Metrics, units(bf.PerLayer))
			for name, m := range e2e.Metrics {
				// Goodput counts responses inside a latency limit, which a
				// slowed test binary (-race) may miss on a one-second window.
				if m.Value <= 0 && name != "goodput_rps" {
					t.Errorf("end-to-end metric %s is %v; end-to-end metrics are never 0", name, m.Value)
				}
			}
			for name, m := range layers.Metrics {
				if m.Value != 0 {
					nonzero[name] = true
				}
			}
			ran++
			b, err := os.ReadFile(cfg.spanPath())
			if err != nil {
				t.Fatalf("traced run wrote no span file: %v", err)
			}
			var sf struct {
				Seed  int64  `json:"seed"`
				Spans []span `json:"spans"`
			}
			if err := json.Unmarshal(b, &sf); err != nil || len(sf.Spans) == 0 || sf.Seed != heldOutSeed {
				t.Fatalf("span file: %v, %d spans, seed %d", err, len(sf.Spans), sf.Seed)
			}
			// trace.residual_frac compares the traced pass with an untraced
			// one, so on a busy test host it measures noise. What the span
			// file fixes is the part the replay controls: its work outside
			// every layer span, the self time of core.reduce.
			if _, library := libraryWorkloads[w.Name]; library {
				reduce := 0.0
				for _, s := range sf.Spans {
					if s.Name == "core.reduce" {
						reduce += (s.End - s.Start) / 1e6
					}
				}
				tr := &tracer{spans: sf.Spans}
				if un := tr.selfTimes()["core.reduce"]; reduce == 0 || un > 0.10*reduce {
					t.Errorf("replay spends %.3gs of %.3gs outside its layer spans", un, reduce)
				}
			}
		})
	}
	// Each per-layer metric must be live on some workload. These may
	// legitimately read 0 on every short run: nothing is shed, a short
	// serve-read may evict nothing, and no reduction of these workloads
	// is served numeric-only (a finding recorded in README.md).
	mayBeZero := map[string]bool{
		"serve.rejected": true, "serve.admission_rejected": true, "reducer.evictions": true,
		"solver.numeric_refactors": true, "solver.refactor_reuse": true,
	}
	if ran == len(workloads) && !t.Failed() {
		for _, d := range perLayer {
			if !nonzero[d.name] && !mayBeZero[d.name] {
				t.Errorf("per-layer metric %s is 0 on every workload", d.name)
			}
		}
	}
}

// units maps each metric of a BENCHMARK.json table to its unit.
func units(ms []benchMetric) map[string]string {
	out := map[string]string{}
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

// checkTable asserts that got carries exactly the metrics of want, each
// with its unit.
func checkTable(t *testing.T, table string, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			t.Errorf("%s metric %s not emitted", table, name)
		} else if m.Unit != unit {
			t.Errorf("%s metric %s has unit %q, BENCHMARK.json says %q", table, name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s metric %s is not in BENCHMARK.json", table, name)
		}
	}
}

// TestChecksAreLive corrupts one served ROM byte, and separately makes
// one error bound unattainable, and requires each run to report failed
// operations: the output checks are not vacuous.
func TestChecksAreLive(t *testing.T) {
	cases := []struct {
		name     string
		workload string
		faults   faults
		want     string // a substring of the recorded failure
	}{
		{"flipped-served-byte", "serve-read", faults{flipServedByte: true}, "wrong body"},
		{"tightened-ladder-bound", "serve-write", faults{tightenBound: "ladder"}, "exceeds bound"},
		{"tightened-interconnect-bound", "interconnect", faults{tightenBound: "ic-netlist"}, "exceeds bound"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.workload == "interconnect" && testing.Short() {
				t.Skip("a library pass takes seconds; the serve cases cover -short")
			}
			cfg := smokeConfig(t, c.workload)
			cfg.traced = false
			cfg.faults = c.faults
			rn, err := runWorkload(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			res := rn.result(false)
			if res.Failed == 0 || res.Correct {
				t.Fatalf("fault went unnoticed: %d of %d failed, correct=%v", res.Failed, res.Attempted, res.Correct)
			}
			if !strings.Contains(strings.Join(rn.failures, "\n"), c.want) {
				t.Fatalf("failures %q do not mention %q", rn.failures, c.want)
			}
		})
	}
}

// TestReplayMatchesReduce holds the traced replay to core: on the four
// §3 testbenches and both interconnect networks, replayReduce's ROM
// serializes to exactly the bytes of avtmor.Reduce's.
func TestReplayMatchesReduce(t *testing.T) {
	if testing.Short() {
		t.Skip("reduces every network twice; the traced smoke runs the same comparison")
	}
	ctx := context.Background()
	paper, err := paperNetworks(heldOutSeed)
	if err != nil {
		t.Fatal(err)
	}
	ic, err := interconnectNetworks(heldOutSeed)
	if err != nil {
		t.Fatal(err)
	}
	for _, nw := range append(paper, ic...) {
		t.Run(nw.id, func(t *testing.T) {
			ref, err := avtmor.Reduce(ctx, nw.sys, nw.opts()...)
			if err != nil {
				t.Fatal(err)
			}
			sys, err := internalSystem(nw.sys)
			if err != nil {
				t.Fatal(err)
			}
			rom, err := replayReduce(ctx, nil, 0, 0, sys, nw.coreOpts())
			if err != nil {
				t.Fatal(err)
			}
			eq, err := equalBytes(rom, ref)
			if err != nil || !eq {
				t.Fatalf("replayed ROM bytes differ from avtmor.Reduce (err %v)", err)
			}
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Values from Python: statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{5, 1, 4, 2}, 1.25, 4.75},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	parent := []float64{10, 10.2, 9.9, 10.1, 10, 9.8, 10.3, 10, 10.1, 9.9}
	faster := []float64{8, 8.1, 7.9, 8.2, 8, 7.8, 8.1, 8, 8.2, 7.9}
	for _, c := range []struct {
		name        string
		parent, chg []float64
		better      string
		bound       float64
		gated       bool
		verdict     string
	}{
		{"gain", parent, faster, "lower", 0.1, true, "gain"},
		{"regression", faster, parent, "lower", 0.1, true, "regression"},
		{"higher-is-better regression", parent, faster, "higher", 0.1, true, "regression"},
		{"within bound", parent, parent, "lower", 0.1, true, "ok"},
		{"noisy", []float64{5, 15, 10, 6, 14, 10, 7, 13, 10, 10}, []float64{14, 6, 10, 13, 7, 10, 15, 5, 10, 10}, "lower", 0.1, true, "unresolved"},
		{"per-layer", parent, parent, "lower", 0, false, "-"},
	} {
		if v := judge(c.parent, c.chg, c.better, c.bound, c.gated); v.verdict != c.verdict {
			t.Errorf("%s: verdict %q, want %q (%+v)", c.name, v.verdict, c.verdict, v)
		}
	}
}

// TestCompareFiles runs the compare subcommand on result files and
// checks that it pairs them, reads the bounds, and exits 1 on a
// regression.
func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	var files []string
	for i := 0; i < 4; i++ {
		cfg := &config{workload: "serve-write", seed: int64(i/2 + 1), seconds: 20 * time.Second}
		p50 := 4.0
		if i%2 == 1 {
			p50 = 6.0 // the change is 50% slower
		}
		res := result{Correct: true, Attempted: 10, Metrics: map[string]metric{"p50_ms": {Value: p50 + 0.01*float64(i), Unit: "ms"}}}
		line, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		f := filepath.Join(dir, strings.Repeat("r", i+1)+".json")
		if err := writeResultFile(f, cfg, line); err != nil {
			t.Fatal(err)
		}
		rf, err := readResultFile(f)
		if err != nil || rf.Seed != cfg.seed {
			t.Fatalf("result file round trip: %v, seed %v", err, rf)
		}
		files = append(files, f)
	}
	var out bytes.Buffer
	code := compareMain(append([]string{"-benchmark", filepath.Join("..", "..", "BENCHMARK.json")}, files...), &out)
	if code != 1 || !strings.Contains(out.String(), "regression") {
		t.Fatalf("compare exit %d, output:\n%s", code, out.String())
	}
}
