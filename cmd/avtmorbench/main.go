// Command avtmorbench is avtmor's end-to-end benchmark: the paper's §3
// testbenches, a large interconnect, and the serving daemon's write and
// read paths under open-loop load. See README.md for the workloads, the
// metrics and how to run it; bench.sh builds it and runs it from the
// repository root.
//
//	avtmorbench -workload NAME [-seed N] [-seconds S] [-trace 0|1] [-dir DIR] [-out FILE]
//	avtmorbench compare [-benchmark BENCHMARK.json] PARENT.json CHANGE.json [PARENT.json CHANGE.json ...]
//
// A run measures one workload in a fresh child process of itself, checks
// every output, and prints one JSON line as the last line of standard
// output: {"correct", "attempted", "failed", "metrics"}. With -trace 0
// the metrics are the end-to-end ones; with -trace 1 the run is traced
// and reports the per-layer metrics, and writes a span file.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// workloads in their canonical order.
var workloads = []string{"paper-s3", "interconnect", "serve-write", "serve-read"}

// childTimeout bounds one workload run: a hung run is killed and the
// benchmark fails instead of outliving its caller's time limit.
const childTimeout = 170 * time.Second

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(runMain(os.Args[1:]))
}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	dir      string // work area: stores, probe files, span files
	faults   faults
}

// faults are deliberate corruptions a test turns on to show that the
// output checks are live.
type faults struct {
	flipServedByte bool   // flip one byte of one served ROM before its check
	tightenBound   string // network id whose error bound drops to 1e-15
}

// runDir is this process's private directory under the work area.
func (c *config) runDir() string {
	return filepath.Join(c.dir, fmt.Sprintf("%s-%d", c.workload, os.Getpid()))
}

// spanPath is where a traced run writes its spans.
func (c *config) spanPath() string {
	return filepath.Join(c.dir, fmt.Sprintf("spans-%s-seed%d.json", c.workload, c.seed))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("avtmorbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloads, ", "))
	seed := fs.Int64("seed", 1, "input seed (the workloads were tuned on 1; 2 is held out)")
	seconds := fs.Int("seconds", 20, "measuring time in seconds")
	trace := fs.Int("trace", 0, "1 makes a traced run that reports the per-layer metrics and writes a span file")
	dir := fs.String("dir", filepath.Join(".bench_build", "run"), "work directory for stores and span files")
	out := fs.String("out", "", "also write the result, with its seed and settings, to this file")
	child := fs.Bool("child", false, "run the workload in this process (set by the parent run)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) || !slices.Contains(workloads, *workload) {
		fmt.Fprintf(os.Stderr, "avtmorbench: want -workload (%s), -seconds ≥ 1, -trace 0|1\n", strings.Join(workloads, "|"))
		return 2
	}
	cfg := &config{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		traced: *trace == 1, dir: *dir}
	if *child {
		return childMain(cfg)
	}
	line, err := runChild(args)
	if err != nil {
		fmt.Fprintf(os.Stderr, "avtmorbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if *out != "" {
		if err := writeResultFile(*out, cfg, line); err != nil {
			fmt.Fprintf(os.Stderr, "avtmorbench: %v\n", err)
			return 1
		}
	}
	fmt.Printf("%s\n", line)
	return 0
}

// runChild re-executes this binary with -child, waits for it (killing it
// at childTimeout), and returns its result line.
func runChild(args []string) ([]byte, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, append(append([]string(nil), args...), "-child")...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("workload process: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	line := []byte(lines[len(lines)-1])
	var res result
	if err := json.Unmarshal(line, &res); err != nil || res.Metrics == nil {
		return nil, fmt.Errorf("workload process printed no result")
	}
	return line, nil
}

// childMain runs the workload in this process and prints its result.
func childMain(cfg *config) int {
	fmt.Fprintf(os.Stderr, "avtmorbench: workload=%s seed=%d seconds=%.0f trace=%v GOMAXPROCS=%d NumCPU=%d dir=%s\n",
		cfg.workload, cfg.seed, cfg.seconds.Seconds(), cfg.traced, runtime.GOMAXPROCS(0), runtime.NumCPU(), cfg.dir)
	rn, err := runWorkload(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "avtmorbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	for _, f := range rn.failures {
		fmt.Fprintf(os.Stderr, "avtmorbench: check failed: %s\n", f)
	}
	res := rn.result(cfg.traced)
	names := make([]string, 0, len(res.Metrics))
	for _, tbl := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range tbl {
			if m, ok := res.Metrics[d.name]; ok {
				names = append(names, fmt.Sprintf("  %-34s %14.6g %s", d.name, m.Value, m.Unit))
			}
		}
	}
	fmt.Fprintf(os.Stderr, "avtmorbench: %s: correct=%v attempted=%d failed=%d\n%s\n",
		cfg.workload, res.Correct, res.Attempted, res.Failed, strings.Join(names, "\n"))
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "avtmorbench: %v\n", err)
		return 1
	}
	fmt.Printf("%s\n", b)
	return 0
}

// runWorkload runs one workload in this process. Every metric of both
// tables is filled; the caller picks the table to print.
func runWorkload(ctx context.Context, cfg *config) (*run, error) {
	if err := os.MkdirAll(cfg.runDir(), 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.runDir())
	rn := newRun()
	var err error
	if lc, ok := libraryWorkloads[cfg.workload]; ok {
		err = runLibrary(ctx, cfg, lc, rn)
	} else if sc, ok := serveWorkloads[cfg.workload]; ok {
		err = runServe(ctx, cfg, sc, rn)
	} else {
		err = errors.New("unknown workload")
	}
	if err != nil {
		return nil, err
	}
	rn.set("peak_rss_mb", peakRSSMB())
	return rn, nil
}

// A workload's set-up is repeated at least a workload-given number of
// times, and then until setupBudget is spent (at most maxSetupReps
// times), so that a set-up of a fraction of a millisecond is sampled
// often enough for its median to hold still.
const (
	setupBudget  = 500 * time.Millisecond
	maxSetupReps = 201
)

// timeSetup runs once, which times its own set-up, as often as the
// schedule above asks and returns the median time in seconds.
func timeSetup(minReps int, once func() (time.Duration, error)) (float64, error) {
	var times []float64
	start := time.Now()
	for len(times) < minReps || (len(times) < maxSetupReps && time.Since(start) < setupBudget) {
		d, err := once()
		if err != nil {
			return 0, err
		}
		times = append(times, d.Seconds())
	}
	return median(times), nil
}

// peakRSSMB is this process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// resultFile is what -out writes: the result line with the settings that
// produced it, so that compare can pair and check runs.
type resultFile struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Result     result `json:"result"`
}

func writeResultFile(path string, cfg *config, line []byte) error {
	rf := resultFile{Workload: cfg.workload, Seed: cfg.seed, Seconds: int(cfg.seconds.Seconds()), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	if cfg.traced {
		rf.Trace = 1
	}
	if err := json.Unmarshal(line, &rf.Result); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// readResultFile loads a file written by -out.
func readResultFile(path string) (*resultFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rf resultFile
	if err := json.NewDecoder(io.LimitReader(f, 1<<20)).Decode(&rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}
