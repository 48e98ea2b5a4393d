// Command avtmorlint is the project's invariant wall: it runs the four
// analyzers of internal/lint (ctxflow, detrom, cappedread, lockedfield)
// over the named packages, alongside the stock `go vet`
// passes, and exits nonzero on any finding. CI blocks on it; run it
// locally with
//
//	go run ./cmd/avtmorlint ./...
//
// Determinism-scoped analyzers only run where their contract applies:
// detrom on the packages that feed ROM bytes and cache keys (the module
// root, core, assoc, qldae), cappedread on the wire tier (the module
// root's romio/systemio and internal/wire). The other two run
// everywhere. Packages under testdata are invisible to ./... wildcards
// but can be named explicitly, which is how the CI smoke proves the
// wall fails on seeded violations:
//
//	go run ./cmd/avtmorlint -novet ./internal/lint/testdata/seeded/...
//
// Flags:
//
//	-disable name[,name...]   skip the named analyzers
//	-novet                    skip the stock go vet passes
//
// Exit status: 0 clean, 1 findings (or vet failure), 2 usage or load
// errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path"
	"strings"

	"avtmor/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("avtmorlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	disable := fs.String("disable", "", "comma-separated analyzer names to skip")
	novet := fs.Bool("novet", false, "skip the stock go vet passes")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: avtmorlint [-disable name,...] [-novet] [packages]\n\nAnalyzers:\n")
		for _, a := range lint.All() {
			fmt.Fprintf(stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	disabled := map[string]bool{}
	if *disable != "" {
		known := map[string]bool{}
		for _, a := range lint.All() {
			known[a.Name] = true
		}
		for _, name := range strings.Split(*disable, ",") {
			if !known[name] {
				fmt.Fprintf(stderr, "avtmorlint: unknown analyzer %q in -disable\n", name)
				return 2
			}
			disabled[name] = true
		}
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "avtmorlint: %v\n", err)
		return 2
	}
	moduleRoot, modulePath, err := lint.FindModule(wd)
	if err != nil {
		fmt.Fprintf(stderr, "avtmorlint: %v\n", err)
		return 2
	}

	failed := false
	if !*novet {
		vet := exec.Command("go", append([]string{"vet"}, patterns...)...)
		vet.Dir = wd
		vet.Stdout = stdout
		vet.Stderr = stderr
		if err := vet.Run(); err != nil {
			fmt.Fprintf(stderr, "avtmorlint: go vet failed\n")
			failed = true
		}
	}

	loader := lint.NewLoader(moduleRoot, modulePath, "")
	pkgs, err := loader.LoadPatterns(wd, patterns)
	if err != nil {
		fmt.Fprintf(stderr, "avtmorlint: %v\n", err)
		return 2
	}
	findings := 0
	for _, pkg := range pkgs {
		analyzers := analyzersFor(modulePath, pkg.ImportPath, disabled)
		if len(analyzers) == 0 {
			continue
		}
		fs, err := lint.RunAnalyzers(pkg, analyzers)
		if err != nil {
			fmt.Fprintf(stderr, "avtmorlint: %v\n", err)
			return 2
		}
		for _, f := range fs {
			fmt.Fprintln(stdout, f)
			findings++
		}
	}
	if findings > 0 {
		fmt.Fprintf(stderr, "avtmorlint: %d finding(s)\n", findings)
	}
	if findings > 0 || failed {
		return 1
	}
	return 0
}

// scopes restricts analyzers whose contract is package-specific. base
// is the last import-path element; root marks the module root package
// (romio, systemio, and the cache-key canonicalization live there).
var scopes = map[string]func(base string, root bool) bool{
	"detrom": func(base string, root bool) bool {
		// replica is in scope: anti-entropy convergence must depend
		// only on content addresses and membership epochs, never on
		// wall-clock or iteration order (the sweeper's pacing ticker
		// carries the one reasoned ignore).
		return root || base == "core" || base == "assoc" || base == "qldae" || base == "replica"
	},
	"cappedread": func(base string, root bool) bool {
		// replica decodes peer-supplied key lists and membership JSON,
		// promtext parses scraped expositions (avtmorctl feeds it fleet
		// responses) — wire-tier trust level, wire-tier read caps.
		return root || base == "wire" || base == "replica" || base == "promtext"
	},
}

// analyzersFor selects the analyzers that apply to importPath, honoring
// the -disable set.
func analyzersFor(modulePath, importPath string, disabled map[string]bool) []*lint.Analyzer {
	var out []*lint.Analyzer
	base := path.Base(importPath)
	root := importPath == modulePath
	for _, a := range lint.All() {
		if disabled[a.Name] {
			continue
		}
		if in, scoped := scopes[a.Name]; scoped && !in(base, root) {
			continue
		}
		out = append(out, a)
	}
	return out
}
