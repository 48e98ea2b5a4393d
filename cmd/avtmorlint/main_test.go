package main

import (
	"fmt"
	"strings"
	"testing"

	"avtmor/internal/lint"
)

const seededPattern = "../../internal/lint/testdata/seeded/..."

var allNames = []string{"ctxflow", "detrom", "cappedread", "lockedfield"}

// TestSeededViolations is the local twin of the CI smoke step: the
// seeded testdata tree carries exactly one violation of every analyzer
// class, so the wall must exit 1 and report all four tags.
func TestSeededViolations(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{"-novet", seededPattern}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d on seeded violations, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	for _, name := range allNames {
		if !strings.Contains(stdout.String(), "["+name+"] ") {
			t.Errorf("no [%s] finding on the seeded tree:\n%s", name, stdout.String())
		}
	}
}

// TestSeededViolationsDisable proves each analyzer is load-bearing:
// disabling it (and only it) makes its seeded finding disappear while
// the other three still fire.
func TestSeededViolationsDisable(t *testing.T) {
	for _, name := range allNames {
		t.Run(name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			code := run([]string{"-novet", "-disable", name, seededPattern}, &stdout, &stderr)
			if code != 1 {
				t.Fatalf("exit %d, want 1 (the other analyzers still have findings)\nstderr:\n%s", code, stderr.String())
			}
			if strings.Contains(stdout.String(), "["+name+"] ") {
				t.Errorf("-disable %s did not silence it:\n%s", name, stdout.String())
			}
			for _, other := range allNames {
				if other != name && !strings.Contains(stdout.String(), "["+other+"] ") {
					t.Errorf("-disable %s also silenced [%s]:\n%s", name, other, stdout.String())
				}
			}
		})
	}
}

func TestUnknownDisableRejected(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-disable", "nosuch", seededPattern}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d for unknown -disable name, want 2", code)
	}
	if !strings.Contains(stderr.String(), "nosuch") {
		t.Errorf("error does not name the unknown analyzer:\n%s", stderr.String())
	}
}

// TestAnalyzerScopes pins where the package-scoped analyzers run: the
// determinism contract covers the module root and the numerics spine,
// the capped-read contract covers the root codecs and the wire tier,
// and the other two run everywhere.
func TestAnalyzerScopes(t *testing.T) {
	const mod = "avtmor"
	cases := []struct {
		importPath string
		want       []string
	}{
		{mod, allNames},
		{mod + "/internal/core", []string{"ctxflow", "detrom", "lockedfield"}},
		{mod + "/internal/assoc", []string{"ctxflow", "detrom", "lockedfield"}},
		{mod + "/internal/qldae", []string{"ctxflow", "detrom", "lockedfield"}},
		{mod + "/internal/wire", []string{"ctxflow", "cappedread", "lockedfield"}},
		{mod + "/internal/promtext", []string{"ctxflow", "cappedread", "lockedfield"}},
		{mod + "/internal/ode", []string{"ctxflow", "lockedfield"}},
		{mod + "/serve", []string{"ctxflow", "lockedfield"}},
	}
	for _, c := range cases {
		got := analyzersFor(mod, c.importPath, nil)
		var names []string
		for _, a := range got {
			names = append(names, a.Name)
		}
		if fmt.Sprint(names) != fmt.Sprint(c.want) {
			t.Errorf("analyzersFor(%s) = %v, want %v", c.importPath, names, c.want)
		}
	}
	if got := analyzersFor(mod, mod, map[string]bool{"detrom": true}); len(got) != len(lint.All())-1 {
		t.Errorf("disable map not honored at the module root: got %d analyzers", len(got))
	}
}

// TestTreeClean asserts the wall's steady state: the real tree has no
// findings, so CI can block on exit status. Skipped in -short mode —
// it typechecks the whole module.
func TestTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks the whole module")
	}
	var stdout, stderr strings.Builder
	if code := run([]string{"-novet", "../../..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("avtmorlint is not clean on the tree (exit %d):\n%s%s", code, stdout.String(), stderr.String())
	}
}
