package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestFixtures runs each analyzer over its fixture package under
// testdata/src and checks the findings against the fixtures'
// `// want "re"` expectations. Every fixture carries both positive
// cases and the sanctioned negative idioms (collect-then-sort map
// ranges, guarded wire reads, doc-declared caller-holds locking) that
// must stay unflagged.
func TestFixtures(t *testing.T) {
	cases := []struct {
		analyzer *Analyzer
		pkg      string
	}{
		{CtxFlow, "ctxflow/a"},
		{DetROM, "detrom/a"},
		{CappedRead, "cappedread/a"},
		{LockedField, "lockedfield/a"},
	}
	for _, c := range cases {
		t.Run(c.analyzer.Name, func(t *testing.T) {
			issues, err := runFixture(".", c.analyzer, c.pkg)
			if err != nil {
				t.Fatal(err)
			}
			for _, issue := range issues {
				t.Error(issue)
			}
		})
	}
}

// TestAllAnalyzers pins the wall's composition: a new analyzer must be
// registered here (and in the scope table of cmd/avtmorlint) to ship.
func TestAllAnalyzers(t *testing.T) {
	names := map[string]bool{}
	for _, a := range All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Fatalf("analyzer %+v is missing a name, doc, or run function", a)
		}
		if names[a.Name] {
			t.Fatalf("duplicate analyzer name %q", a.Name)
		}
		names[a.Name] = true
	}
	for _, want := range []string{"ctxflow", "detrom", "cappedread", "lockedfield"} {
		if !names[want] {
			t.Fatalf("analyzer %q missing from All()", want)
		}
	}
}

// runFixture loads testdata/src/<pkgpath> (relative to dir, normally
// the package directory of the calling test) and checks the analyzer's
// post-suppression findings against the fixture's `// want "regexp"`
// expectations, analysistest style: every finding must match a want on
// its line, and every want must be matched by a finding. Fixture files
// may import fake packages that live under testdata/src by their
// one-element path (a fake "foosync", say), plus anything in the standard
// library. The returned issues are test failures; an empty slice means
// the fixture passed.
func runFixture(dir string, a *Analyzer, pkgpath string) ([]string, error) {
	root, err := filepath.Abs(filepath.Join(dir, "testdata", "src"))
	if err != nil {
		return nil, err
	}
	l := NewLoader("", "", root)
	pkg, err := l.LoadDir(filepath.Join(root, filepath.FromSlash(pkgpath)), pkgpath)
	if err != nil {
		return nil, err
	}
	findings, err := RunAnalyzers(pkg, []*Analyzer{a})
	if err != nil {
		return nil, err
	}
	wants, err := wantComments(pkg.Fset, pkg.Files)
	if err != nil {
		return nil, err
	}

	var issues []string
	for _, f := range findings {
		key := lineKey{f.Pos.Filename, f.Pos.Line}
		matched := false
		for _, w := range wants[key] {
			if w.re.MatchString(f.Message) {
				w.hit()
				matched = true
			}
		}
		if !matched {
			issues = append(issues, fmt.Sprintf("%s: unexpected finding: %s", f.Pos, f.Message))
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				issues = append(issues, fmt.Sprintf("%s:%d: no finding matched want %q", key.file, key.line, w.re))
			}
		}
	}
	return issues, nil
}

type lineKey struct {
	file string
	line int
}

type want struct {
	re      *regexp.Regexp
	matched bool
}

func (w *want) hit() { w.matched = true }

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)`)
var wantArgRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// wantComments parses `// want "re" ["re" ...]` expectations from
// fixture comments, keyed by file and line.
func wantComments(fset *token.FileSet, files []*ast.File) (map[lineKey][]*want, error) {
	out := map[lineKey][]*want{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				key := lineKey{pos.Filename, pos.Line}
				for _, arg := range wantArgRE.FindAllStringSubmatch(m[1], -1) {
					pat := strings.ReplaceAll(arg[1], `\"`, `"`)
					re, err := regexp.Compile(pat)
					if err != nil {
						return nil, fmt.Errorf("%s: bad want pattern %q: %w", pos, pat, err)
					}
					out[key] = append(out[key], &want{re: re})
				}
			}
		}
	}
	return out, nil
}
