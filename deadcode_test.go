package avtmor_test

import (
	"go/ast"
	"go/types"
	"slices"
	"sort"
	"strings"
	"testing"

	"avtmor/internal/lint"
)

// testOnlyAllowed names the scanned functions that no production path
// calls but that tests use as oracles, constructors or hooks. Each
// value names a test that uses the function. What an allowed function
// calls is allowed too.
var testOnlyAllowed = map[string]string{
	"kron.SumDense":               "kron.TestSym3SolveSchurCAgainstDense",
	"lu.(*Record).NNZ":            "ode.TestReplaySkipsWork",
	"lu.Solve":                    "assoc.TestH2OpAgainstDense",
	"lu.SolveC":                   "kron.TestSym3SolveSchurCAgainstDense",
	"mat.(*CDense).MaxAbs":        "sylv.TestTrSylvTCComplex",
	"mat.(*CDense).Mul":           "sylv.TestTrSylvTCComplex",
	"mat.(*Dense).Equalish":       "kron.TestVecUnvecRoundTrip",
	"mat.(*Dense).MulVecT":        "qr.TestKrylov",
	"mat.(*Dense).Plus":           "balance.TestGramiansResiduals",
	"mat.(*Dense).Sub":            "schur.TestDecomposeSmallKnown",
	"mat.CDot":                    "core.TestProbeMultivariateConvergence",
	"mat.Diag":                    "balance.TestHSVDiagonalKnown",
	"mat.Expm":                    "kron.TestExpKronSumIdentity",
	"mat.FromRows":                "lu.TestSolveKnown",
	"mat.RandDense":               "solver.TestAutoRouting",
	"mat.RandStable":              "lu.TestSolveRandomResidual",
	"mat.RandVec":                 "solver.TestSolveBatchBitExact",
	"mat.SubVec":                  "assoc.TestH2OpAgainstDense",
	"qr.OrthoError":               "core.TestReduceBasicShape",
	"quota.(*Limiter).SetClock":   "quota.TestBurstThenRefill",
	"schur.(*Eig).InverseVectors": "kron.TestSpectralMatchesSumSolver",
	"schur.Eigen":                 "kron.TestSpectralMatchesSumSolver",
	"sparse.(*CSR).AddMulVec":     "assoc.TestH2CandidatesMatchOriginalCoordinates",
	"sparse.(*CSR).CubeApplyC":    "assoc.TestEvalAssocH3CubicAgainstOracle, through volterra.Oracle",
	"sparse.(*CSR).QuadApplyC":    "core.TestNORMMatchesMultivariateExactly, through volterra.H2",
}

// stdInterfaceMethods are the method names through which the standard
// library calls into this module's types (fmt, errors, flag, sort,
// container/heap, io, net/http, encoding/json, context, go/types).
var stdInterfaceMethods = map[string]bool{
	"Error": true, "String": true, "GoString": true, "Format": true,
	"Unwrap": true, "Is": true, "As": true, "Set": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true, "Seek": true,
	"ReadAt": true, "WriteTo": true, "ReadFrom": true, "WriteString": true,
	"ServeHTTP": true, "RoundTrip": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"MarshalText": true, "UnmarshalText": true,
	"Deadline": true, "Done": true, "Err": true, "Value": true,
	"Import": true, "ImportFrom": true,
}

// TestNoTestOnlyCode fails on every function that no production path
// reaches, in every package below avtmor/internal/ except
// internal/volterra (a package of test oracles by design), and among the
// unexported functions of avtmor, serve and avtmorclient. Liveness starts at main and init of every
// package, at the exported API of avtmor, serve and avtmorclient, at
// package-level initializers and at methods the standard library calls
// by name. It spreads to every function a live body references; a call
// through an interface method makes that method live on every loaded
// type that implements the interface. Test files are not loaded, so a
// function only tests call stays dead.
func TestNoTestOnlyCode(t *testing.T) {
	root, modPath, err := lint.FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := lint.NewLoader(root, modPath, "").LoadPatterns(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	g := newCallGraph(pkgs)
	api := []string{modPath, modPath + "/serve", modPath + "/avtmorclient"}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && (d.Name.Name == "main" || d.Name.Name == "init") ||
						d.Name.IsExported() && slices.Contains(api, p.ImportPath) ||
						d.Recv != nil && stdInterfaceMethods[d.Name.Name] {
						g.mark(p.Info.Defs[d.Name].(*types.Func))
					}
				case *ast.GenDecl:
					g.walk(p.Info, d)
				}
			}
		}
	}
	g.propagate()

	scanned := map[string]*types.Func{}
	for fn := range g.decls {
		if name, ok := funcName(modPath, fn); ok {
			scanned[name] = fn
		}
	}
	for name := range testOnlyAllowed {
		switch fn, ok := scanned[name]; {
		case !ok:
			t.Errorf("testOnlyAllowed names %s, which does not exist", name)
		case g.live[fn]:
			t.Errorf("testOnlyAllowed names %s, which production code calls", name)
		default:
			g.mark(fn)
		}
	}
	g.propagate()

	var dead []string
	for name, fn := range scanned {
		if !g.live[fn] {
			dead = append(dead, name+" ("+g.decls[fn]+")")
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("no production path calls %s", d)
	}
}

// callGraph is the reference graph over the functions and methods of
// the loaded packages, with the set of live ones grown by mark and
// propagate.
type callGraph struct {
	decls  map[*types.Func]string // declared functions and their positions
	bodies map[*types.Func]funcBody
	types  []*types.Named // package-level named non-interface types
	live   map[*types.Func]bool
	work   []*types.Func // live, not yet walked
}

type funcBody struct {
	info *types.Info
	body *ast.BlockStmt
}

func newCallGraph(pkgs []*lint.Package) *callGraph {
	g := &callGraph{
		decls:  map[*types.Func]string{},
		bodies: map[*types.Func]funcBody{},
		live:   map[*types.Func]bool{},
	}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				if d, ok := d.(*ast.FuncDecl); ok && d.Name.Name != "_" {
					fn := p.Info.Defs[d.Name].(*types.Func)
					g.decls[fn] = p.Fset.Position(d.Pos()).String()
					if d.Body != nil {
						g.bodies[fn] = funcBody{p.Info, d.Body}
					}
				}
			}
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if n, ok := tn.Type().(*types.Named); ok && !types.IsInterface(n) {
					g.types = append(g.types, n)
				}
			}
		}
	}
	return g
}

func (g *callGraph) mark(fn *types.Func) {
	fn = fn.Origin()
	if !g.live[fn] {
		g.live[fn] = true
		g.work = append(g.work, fn)
	}
}

// walk marks every function node references.
func (g *callGraph) walk(info *types.Info, node ast.Node) {
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if fn, ok := info.Uses[id].(*types.Func); ok {
				g.mark(fn)
			}
		}
		return true
	})
}

// propagate walks every live body until nothing new becomes live.
func (g *callGraph) propagate() {
	for len(g.work) > 0 {
		fn := g.work[len(g.work)-1]
		g.work = g.work[:len(g.work)-1]
		if b, ok := g.bodies[fn]; ok {
			g.walk(b.info, b.body)
		} else {
			g.markImplementations(fn)
		}
	}
}

// markImplementations marks, when fn is an interface method, the method
// of that name on every loaded type that implements the interface (on
// every generic type that has such a method, unchecked).
func (g *callGraph) markImplementations(fn *types.Func) {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return
	}
	iface, ok := recv.Type().Underlying().(*types.Interface)
	if !ok {
		return
	}
	for _, n := range g.types {
		if n.TypeParams().Len() == 0 && !types.Implements(n, iface) && !types.Implements(types.NewPointer(n), iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(n, true, fn.Pkg(), fn.Name())
		if m, ok := obj.(*types.Func); ok {
			g.mark(m)
		}
	}
}

// funcName renders fn as pkg.Func, pkg.T.Method or pkg.(*T).Method and
// reports whether TestNoTestOnlyCode scans fn. The exported API of the
// root package, serve and avtmorclient is live by definition, so
// scanning those packages whole checks their unexported functions.
func funcName(modPath string, fn *types.Func) (string, bool) {
	var pkg string
	switch path := fn.Pkg().Path(); {
	case path == modPath:
		pkg = "avtmor"
	case path == modPath+"/serve", path == modPath+"/avtmorclient":
		pkg = strings.TrimPrefix(path, modPath+"/")
	case strings.HasPrefix(path, modPath+"/internal/") && path != modPath+"/internal/volterra":
		pkg = strings.TrimPrefix(path, modPath+"/internal/")
	default:
		return "", false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return pkg + "." + fn.Name(), true
	}
	if p, ok := recv.Type().(*types.Pointer); ok {
		return pkg + ".(*" + p.Elem().(*types.Named).Obj().Name() + ")." + fn.Name(), true
	}
	return pkg + "." + recv.Type().(*types.Named).Obj().Name() + "." + fn.Name(), true
}
