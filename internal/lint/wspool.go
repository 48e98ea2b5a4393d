package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// WsPool enforces workspace-pool hygiene around internal/mat's pooled
// buffers: a slice obtained from mat.GetVec (or a Workspace's Get
// method) and bound to a local variable must be released by the
// matching Put on every return path, and must not
// escape the function (returned, sent, stored in a field, global, or
// composite literal) — an escaped buffer aliases whatever the pool
// hands out next after the Put.
//
// The analysis is positional and intentionally under-approximating:
// a return path counts as covered when any matching Put (or a deferred
// one) appears between the Get and the return in source order, and only
// buffers bound via a simple assignment (`w := mat.GetVec(n)`) are
// tracked. Pool handoffs that move release into another function are
// real escapes to the analyzer and carry //avtmorlint:ignore directives
// explaining their ownership story.
var WsPool = &Analyzer{
	Name: "wspool",
	Doc:  "pooled mat workspace vectors must be Put on all return paths and must not escape",
	Run:  runWsPool,
}

// wsPairs maps Get entry points to their required Put, for both the
// package-level pool helpers and Workspace methods.
var wsPairs = map[string]string{
	"GetVec": "PutVec",
	"Get":    "Put",
}

func runWsPool(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				checkWsFunc(pass, fn)
			}
		}
	}
	return nil
}

// tracked is one pooled buffer bound to a local variable.
type tracked struct {
	obj      *types.Var
	getName  string
	putName  string
	getPos   token.Pos
	reported bool
}

func checkWsFunc(pass *Pass, fn *ast.FuncDecl) {
	var (
		vars    []*tracked
		byObj   = map[*types.Var]*tracked{}
		puts    []wsPut
		returns []token.Pos
	)
	deferDepth := 0
	var stack []ast.Node
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if n == nil {
			if _, ok := stack[len(stack)-1].(*ast.DeferStmt); ok {
				deferDepth--
			}
			stack = stack[:len(stack)-1]
			return true
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			// Closures are separate ownership domains: a Get inside one
			// is not tracked here, and a closure's returns are not the
			// enclosing function's return paths. Handoffs into closures
			// therefore read as unreleased — by design.
			return false
		case *ast.DeferStmt:
			deferDepth++
		case *ast.ReturnStmt:
			returns = append(returns, n.Pos())
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				get := wsGetName(pass, rhs)
				if get == "" || i >= len(n.Lhs) || len(n.Lhs) != len(n.Rhs) {
					continue
				}
				id, ok := n.Lhs[i].(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				if v, ok := pass.TypesInfo.ObjectOf(id).(*types.Var); ok {
					t := &tracked{obj: v, getName: get, putName: wsPairs[get], getPos: rhs.Pos()}
					vars = append(vars, t)
					byObj[v] = t
				}
			}
		case *ast.CallExpr:
			if name, arg := wsPutCall(pass, n); name != "" {
				if v, ok := pass.TypesInfo.ObjectOf(arg).(*types.Var); ok {
					puts = append(puts, wsPut{obj: v, name: name, pos: n.Pos(), deferred: deferDepth > 0})
				}
			}
		case *ast.Ident:
			v, isVar := pass.TypesInfo.ObjectOf(n).(*types.Var)
			if !isVar {
				break
			}
			if t, ok := byObj[v]; ok && n.Pos() > t.getPos {
				if reason := escapeReason(pass, n, stack); reason != "" && !t.reported {
					t.reported = true
					pass.Reportf(n.Pos(), "%s (from %s) %s; the pooled buffer aliases later Get results", t.obj.Name(), t.getName, reason)
				}
			}
		}
		stack = append(stack, n)
		return true
	})

	// Implicit return when control can fall off the end of the body.
	if n := len(fn.Body.List); n == 0 || !terminates(fn.Body.List[n-1]) {
		returns = append(returns, fn.Body.End())
	}

	for _, t := range vars {
		checkReleased(pass, t, puts, returns)
	}
}

type wsPut struct {
	obj      *types.Var
	name     string
	pos      token.Pos
	deferred bool
}

// checkReleased verifies every return after the Get is preceded by a
// matching Put (source order), or that a deferred Put covers them all.
func checkReleased(pass *Pass, t *tracked, puts []wsPut, returns []token.Pos) {
	var putPos []token.Pos
	for _, p := range puts {
		if p.obj != t.obj || p.name != t.putName || p.pos <= t.getPos {
			continue
		}
		if p.deferred {
			return
		}
		putPos = append(putPos, p.pos)
	}
	for _, ret := range returns {
		if ret <= t.getPos {
			continue
		}
		covered := false
		for _, p := range putPos {
			if p < ret {
				covered = true
				break
			}
		}
		if !covered {
			pass.Reportf(ret, "return without %s(%s): buffer from %s at %s leaks from the pool on this path",
				t.putName, t.obj.Name(), t.getName, pass.Fset.Position(t.getPos))
		}
	}
}

// wsGetName returns the Get entry point a call expression invokes, or "".
func wsGetName(pass *Pass, e ast.Expr) string {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return ""
	}
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return ""
	}
	switch fn.Name() {
	case "GetVec":
		if isPkgFunc(fn, "mat", fn.Name()) {
			return fn.Name()
		}
	case "Get":
		if isWorkspaceMethod(fn) {
			return "Get"
		}
	}
	return ""
}

// wsPutCall matches a Put call and returns its name and the released
// identifier.
func wsPutCall(pass *Pass, call *ast.CallExpr) (string, *ast.Ident) {
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil || len(call.Args) == 0 {
		return "", nil
	}
	arg, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return "", nil
	}
	switch fn.Name() {
	case "PutVec":
		if isPkgFunc(fn, "mat", fn.Name()) {
			return fn.Name(), arg
		}
	case "Put":
		if isWorkspaceMethod(fn) {
			return "Put", arg
		}
	}
	return "", nil
}

func isWorkspaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || fn.Pkg() == nil || !pathMatches(fn.Pkg().Path(), "mat") {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Workspace"
}

// escapeReason classifies a use of a tracked buffer given the node
// stack (outermost first). Size queries via len/cap never alias.
func escapeReason(pass *Pass, id *ast.Ident, stack []ast.Node) string {
	for i := len(stack) - 1; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.CallExpr:
			if fn, ok := pass.TypesInfo.ObjectOf(calleeIdent(n)).(*types.Builtin); ok {
				if name := fn.Name(); name == "len" || name == "cap" {
					return ""
				}
			}
		case *ast.IndexExpr:
			// z[k] on a []float64 copies an element value — no alias
			// leaves the pool. Only keep looking when the indexed result
			// itself is a reference (e.g. a row of a [][]float64).
			if within(id, n.X) {
				if t := pass.TypesInfo.Types[n].Type; t != nil {
					if _, basic := t.Underlying().(*types.Basic); basic {
						return ""
					}
				}
			}
		case *ast.ReturnStmt:
			return "is returned"
		case *ast.SendStmt:
			if within(id, n.Value) {
				return "is sent on a channel"
			}
		case *ast.CompositeLit:
			return "is stored in a composite literal"
		case *ast.AssignStmt:
			if lhs := assignTarget(n, id); lhs != nil && !isLocalTarget(pass, lhs) {
				return "is stored in " + describeTarget(lhs)
			}
			return ""
		case *ast.FuncLit, *ast.BlockStmt:
			return ""
		}
	}
	return ""
}

func calleeIdent(call *ast.CallExpr) *ast.Ident {
	id, _ := ast.Unparen(call.Fun).(*ast.Ident)
	return id
}

func within(id *ast.Ident, e ast.Expr) bool {
	return e != nil && e.Pos() <= id.Pos() && id.End() <= e.End()
}

// assignTarget returns the LHS expression matching the RHS element that
// contains id, or nil when id is on the LHS itself.
func assignTarget(n *ast.AssignStmt, id *ast.Ident) ast.Expr {
	for i, rhs := range n.Rhs {
		if !within(id, rhs) {
			continue
		}
		if len(n.Lhs) == len(n.Rhs) {
			return n.Lhs[i]
		}
		return n.Lhs[0]
	}
	return nil
}

func isLocalTarget(pass *Pass, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	if id.Name == "_" {
		return true
	}
	v, ok := pass.TypesInfo.ObjectOf(id).(*types.Var)
	return ok && !v.IsField() && v.Pkg() != nil && v.Parent() != v.Pkg().Scope()
}

// terminates reports whether control cannot flow past stmt (return or
// panic): used to decide if the function has an implicit return at the
// end of its body.
func terminates(stmt ast.Stmt) bool {
	switch s := stmt.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id := calleeIdent(call)
		return id != nil && id.Name == "panic"
	case *ast.ForStmt:
		return s.Cond == nil
	}
	return false
}

func describeTarget(e ast.Expr) string {
	switch ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		return "a field"
	case *ast.IndexExpr:
		return "an indexed element"
	case *ast.StarExpr:
		return "a pointed-to location"
	}
	return "a package-level variable"
}
