// Package goleak implements the goroutine-soundness analyzer: every
// goroutine the module launches must have a reachable exit path, and
// must not block forever on a channel send whose receiver has gone
// away.
//
// The streaming daemon direction (ROADMAP item 1) turns the pipeline
// into a long-running process, which is the regime where a leaked
// goroutine stops being a curiosity and becomes the failure mode
// Liang et al. (PAPERS.md) document for syslog pipelines: the
// process stays up, memory and scheduler load creep, and the capture
// silently falls behind its log source. The race detector cannot see
// a leak — a leaked goroutine races with nothing — so the invariant
// is enforced statically, at the `go` statement:
//
//   - a goroutine whose body runs an unconditional `for` loop with no
//     reachable exit — no return, no break that targets the loop, no
//     terminal call (panic, os.Exit, log.Fatal*, runtime.Goexit) —
//     leaks for the life of the process. Loop until a cancellation
//     signal (ctx.Done(), a done channel, a closed work channel)
//     tells you to return;
//   - a channel send inside a goroutine that is not a case of a
//     `select` with a receive or default case blocks forever once the
//     receiver is gone. Pair every goroutine send with a cancellation
//     receive in one select.
//
// Named functions launched with `go f()` are resolved within the
// package and their bodies held to the same rules (the
// `go c.run()` shape); functions from other packages are outside the
// pass's view and trusted. Closures nested inside a goroutine body
// are skipped — each `go` statement is analyzed at its own launch
// site.
package goleak

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"netfail/internal/lint"
)

// Analyzer is the goleak pass.
var Analyzer = &lint.Analyzer{
	Name: "goleak",
	Doc:  "require every goroutine to have a reachable exit path and cancellation-guarded sends",
	Run:  run,
}

// inScope limits enforcement to the module's own packages.
func inScope(path string) bool {
	path = strings.TrimSuffix(path, "_test")
	return path == "netfail" ||
		strings.HasPrefix(path, "netfail/internal/") ||
		strings.HasPrefix(path, "netfail/cmd/") ||
		strings.HasPrefix(path, "netfail/examples/")
}

func run(pass *lint.Pass) error {
	if !inScope(pass.Pkg.Path()) {
		return nil
	}
	decls := declIndex(pass.Files)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			body, named := launchedBody(pass, decls, g)
			if body == nil {
				return true
			}
			checkGoroutine(pass, g, body, named)
			return true
		})
	}
	return nil
}

// declIndex maps each function declaration's name position to its
// declaration, the key obj.Pos() yields for a resolved *types.Func.
func declIndex(files []*ast.File) map[token.Pos]*ast.FuncDecl {
	idx := map[token.Pos]*ast.FuncDecl{}
	for _, file := range files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				idx[fd.Name.Pos()] = fd
			}
		}
	}
	return idx
}

// launchedBody resolves the body of the function a go statement
// launches: a literal's own body, or the declaration of a named
// function or method defined in this package. named carries the
// callee's name for diagnostics ("" for literals).
func launchedBody(pass *lint.Pass, decls map[token.Pos]*ast.FuncDecl, g *ast.GoStmt) (*ast.BlockStmt, string) {
	switch fun := ast.Unparen(g.Call.Fun).(type) {
	case *ast.FuncLit:
		return fun.Body, ""
	case *ast.Ident:
		return declBody(pass, decls, fun)
	case *ast.SelectorExpr:
		return declBody(pass, decls, fun.Sel)
	}
	return nil, ""
}

func declBody(pass *lint.Pass, decls map[token.Pos]*ast.FuncDecl, id *ast.Ident) (*ast.BlockStmt, string) {
	fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
	if !ok {
		return nil, ""
	}
	fd, ok := decls[fn.Pos()]
	if !ok || fd.Body == nil {
		return nil, "" // defined elsewhere: outside this pass's view
	}
	return fd.Body, fn.Name()
}

// checkGoroutine applies both rules to one launched body.
func checkGoroutine(pass *lint.Pass, g *ast.GoStmt, body *ast.BlockStmt, named string) {
	where := "goroutine"
	if named != "" {
		where = "goroutine calling " + named
	}
	for _, loop := range unconditionalLoops(body) {
		if !loopExits(pass, loop) {
			pass.Reportf(g.Pos(),
				"%s runs an unconditional loop with no reachable exit (no return, loop break, or terminal call): it leaks for the life of the process; select on a cancellation signal (ctx.Done or a done channel) and return", where)
		}
	}
	for _, send := range unguardedSends(body) {
		pass.Reportf(send.Pos(),
			"channel send in a %s outside a select with a cancellation case: if the receiver is gone this goroutine blocks forever; wrap the send in select with ctx.Done (or default)", where)
	}
}

// unconditionalLoops collects `for { ... }` statements in body,
// excluding those inside nested function literals.
func unconditionalLoops(body *ast.BlockStmt) []*ast.ForStmt {
	var loops []*ast.ForStmt
	inspectShallow(body, func(n ast.Node) {
		if f, ok := n.(*ast.ForStmt); ok && f.Cond == nil {
			loops = append(loops, f)
		}
	})
	return loops
}

// loopExits reports whether the loop body contains a statement that
// can leave the loop (or the goroutine): a return, a break that
// targets this loop (unlabeled breaks inside nested loops, switches,
// and selects target those instead), a goto, or a terminal call.
func loopExits(pass *lint.Pass, loop *ast.ForStmt) bool {
	return scanExit(pass, loop.Body, true)
}

// scanExit walks stmts; breakable tracks whether an unlabeled break
// here still targets the goroutine loop under test.
func scanExit(pass *lint.Pass, n ast.Stmt, breakable bool) bool {
	switch n := n.(type) {
	case nil:
		return false
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		if n.Tok == token.GOTO {
			return true // a goto can jump past the loop
		}
		return n.Tok == token.BREAK && (breakable || n.Label != nil)
	case *ast.ExprStmt:
		return isTerminalCall(pass, n.X)
	case *ast.BlockStmt:
		for _, s := range n.List {
			if scanExit(pass, s, breakable) {
				return true
			}
		}
	case *ast.IfStmt:
		return scanExit(pass, n.Body, breakable) || scanExit(pass, n.Else, breakable)
	case *ast.ForStmt:
		return scanExit(pass, n.Body, false)
	case *ast.RangeStmt:
		return scanExit(pass, n.Body, false)
	case *ast.SwitchStmt:
		return scanExit(pass, n.Body, false)
	case *ast.TypeSwitchStmt:
		return scanExit(pass, n.Body, false)
	case *ast.SelectStmt:
		return scanExit(pass, n.Body, false)
	case *ast.CaseClause:
		for _, s := range n.Body {
			if scanExit(pass, s, breakable) {
				return true
			}
		}
	case *ast.CommClause:
		for _, s := range n.Body {
			if scanExit(pass, s, breakable) {
				return true
			}
		}
	case *ast.LabeledStmt:
		return scanExit(pass, n.Stmt, breakable)
	}
	return false
}

// terminalFuncs are package-level functions that never return.
var terminalFuncs = map[string]map[string]bool{
	"os":      {"Exit": true},
	"runtime": {"Goexit": true},
	"log":     {"Fatal": true, "Fatalf": true, "Fatalln": true, "Panic": true, "Panicf": true, "Panicln": true},
}

func isTerminalCall(pass *lint.Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		_, builtin := pass.TypesInfo.Uses[fun].(*types.Builtin)
		return builtin && fun.Name == "panic"
	case *ast.SelectorExpr:
		fn, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return false
		}
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			return false
		}
		return terminalFuncs[fn.Pkg().Path()][fn.Name()]
	}
	return false
}

// unguardedSends collects channel sends in body (nested literals
// excluded) that are not protected by a select with an escape case: a
// receive case or a default.
func unguardedSends(body *ast.BlockStmt) []*ast.SendStmt {
	guarded := map[*ast.SendStmt]bool{}
	var sends []*ast.SendStmt
	inspectShallow(body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.SelectStmt:
			escape := false
			for _, clause := range n.Body.List {
				cc := clause.(*ast.CommClause)
				if cc.Comm == nil || isReceive(cc.Comm) {
					escape = true
				}
			}
			if !escape {
				return
			}
			for _, clause := range n.Body.List {
				if send, ok := clause.(*ast.CommClause).Comm.(*ast.SendStmt); ok {
					guarded[send] = true
				}
			}
		case *ast.SendStmt:
			sends = append(sends, n)
		}
	})
	var out []*ast.SendStmt
	for _, s := range sends {
		if !guarded[s] {
			out = append(out, s)
		}
	}
	return out
}

// isReceive matches the comm statement forms that receive: `<-ch`,
// `v := <-ch`, `v, ok = <-ch`.
func isReceive(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ExprStmt:
		u, ok := ast.Unparen(s.X).(*ast.UnaryExpr)
		return ok && u.Op == token.ARROW
	case *ast.AssignStmt:
		if len(s.Rhs) != 1 {
			return false
		}
		u, ok := ast.Unparen(s.Rhs[0]).(*ast.UnaryExpr)
		return ok && u.Op == token.ARROW
	}
	return false
}

// inspectShallow visits body without descending into nested function
// literals: each go statement is analyzed at its own launch site, and
// a closure defined (but perhaps never called) inside a goroutine
// must not vouch for it.
func inspectShallow(body *ast.BlockStmt, fn func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			fn(n)
		}
		return true
	})
}
