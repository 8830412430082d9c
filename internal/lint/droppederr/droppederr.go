// Package droppederr implements the parse-error analyzer: an error
// returned by the syslog/IS-IS parse and decode paths must not be
// silently discarded.
//
// The syslog-mining literature (Liang et al.; Simache & Kaâniche)
// shows log-analysis pipelines live or die on silently-dropped parse
// errors, and for this reproduction a swallowed decode error is a
// silently shortened trace: the failure simply vanishes from one side
// of the syslog-vs-IS-IS comparison. The analyzer therefore flags any
// call site — anywhere in the module — that discards an error
// returned by a function or method declared in netfail/internal/syslog,
// netfail/internal/isis, netfail/internal/listener, or
// netfail/internal/frame (the one framed-record reader behind the WAL,
// capture segments and store postings, whose Report is traced like the
// salvage readers' below):
//
//   - a call used as a bare expression statement, e.g.
//     `sender.Send(m)`;
//   - an assignment that binds the error result to the blank
//     identifier, e.g. `msgs, _, _ := syslog.ReadLog(r, ref)` or
//     `_ = lsp.Process(at, pkt)`.
//
// The capture readers in netfail/internal/netsim (ReadLSPLog,
// ReadLSPLogLenient and ReadManifest) are traced as specific entry
// points: they gate the same trace completeness from disk, and the
// lenient variant additionally returns a *salvage.Report whose discard
// silently hides dropped records — blank-binding that report is
// flagged exactly like blank-binding an error.
//
// Deferred and go'd calls (`defer c.Close()`) are deliberately not
// flagged: there is no binding position for the error, and the
// cleanup-path convention is established in the codebase.
package droppederr

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"netfail/internal/lint"
)

// Analyzer is the droppederr pass.
var Analyzer = &lint.Analyzer{
	Name: "droppederr",
	Doc:  "forbid discarding errors returned by the syslog/IS-IS parse and decode paths",
	Run:  run,
}

// tracedPackages are the packages whose returned errors account for
// trace completeness (ISSUE: the parse and decode paths).
var tracedPackages = []string{
	"netfail/internal/syslog",
	"netfail/internal/isis",
	"netfail/internal/listener",
	"netfail/internal/frame",
}

// tracedFuncs pins individual capture-reader entry points in packages
// that are otherwise out of scope: a discarded error (or salvage
// report) from these readers silently shortens or mis-accounts a
// trace read back from disk.
var tracedFuncs = map[string]map[string]bool{
	"netfail/internal/netsim": {
		"ReadLSPLog":        true,
		"ReadLSPLogLenient": true,
		"ReadManifest":      true,
	},
}

func tracedPackage(path string) bool {
	for _, p := range tracedPackages {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

func tracedFunc(fn *types.Func) bool {
	if tracedPackage(fn.Pkg().Path()) {
		return true
	}
	return tracedFuncs[fn.Pkg().Path()][fn.Name()]
}

func run(pass *lint.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.ExprStmt:
				call, ok := stmt.X.(*ast.CallExpr)
				if !ok {
					return true
				}
				if fn, kinds := tracedErrorCall(pass.TypesInfo, call); fn != nil && len(kinds) > 0 {
					pass.Reportf(call.Pos(),
						"%s returned by %s.%s is silently discarded; a swallowed parse error silently shortens the trace",
						resultNoun(kinds), fn.Pkg().Name(), fn.Name())
				}
			case *ast.AssignStmt:
				checkAssign(pass, stmt)
			}
			return true
		})
	}
	return nil
}

// checkAssign flags assignments that bind an error result from a
// traced call to the blank identifier.
func checkAssign(pass *lint.Pass, stmt *ast.AssignStmt) {
	// Only the 1-call form (x, _ := f(...)) binds results
	// positionally; n:n assignments pair one value per expression.
	if len(stmt.Rhs) != 1 {
		for i, rhs := range stmt.Rhs {
			if i >= len(stmt.Lhs) || !isBlank(stmt.Lhs[i]) {
				continue
			}
			call, ok := rhs.(*ast.CallExpr)
			if !ok {
				continue
			}
			if fn, kinds := tracedErrorCall(pass.TypesInfo, call); fn != nil && len(kinds) == 1 {
				for _, noun := range kinds {
					reportBlank(pass, stmt.Lhs[i].Pos(), noun, fn)
				}
			}
		}
		return
	}
	call, ok := stmt.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	fn, kinds := tracedErrorCall(pass.TypesInfo, call)
	if fn == nil {
		return
	}
	for i, noun := range kinds {
		if i < len(stmt.Lhs) && isBlank(stmt.Lhs[i]) {
			reportBlank(pass, stmt.Lhs[i].Pos(), noun, fn)
		}
	}
}

func reportBlank(pass *lint.Pass, pos token.Pos, noun string, fn *types.Func) {
	if noun == reportNoun {
		pass.Reportf(pos,
			"salvage report returned by %s.%s is assigned to the blank identifier; dropped-record accounting is lost",
			fn.Pkg().Name(), fn.Name())
		return
	}
	pass.Reportf(pos,
		"error returned by %s.%s is assigned to the blank identifier",
		fn.Pkg().Name(), fn.Name())
}

const (
	errNoun    = "error"
	reportNoun = "salvage report"
)

// resultNoun summarizes a kinds map for the bare-statement message:
// "error" wins when present, since that is the sharper defect.
func resultNoun(kinds map[int]string) string {
	for _, noun := range kinds {
		if noun == errNoun {
			return errNoun
		}
	}
	return reportNoun
}

// tracedErrorCall resolves call's callee; if it is a traced function
// or method whose signature returns one or more accountable results
// (errors, or *salvage.Report for the lenient capture readers), it
// returns the callee and a map from result index to result noun.
func tracedErrorCall(info *types.Info, call *ast.CallExpr) (*types.Func, map[int]string) {
	fn := callee(info, call)
	if fn == nil || fn.Pkg() == nil || !tracedFunc(fn) {
		return nil, nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil, nil
	}
	kinds := make(map[int]string)
	for i := 0; i < sig.Results().Len(); i++ {
		switch t := sig.Results().At(i).Type(); {
		case isErrorType(t):
			kinds[i] = errNoun
		case isSalvageReport(t):
			kinds[i] = reportNoun
		}
	}
	if len(kinds) == 0 {
		return nil, nil
	}
	return fn, kinds
}

// isSalvageReport matches *netfail/internal/salvage.Report.
func isSalvageReport(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "netfail/internal/salvage" && obj.Name() == "Report"
}

func callee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

var errorType = types.Universe.Lookup("error").Type()

func isErrorType(t types.Type) bool {
	return types.Identical(t, errorType)
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}
