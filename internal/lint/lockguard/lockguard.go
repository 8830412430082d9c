// Package lockguard implements the mutex-annotation analyzer: struct
// fields documented as mutex-guarded must only be touched while the
// named mutex is held.
//
// The convention (docs/static-analysis.md) is a comment on the field
// declaration:
//
//	mu       sync.Mutex
//	messages []*Message // guarded by mu
//	dropped  int        // guarded by mu
//
// For every selector access x.field of a guarded field, the enclosing
// function must contain a lock acquisition on the same receiver
// chain, x.mu.Lock() — or x.mu.RLock() when every access in question
// is a read. The check is deliberately flow-insensitive: it asks "does
// this function take the lock at all", the same contract TSan's
// annotations and staticcheck's SA-style checks enforce, which is
// exactly strong enough to catch the snapshot-method-forgets-to-lock
// defect class that corrupts a concurrently-collected trace.
//
// Goroutine scopes: a function literal launched with `go` runs
// concurrently with its enclosing function, so it is analyzed as a
// scope of its own — a lock held by the spawning code does not license
// accesses inside the goroutine, and a lock taken inside the goroutine
// does not license accesses outside it. This is the defect class a
// parallel worker pool introduces: the pool body mutates shared tally
// state while the spawner (or another worker) holds nothing.
//
// Exemptions, matching established codebase idioms:
//
//   - composite literals (&Registry{...} in a constructor) — the
//     value is not yet shared;
//   - accesses through a variable declared inside the scope body
//     itself (freshly constructed, not yet escaped); note a variable
//     declared in the enclosing function but captured by a
//     go-closure is shared, and is not exempt inside the closure;
//   - functions whose name ends in "Locked", the documented marker
//     for helpers called with the lock already held.
package lockguard

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"netfail/internal/lint"
)

// Analyzer is the lockguard pass.
var Analyzer = &lint.Analyzer{
	Name: "lockguard",
	Doc:  "enforce the \"// guarded by mu\" convention: guarded fields are only accessed under their mutex",
	Run:  run,
}

var guardedRe = regexp.MustCompile(`guarded by (\w+)`)

func run(pass *lint.Pass) error {
	guarded := collectGuardedFields(pass)
	if len(guarded) == 0 {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFunc(pass, guarded, fn)
		}
	}
	return nil
}

// collectGuardedFields maps each annotated field object to the name
// of the mutex that guards it.
func collectGuardedFields(pass *lint.Pass) map[*types.Var]string {
	guarded := make(map[*types.Var]string)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				mu := guardAnnotation(field)
				if mu == "" {
					continue
				}
				for _, name := range field.Names {
					if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
						guarded[v] = mu
					}
				}
			}
			return true
		})
	}
	return guarded
}

func guardAnnotation(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedRe.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

// access is one guarded-field selector occurrence inside a function.
type access struct {
	sel   *ast.SelectorExpr
	field *types.Var
	mu    string
	base  string // rendering of the receiver chain, e.g. "c" or "s.db"
	write bool
}

func checkFunc(pass *lint.Pass, guarded map[*types.Var]string, fn *ast.FuncDecl) {
	if strings.HasSuffix(fn.Name.Name, "Locked") {
		return
	}
	checkScope(pass, guarded, fn.Body)
}

// checkScope checks one goroutine scope: a function body, or the body
// of a go-launched closure. Nested go-closures are recursed into as
// scopes of their own and excluded from this scope's accesses and
// lock calls — the two run concurrently, so neither's locks license
// the other's accesses.
func checkScope(pass *lint.Pass, guarded map[*types.Var]string, body *ast.BlockStmt) {
	accesses, goBodies := collectAccesses(pass, guarded, body)
	for _, gb := range goBodies {
		checkScope(pass, guarded, gb)
	}
	if len(accesses) == 0 {
		return
	}
	locked, rlocked := collectLockCalls(body)
	for _, a := range accesses {
		key := a.base + "." + a.mu
		switch {
		case locked[key]:
			// Full lock covers reads and writes.
		case rlocked[key] && !a.write:
			// Read lock covers reads.
		case rlocked[key] && a.write:
			pass.Reportf(a.sel.Pos(),
				"write to %s.%s (guarded by %s) under %s.RLock; writes need %s.Lock",
				a.base, a.field.Name(), a.mu, key, key)
		default:
			verb := "read of"
			if a.write {
				verb = "write to"
			}
			pass.Reportf(a.sel.Pos(),
				"%s %s.%s (guarded by %s) without holding %s.Lock",
				verb, a.base, a.field.Name(), a.mu, key)
		}
	}
}

// inspectScope walks root calling fn on every node, but prunes the
// bodies of go-launched function literals — those are separate
// goroutine scopes — and returns them. The launch call's arguments
// still belong to the current scope (they are evaluated by the
// spawner) and are walked normally.
func inspectScope(root ast.Node, fn func(ast.Node) bool) (goBodies []*ast.BlockStmt) {
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			g, ok := m.(*ast.GoStmt)
			if !ok {
				return fn(m)
			}
			lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
			if !ok {
				return true
			}
			goBodies = append(goBodies, lit.Body)
			for _, arg := range g.Call.Args {
				walk(arg)
			}
			return false // the closure body is another scope
		})
	}
	walk(root)
	return goBodies
}

func collectAccesses(pass *lint.Pass, guarded map[*types.Var]string, body *ast.BlockStmt) ([]access, []*ast.BlockStmt) {
	var accesses []access
	goBodies := inspectScope(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		selection, ok := pass.TypesInfo.Selections[sel]
		if !ok || selection.Kind() != types.FieldVal {
			return true
		}
		field, ok := selection.Obj().(*types.Var)
		if !ok {
			return true
		}
		mu, ok := guarded[field]
		if !ok {
			return true
		}
		if declaredIn(pass, sel.X, body) {
			// Freshly constructed local value: not yet shared.
			return true
		}
		accesses = append(accesses, access{
			sel:   sel,
			field: field,
			mu:    mu,
			base:  exprString(sel.X),
			write: isWrite(pass, body, sel),
		})
		return true
	})
	return accesses, goBodies
}

// declaredIn reports whether the base of an access chain is a
// variable declared inside body (e.g. r := &Registry{...} in a
// constructor). Receivers and parameters are declared in the function
// signature, before body.Lbrace, so they are never exempt.
func declaredIn(pass *lint.Pass, base ast.Expr, body *ast.BlockStmt) bool {
	id, ok := ast.Unparen(base).(*ast.Ident)
	if !ok {
		return false
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		return false
	}
	return obj.Pos() > body.Lbrace && obj.Pos() < body.Rbrace
}

// collectLockCalls finds every <chain>.<mu>.Lock / RLock call in the
// scope — go-closure bodies excluded, their locks belong to their own
// scope — and records the "<chain>.<mu>" key.
func collectLockCalls(body *ast.BlockStmt) (locked, rlocked map[string]bool) {
	locked, rlocked = map[string]bool{}, map[string]bool{}
	inspectScope(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch sel.Sel.Name {
		case "Lock":
			locked[exprString(sel.X)] = true
		case "RLock":
			rlocked[exprString(sel.X)] = true
		}
		return true
	})
	return locked, rlocked
}

// isWrite reports whether sel is the target of an assignment,
// compound assignment, increment/decrement, element write
// (x.f[k] = v), or address-taking anywhere in body.
func isWrite(pass *lint.Pass, body *ast.BlockStmt, sel *ast.SelectorExpr) bool {
	write := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				if writeTarget(lhs) == sel {
					write = true
				}
			}
		case *ast.IncDecStmt:
			if writeTarget(st.X) == sel {
				write = true
			}
		case *ast.UnaryExpr:
			if st.Op == token.AND && writeTarget(st.X) == sel {
				write = true
			}
		case *ast.CallExpr:
			// The delete and clear builtins mutate their map
			// argument in place.
			if id, ok := ast.Unparen(st.Fun).(*ast.Ident); ok &&
				(id.Name == "delete" || id.Name == "clear") &&
				pass.TypesInfo.Uses[id] == types.Universe.Lookup(id.Name) &&
				len(st.Args) > 0 && writeTarget(st.Args[0]) == sel {
				write = true
			}
		}
		return true
	})
	return write
}

// writeTarget strips the wrappers through which a store still
// mutates the underlying field: parens, element indexing, and
// pointer dereference.
func writeTarget(e ast.Expr) ast.Expr {
	for {
		switch t := e.(type) {
		case *ast.ParenExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		default:
			return e
		}
	}
}

// exprString renders simple receiver chains (identifiers, field
// selections, dereferences) for matching accesses against lock
// calls.
func exprString(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.StarExpr:
		return exprString(e.X)
	default:
		return fmt.Sprintf("<%T>", e)
	}
}
