// Package hooksafe enforces the fault layer's nil-transparency
// contract.
//
// Hook nil-transparency: a nil *faults.LinkState or *faults.CallSite is
// the always-healthy hook, so an empty fault plan costs nothing and
// changes no digests; a nil *oltp.ReplicaHealth is the always-healthy
// suspicion table under the same contract. It has two sides:
//
//   - definition side: every exported pointer-receiver method on a hook
//     type must begin with a syntactic nil-receiver guard, unless it is
//     one of the declared write-side mutators (SetDown, SetExtra on
//     the faults hooks; Suspect, Clear on the health table) that only
//     the owning writer — the Injector, or the health detector —
//     invokes on states it created;
//   - call-site side: calls to those mutators outside the defining
//     package must sit under a nil check of the receiver (if ls != nil
//     { ... } or the else branch of ls == nil), or carry
//     //dipcvet:hook-ok <reason>.
package hooksafe

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the hooksafe pass.
var Analyzer = &analysis.Analyzer{
	Name: "hooksafe",
	Doc:  "checks fault-hook nil-safety",
	Run:  run,
}

// linkStateMutators are the faults.LinkState methods that are write-side
// by contract: NOT nil-safe, owned by the Injector, and requiring a nil
// guard (or //dipcvet:hook-ok) at every call site outside the package.
var linkStateMutators = map[string]bool{
	"SetDown":  true,
	"SetExtra": true,
}

// replicaHealthMutators are the oltp.ReplicaHealth write-side methods:
// only the owning health detector flips suspicion state, so they are
// NOT nil-safe and call sites outside package oltp need a nil guard or
// //dipcvet:hook-ok.
var replicaHealthMutators = map[string]bool{
	"Suspect": true,
	"Clear":   true,
}

// hookTypes are the nil-transparent hook types checked on the
// definition side inside package faults.
var hookTypes = map[string]bool{
	"LinkState": true,
	"CallSite":  true,
}

// oltpHookTypes are the nil-transparent hook types defined in package
// oltp: the health detector's suspicion table (read by routing
// policies, written only by the detector) follows the same contract as
// the faults hooks.
var oltpHookTypes = map[string]bool{
	"ReplicaHealth": true,
}

// declaredMutator reports whether a hook method is write-side by
// contract (and so exempt from the definition-side nil-guard rule).
func declaredMutator(typ, name string) bool {
	switch typ {
	case "LinkState":
		return linkStateMutators[name]
	case "ReplicaHealth":
		return replicaHealthMutators[name]
	}
	return false
}

func run(pass *analysis.Pass) {
	inFaults := isPkg(pass.Pkg, "faults")
	inOltp := isPkg(pass.Pkg, "oltp")
	for _, f := range pass.Files {
		if inFaults {
			checkHookDefs(pass, f, hookTypes)
		}
		if inOltp {
			checkHookDefs(pass, f, oltpHookTypes)
		}
		analysis.WalkStack(f, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
			if !ok {
				return true
			}
			if !inFaults && linkStateMutators[fn.Name()] && isMethodOn(fn, "faults", "LinkState") {
				if !nilGuarded(sel.X, call, stack) && !pass.Exempted(call.Pos(), "hook-ok") {
					pass.Reportf(call.Pos(), "faults.(*LinkState).%s is not nil-safe: guard %s against nil or annotate //dipcvet:hook-ok <reason>", fn.Name(), types.ExprString(sel.X))
				}
			}
			if !inOltp && replicaHealthMutators[fn.Name()] && isMethodOn(fn, "oltp", "ReplicaHealth") {
				if !nilGuarded(sel.X, call, stack) && !pass.Exempted(call.Pos(), "hook-ok") {
					pass.Reportf(call.Pos(), "oltp.(*ReplicaHealth).%s is detector-only and not nil-safe: guard %s against nil or annotate //dipcvet:hook-ok <reason>", fn.Name(), types.ExprString(sel.X))
				}
			}
			return true
		})
	}
}

// checkHookDefs enforces the definition side of nil-transparency: every
// exported pointer-receiver method on a hook type either opens with a
// syntactic nil-receiver guard or is a declared mutator.
func checkHookDefs(pass *analysis.Pass, f *ast.File, hooks map[string]bool) {
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Recv == nil || fd.Body == nil || !fd.Name.IsExported() {
			continue
		}
		typ, recvName := recvInfo(fd)
		if !hooks[typ] {
			continue
		}
		if declaredMutator(typ, fd.Name.Name) {
			continue
		}
		if startsWithNilGuard(fd.Body, recvName) {
			continue
		}
		if pass.Exempted(fd.Name.Pos(), "hook-ok") {
			continue
		}
		pass.Reportf(fd.Name.Pos(), "(*%s).%s must start with a nil-receiver guard (a nil hook is the transparent hook) or be a declared mutator (%s)", typ, fd.Name.Name, mutatorList())
	}
}

// recvInfo extracts the receiver's named type and binding from a method
// declaration ("" when the receiver is unnamed).
func recvInfo(fd *ast.FuncDecl) (typ, recvName string) {
	field := fd.Recv.List[0]
	t := field.Type
	if st, ok := t.(*ast.StarExpr); ok {
		t = st.X
	}
	if id, ok := t.(*ast.Ident); ok {
		typ = id.Name
	}
	if len(field.Names) > 0 {
		recvName = field.Names[0].Name
	}
	return typ, recvName
}

// startsWithNilGuard reports whether the body's first statement tests
// the receiver against nil — either an opening if recv == nil { ... }
// or a single return whose expression contains recv == nil.
func startsWithNilGuard(body *ast.BlockStmt, recvName string) bool {
	if recvName == "" || len(body.List) == 0 {
		return false
	}
	switch first := body.List[0].(type) {
	case *ast.IfStmt:
		return containsNilCompare(first.Cond, recvName, token.EQL)
	case *ast.ReturnStmt:
		for _, res := range first.Results {
			if containsNilCompare(res, recvName, token.EQL) {
				return true
			}
		}
	}
	return false
}

// nilGuarded reports whether the call sits inside a branch that has
// established recv != nil: the body of if recv != nil { ... } (possibly
// under &&) or the else branch of if recv == nil.
func nilGuarded(recv ast.Expr, call *ast.CallExpr, stack []ast.Node) bool {
	recvStr := types.ExprString(recv)
	for _, anc := range stack {
		ifs, ok := anc.(*ast.IfStmt)
		if !ok {
			continue
		}
		if containsNilCompareExpr(ifs.Cond, recvStr, token.NEQ) && within(call, ifs.Body) {
			return true
		}
		if ifs.Else != nil && containsNilCompareExpr(ifs.Cond, recvStr, token.EQL) && within(call, ifs.Else) {
			return true
		}
	}
	return false
}

// containsNilCompare looks for `name <op> nil` (either operand order)
// anywhere inside e.
func containsNilCompare(e ast.Expr, name string, op token.Token) bool {
	return containsNilCompareExpr(e, name, op)
}

func containsNilCompareExpr(e ast.Expr, want string, op token.Token) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || be.Op != op {
			return true
		}
		if isNilIdent(be.X) && types.ExprString(be.Y) == want {
			found = true
		}
		if isNilIdent(be.Y) && types.ExprString(be.X) == want {
			found = true
		}
		return !found
	})
	return found
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

func within(n, outer ast.Node) bool {
	return outer != nil && outer.Pos() <= n.Pos() && n.End() <= outer.End()
}

// isMethodOn reports whether fn is a method (pointer or value receiver)
// on the named type in the named repo package. Short package names match
// the real module path and testdata spellings alike.
func isMethodOn(fn *types.Func, pkgShort, typeName string) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != typeName {
		return false
	}
	return named.Obj().Pkg() != nil && matchPkgPath(named.Obj().Pkg().Path(), pkgShort)
}

func isPkg(pkg *types.Package, short string) bool {
	if pkg == nil {
		return false
	}
	return matchPkgPath(pkg.Path(), short) || pkg.Name() == short
}

func matchPkgPath(path, short string) bool {
	return path == "repro/internal/"+short || strings.HasSuffix(path, "/"+short) || path == short
}

func mutatorList() string {
	return "SetDown, SetExtra, Suspect, Clear"
}
