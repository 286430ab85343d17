// Package noalloc statically checks functions marked //dipcvet:noalloc
// for obvious allocation constructs. The runtime AllocsPerRun asserts
// (crosscall, dispatch, cluster) prove specific end-to-end paths stay at
// 0 allocs/op; this analyzer complements them with a whole-function
// static view that fires at vet time, before a change ever reaches a
// benchmark — the same check-ahead-of-time philosophy dIPC applies to
// IPC safety.
//
// Inside a marked function the analyzer flags:
//
//   - calls into fmt and errors (Sprintf, Errorf, New, ...): message
//     construction belongs on cold paths — preconstruct the error or
//     move the construction into an unmarked helper called only on the
//     failure branch (the deadErr pattern). errors.Is and errors.As
//     construct nothing, but they assert to interface types (below);
//   - type assertions and type-switch cases to interface types: the
//     runtime resolves them through per-site caches that it refills by
//     allocating, now and then, on a miss. Match concrete types, or
//     compare sentinels by identity (faults.Class);
//   - make, new, &composite{...}, slice/map composite literals;
//   - append: growing a non-pooled slice allocates; appends into pooled
//     backing arrays are annotated, not exempted silently;
//   - function literals: a closure that escapes allocates its captures;
//   - string concatenation and string<->[]byte/[]rune conversions;
//   - interface boxing: passing, assigning, returning or converting a
//     concrete non-pointer value into an interface allocates (constants
//     are compiler statics and exempt);
//   - variadic calls with at least one variadic argument (the call
//     packs a slice);
//   - map writes (inserts may grow the table);
//   - go statements (a goroutine allocates its stack).
//
// A site that is provably cold or amortized (a pooled append, a
// first-use memoization insert, an open-coded defer) carries
// //dipcvet:alloc-ok <reason>. The analysis is intraprocedural by
// design: calls to unmarked functions are not followed — composition is
// what the runtime asserts pin.
package noalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the noalloc pass.
var Analyzer = &analysis.Analyzer{
	Name: "noalloc",
	Doc:  "checks //dipcvet:noalloc functions for obvious allocation constructs",
	Run:  run,
}

func run(pass *analysis.Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if analysis.FuncDirective(fd, "noalloc") == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	var sig *types.Signature
	if obj, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
		sig = obj.Type().(*types.Signature)
	}
	analysis.WalkStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			report(pass, n.Pos(), "function literal: a closure that escapes allocates its captures")
			return false // the literal's body is not on the marked path
		case *ast.CallExpr:
			checkCall(pass, n)
		case *ast.TypeAssertExpr:
			// x.(type) in a switch has no Type; its cases are checked below.
			if n.Type != nil && isInterface(pass.TypeOf(n.Type)) {
				report(pass, n.Pos(), "assertion to interface type %s refills a runtime cache by allocating; match a concrete type", pass.TypeOf(n.Type))
			}
		case *ast.TypeSwitchStmt:
			for _, c := range n.Body.List {
				for _, t := range c.(*ast.CaseClause).List {
					if isInterface(pass.TypeOf(t)) {
						report(pass, t.Pos(), "type-switch case %s is an interface type; the switch refills a runtime cache by allocating", pass.TypeOf(t))
					}
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					report(pass, n.Pos(), "&composite literal allocates when it escapes")
				}
			}
		case *ast.CompositeLit:
			if t := pass.TypeOf(n); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice:
					report(pass, n.Pos(), "slice literal allocates its backing array")
				case *types.Map:
					report(pass, n.Pos(), "map literal allocates")
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(pass.TypeOf(n.X)) && !isConst(pass, n) {
				report(pass, n.Pos(), "string concatenation allocates")
			}
		case *ast.AssignStmt:
			checkAssign(pass, n)
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i, v := range n.Values {
					if dst := pass.TypeOf(n.Names[i]); dst != nil {
						checkBoxing(pass, v, dst, "assignment")
					}
				}
			}
		case *ast.ReturnStmt:
			if sig != nil {
				checkReturn(pass, n, sig)
			}
		case *ast.GoStmt:
			report(pass, n.Pos(), "go statement allocates a goroutine")
		}
		return true
	})
}

// checkCall flags allocating callees, conversions, variadic packing and
// interface boxing of arguments.
func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	// Conversions: T(x).
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		checkConversion(pass, call, tv.Type)
		return
	}

	// Builtins.
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pass.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "append":
				report(pass, call.Pos(), "append may grow the backing array; pooled/pre-sized appends are annotated //dipcvet:alloc-ok <reason>")
			case "make":
				report(pass, call.Pos(), "make allocates")
			case "new":
				report(pass, call.Pos(), "new allocates when it escapes")
			}
			return
		}
	}

	// Allocating stdlib calls: all of fmt is construction; errors.New
	// and Join construct, errors.Is and As assert to interface types
	// (see the package doc); Unwrap only inspects.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if fn, ok := pass.Info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil {
			switch fn.Pkg().Path() {
			case "fmt":
				report(pass, call.Pos(), "call to fmt.%s allocates; preconstruct the value or move construction to a cold helper", fn.Name())
			case "errors":
				switch fn.Name() {
				case "New", "Join":
					report(pass, call.Pos(), "call to errors.%s allocates; preconstruct the value or move construction to a cold helper", fn.Name())
				case "Is", "As":
					report(pass, call.Pos(), "call to errors.%s asserts to interface types, which refills runtime caches by allocating; compare sentinels or match concrete types", fn.Name())
				}
			}
		}
	}

	sig, ok := pass.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}

	// Variadic packing: f(a, b) with variadic f builds a slice.
	if sig.Variadic() && !call.Ellipsis.IsValid() && len(call.Args) >= sig.Params().Len() {
		report(pass, call.Pos(), "call packs %d variadic argument(s) into a slice", len(call.Args)-sig.Params().Len()+1)
	}

	// Interface boxing of arguments.
	for i, arg := range call.Args {
		var param types.Type
		switch {
		case sig.Variadic() && i >= sig.Params().Len()-1:
			if call.Ellipsis.IsValid() {
				continue // the slice is passed through, no per-element boxing
			}
			param = sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice).Elem()
		case i < sig.Params().Len():
			param = sig.Params().At(i).Type()
		default:
			continue
		}
		checkBoxing(pass, arg, param, "argument")
	}
}

// checkConversion flags T(x) conversions that allocate.
func checkConversion(pass *analysis.Pass, call *ast.CallExpr, dst types.Type) {
	arg := call.Args[0]
	src := pass.TypeOf(arg)
	if src == nil {
		return
	}
	if types.IsInterface(dst.Underlying()) {
		checkBoxing(pass, arg, dst, "conversion")
		return
	}
	du, su := dst.Underlying(), src.Underlying()
	if isString(du) {
		if _, ok := su.(*types.Slice); ok {
			report(pass, call.Pos(), "[]byte/[]rune-to-string conversion copies and allocates")
		}
	}
	if _, ok := du.(*types.Slice); ok && isString(su) {
		report(pass, call.Pos(), "string-to-slice conversion copies and allocates")
	}
}

// checkAssign flags map writes, string +=, and interface boxing on the
// right-hand sides.
func checkAssign(pass *analysis.Pass, as *ast.AssignStmt) {
	for _, lhs := range as.Lhs {
		if ix, ok := lhs.(*ast.IndexExpr); ok {
			if t := pass.TypeOf(ix.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					report(pass, lhs.Pos(), "map write may grow the table")
				}
			}
		}
	}
	if as.Tok == token.ADD_ASSIGN && len(as.Lhs) == 1 && isString(pass.TypeOf(as.Lhs[0])) {
		report(pass, as.Pos(), "string concatenation allocates")
	}
	if as.Tok != token.ASSIGN && as.Tok != token.DEFINE {
		return
	}
	if len(as.Lhs) != len(as.Rhs) {
		return // multi-value call unpacking; boxing is at the callee's returns
	}
	for i, rhs := range as.Rhs {
		if dst := pass.TypeOf(as.Lhs[i]); dst != nil {
			checkBoxing(pass, rhs, dst, "assignment")
		}
	}
}

// checkReturn flags interface boxing of returned values.
func checkReturn(pass *analysis.Pass, ret *ast.ReturnStmt, sig *types.Signature) {
	if len(ret.Results) != sig.Results().Len() {
		return
	}
	for i, res := range ret.Results {
		checkBoxing(pass, res, sig.Results().At(i).Type(), "return")
	}
}

// checkBoxing reports e if storing it into dst boxes a concrete
// non-pointer value into an interface. Pointer-shaped values (pointers,
// channels, maps, funcs, unsafe.Pointer) fit the interface data word;
// constants become compiler statics; interface-to-interface moves copy
// the existing box.
func checkBoxing(pass *analysis.Pass, e ast.Expr, dst types.Type, what string) {
	if !types.IsInterface(dst.Underlying()) {
		return
	}
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Type == nil {
		return
	}
	if tv.Value != nil || tv.IsNil() {
		return // constants and nil are free
	}
	src := tv.Type
	switch src.Underlying().(type) {
	case *types.Interface, *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return
	case *types.Basic:
		if src.Underlying().(*types.Basic).Kind() == types.UnsafePointer {
			return
		}
	}
	report(pass, e.Pos(), "%s boxes %s into %s and allocates; route the value through an unboxed lane or a pointer", what, src, dst)
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// isInterface reports whether t is an interface type (nil, the untyped
// nil of a `case nil`, is not).
func isInterface(t types.Type) bool {
	return t != nil && types.IsInterface(t)
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isConst(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	return ok && tv.Value != nil
}

// report files the finding unless the site carries //dipcvet:alloc-ok.
func report(pass *analysis.Pass, pos token.Pos, format string, args ...any) {
	if pass.Exempted(pos, "alloc-ok") {
		return
	}
	pass.Reportf(pos, "allocation in //dipcvet:noalloc function: "+format, args...)
}
