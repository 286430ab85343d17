// Package detrand flags nondeterminism sources in digest-affecting
// code. The repo's scenarios pin golden SHA-256 digests over canonical
// JSON; anything that lets host state leak into a result — the wall
// clock, the process-global math/rand stream, Go's randomized map
// iteration order, a goroutine racing the engine —
// eventually breaks a digest, typically several PRs after the leak was
// introduced. This analyzer moves that discovery to vet time.
//
// Findings and their exemption directives:
//
//   - calls to time.Now / time.Since / time.Until — wall-clock reads;
//     legitimate wall-clock timing (the bench harness) is annotated
//     //dipcvet:wallclock-ok <reason>;
//   - calls to the package-global math/rand (and math/rand/v2)
//     generators — process-global, seed-uncontrolled randomness; model
//     code must draw from explicit sim.Rand streams. Exemption:
//     //dipcvet:rand-ok <reason>. Constructing a locally seeded
//     generator (rand.New, rand.NewSource, ...) is not flagged;
//   - range over a map — iteration order is randomized per run. The
//     canonical fix, collecting keys into a slice that is sorted in the
//     same block after the loop, is recognized and not flagged;
//     anything else needs sorting or //dipcvet:unordered-ok <reason>;
//   - go statements — goroutines outside the engine/cluster machinery
//     order their effects by host scheduling. Exemption:
//     //dipcvet:goroutine-ok <reason>.
package detrand

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the detrand pass.
var Analyzer = &analysis.Analyzer{
	Name: "detrand",
	Doc:  "flags nondeterminism sources (wall clock, global rand, map iteration order, free goroutines) in digest-affecting code",
	Run:  run,
}

// wallClockFuncs are the time package's host-clock reads. time.Sleep
// would also be a red flag but cannot affect a value; the simulator
// never calls it and a test harness may.
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// randConstructors are the math/rand functions that build an explicitly
// seeded local generator rather than touching the global stream.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func run(pass *analysis.Pass) {
	for _, f := range pass.Files {
		analysis.WalkStack(f, func(n ast.Node, stack []ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.GoStmt:
				if !pass.Exempted(n.Pos(), "goroutine-ok") {
					pass.Reportf(n.Pos(), "goroutine launched outside the engine/cluster machinery: execution order follows the host scheduler; run on the model's engine or annotate //dipcvet:goroutine-ok <reason>")
				}
			case *ast.RangeStmt:
				checkRange(pass, n, stack)
			}
			return true
		})
	}
}

// checkCall flags wall-clock reads and global math/rand draws.
func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		// Methods (e.g. (*rand.Rand).Intn on an explicitly seeded
		// generator, or (time.Time).Sub) are deterministic given their
		// receiver; only package-level functions reach host state.
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if wallClockFuncs[fn.Name()] && !pass.Exempted(call.Pos(), "wallclock-ok") {
			pass.Reportf(call.Pos(), "wall clock read (time.%s) in digest-affecting code: simulated results must derive time from the engine clock; annotate //dipcvet:wallclock-ok <reason> if this is host-side measurement", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !randConstructors[fn.Name()] && !pass.Exempted(call.Pos(), "rand-ok") {
			pass.Reportf(call.Pos(), "global %s.%s draws from the process-wide stream: model code must use an explicit, deterministically seeded generator (sim.Rand or rand.New); annotate //dipcvet:rand-ok <reason> otherwise", fn.Pkg().Name(), fn.Name())
		}
	}
}

// checkRange flags map iteration unless the loop is the recognized
// collect-then-sort idiom or carries an unordered-ok exemption.
func checkRange(pass *analysis.Pass, rng *ast.RangeStmt, stack []ast.Node) {
	tv := pass.TypeOf(rng.X)
	if tv == nil {
		return
	}
	if _, isMap := tv.Underlying().(*types.Map); !isMap {
		return
	}
	if pass.Exempted(rng.Pos(), "unordered-ok") {
		return
	}
	if sortedCollect(pass, rng, stack) {
		return
	}
	pass.Reportf(rng.Pos(), "range over map: iteration order is randomized per run and must not reach a result, series or digest; collect the keys and sort (the collect-then-sort idiom is recognized), or annotate //dipcvet:unordered-ok <reason>")
}

// sortedCollect recognizes the canonical deterministic map walk:
//
//	for k := range m {
//		keys = append(keys, k)
//	}
//	sort.Strings(keys)        // or sort.Slice, slices.Sort, ...
//
// Every statement of the loop body must append to some slice variable,
// and every such slice must be passed to a sort function later in the
// same enclosing block.
func sortedCollect(pass *analysis.Pass, rng *ast.RangeStmt, stack []ast.Node) bool {
	var targets []types.Object
	for _, st := range rng.Body.List {
		obj := appendTarget(pass, st)
		if obj == nil {
			return false
		}
		targets = append(targets, obj)
	}
	if len(targets) == 0 {
		return false
	}
	// Find the block containing the range statement itself.
	var block *ast.BlockStmt
	for i := len(stack) - 1; i >= 0; i-- {
		if b, ok := stack[i].(*ast.BlockStmt); ok {
			block = b
			break
		}
	}
	if block == nil {
		return false
	}
	after := false
	sorted := map[types.Object]bool{}
	for _, st := range block.List {
		if st == ast.Stmt(rng) {
			after = true
			continue
		}
		if !after {
			continue
		}
		if obj := sortCallTarget(pass, st); obj != nil {
			sorted[obj] = true
		}
	}
	for _, obj := range targets {
		if !sorted[obj] {
			return false
		}
	}
	return true
}

// appendTarget returns the object of v in a statement of the exact form
// v = append(v, ...), or nil.
func appendTarget(pass *analysis.Pass, st ast.Stmt) types.Object {
	as, ok := st.(*ast.AssignStmt)
	if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil
	}
	lhs, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return nil
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return nil
	}
	fun, ok := call.Fun.(*ast.Ident)
	if !ok || fun.Name != "append" {
		return nil
	}
	if b, ok := pass.Info.Uses[fun].(*types.Builtin); !ok || b.Name() != "append" {
		return nil
	}
	first, ok := call.Args[0].(*ast.Ident)
	if !ok || first.Name != lhs.Name {
		return nil
	}
	return pass.Info.Uses[first]
}

// sortFuncs are the sort/slices entry points the collect-then-sort
// recognizer accepts.
var sortFuncs = map[string]map[string]bool{
	"sort": {
		"Sort": true, "Stable": true, "Slice": true, "SliceStable": true,
		"Strings": true, "Ints": true, "Float64s": true,
	},
	"slices": {"Sort": true, "SortFunc": true, "SortStableFunc": true},
}

// sortCallTarget returns the object of the slice being sorted if st is
// a recognized sort call, or nil.
func sortCallTarget(pass *analysis.Pass, st ast.Stmt) types.Object {
	es, ok := st.(*ast.ExprStmt)
	if !ok {
		return nil
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil
	}
	names := sortFuncs[fn.Pkg().Path()]
	if names == nil || !names[fn.Name()] {
		return nil
	}
	arg, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return nil
	}
	return pass.Info.Uses[arg]
}
