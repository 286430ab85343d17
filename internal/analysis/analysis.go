// Package analysis is a small, dependency-free analogue of
// golang.org/x/tools/go/analysis: just enough framework to write the
// repo's contract-enforcing vet checks (detrand, noalloc, shardsafe)
// against the standard library's go/ast and go/types. The module has no
// third-party dependencies by policy, so the x/tools framework is
// mirrored in shape — Analyzer, Pass, per-position diagnostics, an
// analysistest-style harness — rather than imported.
//
// The three contracts these analyzers machine-enforce are the ones PRs
// 2–7 established by convention and pin with after-the-fact tests:
//
//   - determinism: byte-identical golden SHA-256 digests, so no wall
//     clock, global math/rand, unsorted map iteration or free-range
//     goroutines in result-producing code (detrand);
//   - zero allocation on the proven hot paths: dispatch, payload lanes,
//     the event heap, cross-domain call descriptors, the APL cache, and
//     sim.Link.SendU64 (noalloc);
//   - hook safety: fault hooks and the replica health table stay
//     nil-transparent (shardsafe).
//
// Exemptions are explicit, reasoned source annotations (see directives.go),
// never analyzer special cases: a legitimate wall-clock read is marked
// //dipcvet:wallclock-ok <why>, not silently skipped.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named check. Run inspects a single type-checked
// package through the Pass and reports findings via Pass.Reportf.
type Analyzer struct {
	Name string // short lower-case identifier, e.g. "detrand"
	Doc  string // one-paragraph description of the enforced contract
	Run  func(*Pass)
}

// Diagnostic is one finding, resolved to a concrete file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	Dirs     *Directives

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Exempted reports whether pos is covered by the named exemption
// directive (on the same line or the line above). An exemption with no
// reason does not exempt: the directive contract is "annotated, not
// ignored", so a bare //dipcvet:wallclock-ok is itself reported and the
// underlying finding still stands.
func (p *Pass) Exempted(pos token.Pos, name string) bool {
	d := p.Dirs.At(pos, name)
	if d == nil {
		return false
	}
	if d.Reason == "" {
		p.report(Diagnostic{
			Pos:      p.Fset.Position(d.Pos),
			Analyzer: p.Analyzer.Name,
			Message:  fmt.Sprintf("//dipcvet:%s needs a reason (why is this site exempt?)", name),
		})
		return false
	}
	return true
}

// TypeOf returns the type of expression e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.Info.TypeOf(e)
}

// RunAnalyzers applies every analyzer to every package and returns the
// combined findings sorted by position (filename, then offset), so the
// output order is stable across runs and package orderings.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range pkgs {
		out = append(out, RunPackage(pkg, analyzers)...)
	}
	sortDiagnostics(out)
	return out
}

// RunPackage applies every analyzer to one package.
func RunPackage(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Dirs:     pkg.Dirs,
			report:   func(d Diagnostic) { out = append(out, d) },
		}
		a.Run(pass)
	}
	sortDiagnostics(out)
	return out
}

func sortDiagnostics(ds []Diagnostic) {
	sort.SliceStable(ds, func(i, j int) bool {
		a, b := ds[i].Pos, ds[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return ds[i].Analyzer < ds[j].Analyzer
	})
}

// WalkStack traverses the ASTs under root in depth-first order, calling
// fn with each node and the stack of its ancestors (outermost first,
// not including the node itself). Returning false skips the node's
// children. It is the parent-aware walk several analyzers need for
// guard- and context-sensitive checks.
func WalkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		descend := fn(n, stack)
		if descend {
			stack = append(stack, n)
		}
		return descend
	})
}
