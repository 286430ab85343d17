package main

import (
	"testing"

	"repro/internal/analysis"
)

// TestDipcvetCleanTree asserts the repo's own tree carries zero
// outstanding dipcvet diagnostics: every wall-clock read, goroutine
// launch, map iteration, hot-path allocation and fault-hook mutation is
// either compliant or carries a reasoned //dipcvet: exemption. New
// violations fail this test (and the CI lint job) rather than landing
// silently.
func TestDipcvetCleanTree(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go list over the whole module; skipped in -short")
	}
	root, err := analysis.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := analysis.Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		if len(pkg.TypeErrors) > 0 {
			t.Fatalf("%s does not type-check: %v", pkg.Path, pkg.TypeErrors)
		}
	}
	for _, d := range analysis.RunAnalyzers(pkgs, analyzers) {
		t.Errorf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
	}
}
