// Command dipcvet runs the repo's contract analyzers — detrand,
// noalloc, hooksafe — over Go packages. It is a multichecker with two
// entry modes:
//
// Standalone, for CI and local runs:
//
//	go run ./cmd/dipcvet ./...
//
// loads the matched packages (via `go list -export`) and exits nonzero
// if any analyzer reports a diagnostic.
//
// Vet tool, speaking cmd/vet's unitchecker protocol:
//
//	go build -o dipcvet ./cmd/dipcvet
//	go vet -vettool=$PWD/dipcvet ./...
//
// where the vet driver invokes the binary once per package with a *.cfg
// file describing the unit (file list, export data of its imports), plus
// the -V=full and -flags handshakes it uses for caching and flag
// discovery.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/detrand"
	"repro/internal/analysis/hooksafe"
	"repro/internal/analysis/noalloc"
)

// analyzers is the dipcvet suite. Order is presentation only; each
// analyzer is independent.
var analyzers = []*analysis.Analyzer{
	detrand.Analyzer,
	noalloc.Analyzer,
	hooksafe.Analyzer,
}

func main() {
	args := os.Args[1:]
	var patterns []string
	for _, arg := range args {
		switch {
		case arg == "-V=full" || arg == "-V":
			printVersion()
			return
		case arg == "-flags":
			// The vet driver asks which flags the tool accepts; dipcvet
			// has none beyond the protocol itself.
			fmt.Println("[]")
			return
		case strings.HasSuffix(arg, ".cfg"):
			os.Exit(unitMode(arg))
		default:
			patterns = append(patterns, arg)
		}
	}
	os.Exit(standalone(patterns))
}

// printVersion answers the driver's -V=full handshake. The buildID line
// format is what cmd/go expects from a vet tool; content-hashing the
// executable makes vet's result cache invalidate when the tool changes.
func printVersion() {
	exe, err := os.Executable()
	if err != nil {
		exe = os.Args[0]
	}
	data, _ := os.ReadFile(exe)
	h := sha256.Sum256(data)
	fmt.Printf("%s version devel comments-go-here buildID=%02x\n", filepath.Base(exe), h)
}

// vetConfig is the subset of the unitchecker Config JSON that dipcvet
// consumes; unknown fields are ignored by encoding/json.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// unitMode analyzes the single package unit described by cfgFile and
// returns the process exit code (0 clean, 1 tool error, 2 diagnostics —
// the unitchecker convention).
func unitMode(cfgFile string) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dipcvet: %v\n", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "dipcvet: parsing %s: %v\n", cfgFile, err)
		return 1
	}

	// The driver expects a facts file for every unit, even an empty one:
	// dipcvet's analyzers are factless, so the file only keeps the vet
	// cache protocol happy.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintf(os.Stderr, "dipcvet: %v\n", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	pkg, err := analysis.LoadUnit(cfg.ImportPath, cfg.GoFiles, cfg.ImportMap, cfg.PackageFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dipcvet: %s: %v\n", cfg.ImportPath, err)
		return 1
	}
	if len(pkg.TypeErrors) > 0 {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		for _, e := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "%v\n", e)
		}
		return 1
	}
	diags := analysis.RunPackage(pkg, analyzers)
	printDiags(diags)
	if len(diags) > 0 {
		return 2
	}
	return 0
}

// standalone loads the pattern-matched packages from the current
// directory and runs the whole suite.
func standalone(patterns []string) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dipcvet: %v\n", err)
		return 1
	}
	bad := false
	for _, pkg := range pkgs {
		for _, e := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "%v\n", e)
			bad = true
		}
	}
	if bad {
		return 1
	}
	diags := analysis.RunAnalyzers(pkgs, analyzers)
	printDiags(diags)
	if len(diags) > 0 {
		return 2
	}
	return 0
}

func printDiags(diags []analysis.Diagnostic) {
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s (%s)\n", d.Pos, d.Message, d.Analyzer)
	}
}
