package hooksafe_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/hooksafe"
)

func TestHooksafe(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go list; skipped in -short")
	}
	analysistest.Run(t, hooksafe.Analyzer, "hooksafetest", "faults", "oltp")
}
