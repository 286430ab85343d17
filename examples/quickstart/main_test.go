package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestQuickstartAddRoundTrip(t *testing.T) {
	var out bytes.Buffer
	if sum := demo(&out); sum != 42 {
		t.Fatalf("add(40, 2) = %d, want 42", sum)
	}
	got := out.String()
	for _, want := range []string{"published /run/calc.sock", "add(40, 2) = 42", "simulation finished"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}
