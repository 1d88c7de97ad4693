package main

import (
	"os/exec"
	"strings"
	"testing"
)

// TestNoDependencyOnGeneratedCode pins that the generator does not link
// the code it generates, directly or through any import: if it did, a
// broken emitter could write code that no longer compiles, and then the
// generator itself could not be built to regenerate it. fo/srv links
// internal/genservers, so the generator must not import fo/srv either.
func TestNoDependencyOnGeneratedCode(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes the go toolchain")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("go toolchain not on PATH: %v", err)
	}
	out, err := exec.Command(goBin, "list", "-deps", "focc/cmd/gencorpus").CombinedOutput()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, out)
	}
	for _, dep := range strings.Fields(string(out)) {
		switch dep {
		case "focc/internal/gencorpus", "focc/internal/genservers":
			t.Errorf("cmd/gencorpus depends on %s, a package it generates", dep)
		}
	}
}
