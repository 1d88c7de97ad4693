package gen_test

// End-to-end harness for the code generator: emit Go for an arbitrary
// program that is NOT part of the checked-in gencorpus, build it with the
// real Go toolchain inside this module, and run a differential check of
// the generated engine against the tree-walk and compiled engines across
// every mode. This is the proof that -emit-go output is self-contained:
// it needs only the focc module to compile, and registering it by source
// hash is enough for fo.MachineConfig{Engine: fo.EngineGenerated} to find
// it. Every engine is named explicitly and checked with Machine.Engine:
// the emitted code is registered, so the default would run it.

import (
	"bytes"
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"focc/fo"
	"focc/internal/gen"
)

// harnessSrc is deliberately absent from internal/corpus: the point is to
// prove codegen works for programs with no pre-registered generated code.
const harnessSrc = `
#include <stdio.h>
#include <string.h>

int tab[8];

struct span { int lo; int hi; };

int fill(int n) {
	int i;
	for (i = 0; i < n; i++)
		tab[i & 15] = i * 3;	/* i&15 still overruns tab for i >= 8 */
	return tab[0] + tab[7];
}

int clamp(struct span *s, int v) {
	if (v < s->lo)
		return s->lo;
	if (v > s->hi)
		return s->hi;
	return v;
}

int scan(const char *s) {
	int acc = 0;
	while (*s) {
		acc = acc * 31 + *s;
		s++;
	}
	return acc;
}

int main(void) {
	struct span sp;
	char buf[8];
	int r = fill(12);	/* out-of-bounds writes past tab[7] */
	sp.lo = 3;
	sp.hi = 40;
	r += clamp(&sp, 100);
	strcpy(buf, "harness");
	r += scan(buf);
	printf("r=%d\n", r);
	return r & 0xff;
}
`

const harnessFile = "harness.c"

// runnerTmpl is the main.go written next to the emitted file. It compiles
// the identical (filename, source) pair — so the source hash matches the
// init-time registration in the emitted file — and requires all three
// engines to agree on every observable in every mode.
const runnerTmpl = `package main

import (
	"bytes"
	"fmt"
	"os"
	"reflect"

	"focc/fo"
)

const fileName = %q
const src = %q

type obs struct {
	outcome  fo.Outcome
	value    int64
	exitCode int
	errText  string
	cycles   uint64
	out      string
	log      fo.LogSnapshot
}

func runOne(mode fo.Mode, engine fo.Engine) obs {
	prog, err := fo.Compile(fileName, src)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var buf bytes.Buffer
	m, err := prog.NewMachine(fo.MachineConfig{
		Mode:         mode,
		Out:          &buf,
		Log:          fo.NewEventLog(0),
		Engine:   engine,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "%%v: %%v\n", engine, err)
		os.Exit(1)
	}
	if got := m.Engine(); got != engine {
		fmt.Fprintf(os.Stderr, "machine runs %%v, want %%v\n", got, engine)
		os.Exit(1)
	}
	res := m.Run()
	o := obs{
		outcome:  res.Outcome,
		value:    res.Value.I,
		exitCode: res.ExitCode,
		cycles:   m.SimCycles(),
		out:      buf.String(),
		log:      m.Log().Snapshot(),
	}
	if res.Err != nil {
		o.errText = res.Err.Error()
	}
	return o
}

func main() {
	modes := []string{"standard", "bounds", "oblivious", "boundless", "redirect", "txterm", "rewind"}
	for _, name := range modes {
		mode, err := fo.ParseMode(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		ref := runOne(mode, fo.EngineTreeWalk)
		for _, engine := range []fo.Engine{fo.EngineCompiled, fo.EngineGenerated} {
			got := runOne(mode, engine)
			if !reflect.DeepEqual(got, ref) {
				fmt.Fprintf(os.Stderr, "%%s/%%v diverges:\n  tree-walk %%+v\n  %%-9v %%+v\n",
					name, engine, ref, engine, got)
				os.Exit(1)
			}
		}
	}
	fmt.Println("OK")
}
`

// TestEmitBuildAndDiff emits Go for harnessSrc into a temp dir under
// testdata (inside the module, so focc/... imports resolve; go's ./...
// wildcard never descends into testdata), builds and runs it with the
// real toolchain, and checks the three-engine differential passes.
func TestEmitBuildAndDiff(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes the go toolchain")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("go toolchain not on PATH: %v", err)
	}

	prog, err := fo.Compile(harnessFile, harnessSrc)
	if err != nil {
		t.Fatal(err)
	}
	code, err := gen.Emit(prog.Sema(), gen.Options{
		Package:  "main",
		Hash:     prog.SourceHash(),
		Register: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	dir, err := os.MkdirTemp("testdata", "harness-*")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })

	if err := os.WriteFile(filepath.Join(dir, "harness_gen.go"), code, 0o644); err != nil {
		t.Fatal(err)
	}
	runner := fmt.Sprintf(runnerTmpl, harnessFile, harnessSrc)
	if err := os.WriteFile(filepath.Join(dir, "main.go"), []byte(runner), 0o644); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(goBin, "run", "./"+dir)
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		t.Fatalf("go run: %v\nstdout: %s\nstderr: %s", err, out.String(), errb.String())
	}
	if got := out.String(); got != "OK\n" {
		t.Fatalf("runner output = %q, want OK", got)
	}
}

// TestEmitDeterministic pins that emission is a pure function of the
// analyzed program: two Emit calls must produce byte-identical output
// (the CI drift gate `go generate ./... && git diff --exit-code` depends
// on this), and the output must be syntactically valid Go.
func TestEmitDeterministic(t *testing.T) {
	prog, err := fo.Compile(harnessFile, harnessSrc)
	if err != nil {
		t.Fatal(err)
	}
	opt := gen.Options{Package: "harness", Prefix: "h_", Register: true}
	a, err := gen.Emit(prog.Sema(), opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := gen.Emit(prog.Sema(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two Emit calls over the same program differ")
	}
	if _, err := parser.ParseFile(token.NewFileSet(), "harness_gen.go", a, 0); err != nil {
		t.Fatalf("emitted code does not parse: %v", err)
	}
}
