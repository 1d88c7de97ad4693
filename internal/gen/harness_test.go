package gen_test

// End-to-end harness for the code generator: emit Go for programs that
// are NOT part of the checked-in gencorpus, build them with the real Go
// toolchain inside this module, and run a differential check of the
// generated engine against the tree-walk reference. The programs are
// harnessSrc, diffed across every mode, and the randomized expression
// trials that have no checked-in generated code (corpus.QuickGenTrials up
// to corpus.QuickTrialCount), diffed as quick_test.go diffs the checked-in
// prefix. This is the proof that -emit-go output is self-contained: it
// needs only the focc module to compile, and registering it by source
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
	"focc/internal/corpus"
	"focc/internal/gen"
	"focc/internal/interp"
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

// runnerTmpl is the main.go written next to the emitted files. It
// compiles the identical (filename, source) pairs — so the source hashes
// match the init-time registrations in the emitted files — and requires
// both engines to agree on every observable: for harnessSrc in every
// mode, for each emitted trial on outcome, value, cycles and event log.
const runnerTmpl = `package main

import (
	"bytes"
	"fmt"
	"os"
	"reflect"

	"focc/fo"
	"focc/internal/core"
	"focc/internal/corpus"
	"focc/internal/interp"
	"focc/internal/libc"
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
		if got := runOne(mode, fo.EngineGenerated); !reflect.DeepEqual(got, ref) {
			fmt.Fprintf(os.Stderr, "%%s/codegen diverges:\n  tree-walk %%+v\n  codegen   %%+v\n",
				name, ref, got)
			os.Exit(1)
		}
	}
	trials := corpus.QuickTrials(corpus.QuickTrialCount)
	for i := corpus.QuickGenTrials; i < len(trials); i++ {
		tr := trials[i]
		ref := runTrial(i, tr, interp.EngineTreeWalk)
		if got := runTrial(i, tr, interp.EngineGenerated); !reflect.DeepEqual(got, ref) {
			fmt.Fprintf(os.Stderr, "trial %%d diverges:\n  tree-walk %%+v\n  codegen   %%+v\nsrc: %%s\n",
				i, ref, got, tr.Src)
			os.Exit(1)
		}
	}
	fmt.Println("OK")
}

type trialObs struct {
	outcome interp.Outcome
	value   int64
	cycles  uint64
	log     core.Snapshot
}

// runTrial runs one randomized expression trial as quick_test.go does:
// compiled through corpus.CompilePlain under corpus.FileName, f(A, B, C)
// under BoundsCheck.
func runTrial(i int, tr corpus.QuickTrial, engine interp.Engine) trialObs {
	prog, err := corpus.CompilePlain(corpus.FileName, tr.Src)
	if err != nil {
		fmt.Fprintf(os.Stderr, "trial %%d: %%v\n", i, err)
		os.Exit(1)
	}
	cfg := interp.Config{Mode: core.BoundsCheck, Builtins: libc.Builtins(), Engine: engine}
	if engine == interp.EngineGenerated {
		gp, ok := interp.GeneratedFor(interp.SourceHash(corpus.FileName, tr.Src))
		if !ok {
			fmt.Fprintf(os.Stderr, "trial %%d: no generated code registered\n", i)
			os.Exit(1)
		}
		cfg.Generated = gp
	}
	m, err := interp.New(prog, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "trial %%d (%%v): %%v\n", i, engine, err)
		os.Exit(1)
	}
	if got := m.Engine(); got != engine {
		fmt.Fprintf(os.Stderr, "trial %%d: machine runs %%v, want %%v\n", i, got, engine)
		os.Exit(1)
	}
	res := m.Call("f", interp.Int(int64(tr.A)), interp.Int(int64(tr.B)), interp.Int(int64(tr.C)))
	return trialObs{res.Outcome, res.Value.I, m.SimCycles(), m.Log().Snapshot()}
}
`

// TestEmitBuildAndDiff emits Go for harnessSrc and for every randomized
// expression trial without checked-in generated code into a temp dir
// under testdata (inside the module, so focc/... imports resolve; go's
// ./... wildcard never descends into testdata), builds and runs it with
// the real toolchain, and checks the two-engine differential passes.
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
	trials := corpus.QuickTrials(corpus.QuickTrialCount)
	for i := corpus.QuickGenTrials; i < len(trials); i++ {
		src := trials[i].Src
		sp, err := corpus.CompilePlain(corpus.FileName, src)
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		prefix := fmt.Sprintf("quick_%03d", i)
		code, err := gen.Emit(sp, gen.Options{
			Package:  "main",
			Prefix:   prefix + "_",
			Hash:     interp.SourceHash(corpus.FileName, src),
			Register: true,
		})
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		if err := os.WriteFile(filepath.Join(dir, prefix+"_gen.go"), code, 0o644); err != nil {
			t.Fatal(err)
		}
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
