// Command focc compiles a focc C-dialect source file and runs its main()
// under one of the failure-oblivious computing modes:
//
//	focc -mode standard  prog.c    # unsafe C semantics
//	focc -mode bounds    prog.c    # CRED: terminate at first memory error
//	focc -mode oblivious prog.c    # failure-oblivious computing (default)
//	focc -mode boundless prog.c    # boundless memory blocks (§5.1)
//	focc -mode redirect  prog.c    # redirect-into-bounds (§5.1)
//	focc -mode txterm    prog.c    # transactional function termination (§5.2)
//	focc -mode rewind    prog.c    # rewind-and-discard at request boundaries
//
// With -log, every memory error the program attempts is streamed to stderr
// (the paper's §3 error log). The exit status is the program's exit code,
// or 2 on a crash/termination, or 1 on a compile error.
//
// With -emit-go, focc does not run the program; it translates it
// ahead-of-time to Go source implementing the generated execution engine
// (see internal/gen and DESIGN.md §16):
//
//	focc -emit-go -pkg mypkg -o prog_gen.go prog.c
//
// The emitted file registers itself by source hash at init time; linking
// it into a binary makes fo.Program.NewMachine run it by default for the
// same (filename, source) pair (fo.EngineGenerated requires it).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"focc/fo"
	"focc/internal/cc/astprint"
	"focc/internal/gen"
)

func main() {
	modeName := flag.String("mode", "oblivious", "execution mode: standard, bounds, oblivious, boundless, redirect, txterm, rewind")
	logErrors := flag.Bool("log", false, "stream memory-error events to stderr")
	maxSteps := flag.Uint64("max-steps", 0, "interpreter step budget (0 = default)")
	zeroGen := flag.Bool("zero-gen", false, "use the naive all-zeros manufactured-value generator (ablation)")
	dumpAST := flag.Bool("dump-ast", false, "print the analyzed AST instead of running")
	emitGoFlag := flag.Bool("emit-go", false, "emit the generated-Go execution engine instead of running")
	outPath := flag.String("o", "", "output file for -emit-go (default: input with .c replaced by _gen.go)")
	pkgName := flag.String("pkg", "main", "package name for -emit-go output")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: focc [flags] file.c")
		flag.Usage()
		os.Exit(1)
	}
	if *dumpAST {
		os.Exit(dump(flag.Arg(0)))
	}
	if *emitGoFlag {
		os.Exit(emitGo(flag.Arg(0), *outPath, *pkgName))
	}
	os.Exit(run(flag.Arg(0), *modeName, *logErrors, *zeroGen, *maxSteps))
}

// emitGo translates the program to Go source (the generated execution
// engine) and writes it to outPath.
func emitGo(path, outPath, pkg string) int {
	if !strings.HasSuffix(path, ".c") {
		fmt.Fprintf(os.Stderr, "focc: -emit-go input must be a .c file, got %q\n", path)
		return 1
	}
	src, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "focc:", err)
		return 1
	}
	prog, err := fo.Compile(path, string(src))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	code, err := gen.Emit(prog.Sema(), gen.Options{
		Package:  pkg,
		Hash:     prog.SourceHash(),
		Register: true,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "focc:", err)
		return 1
	}
	if outPath == "" {
		outPath = strings.TrimSuffix(path, ".c") + "_gen.go"
	}
	if err := os.WriteFile(outPath, code, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "focc:", err)
		return 1
	}
	return 0
}

// dump compiles the file and prints its analyzed AST.
func dump(path string) int {
	src, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "focc:", err)
		return 1
	}
	prog, err := fo.Compile(path, string(src))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	astprint.File(os.Stdout, prog.Sema().File)
	return 0
}

func run(path, modeName string, logErrors, zeroGen bool, maxSteps uint64) int {
	mode, err := fo.ParseMode(modeName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "focc:", err)
		return 1
	}
	src, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "focc:", err)
		return 1
	}
	prog, err := fo.Compile(path, string(src))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	log := fo.NewEventLog(0)
	if logErrors {
		log.Stream = os.Stderr
	}
	cfg := fo.MachineConfig{
		Mode:     mode,
		Out:      os.Stdout,
		Log:      log,
		MaxSteps: maxSteps,
	}
	if zeroGen {
		cfg.Gen = fo.NewZeroGenerator()
	}
	m, err := prog.NewMachine(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "focc:", err)
		return 1
	}
	res := m.Run()
	if logErrors {
		fmt.Fprintln(os.Stderr, "focc:", log.Summary())
	}
	switch res.Outcome {
	case fo.OutcomeOK:
		return int(res.Value.I) & 0xff
	case fo.OutcomeExit:
		return res.ExitCode & 0xff
	default:
		fmt.Fprintf(os.Stderr, "focc: program %s: %v\n", res.Outcome, res.Err)
		return 2
	}
}
