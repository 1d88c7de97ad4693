// Command gencorpus regenerates the checked-in, ahead-of-time generated
// Go code (see internal/gen) in two packages:
//
//   - internal/genservers: the five paper servers, and nothing else.
//     fo/srv links it, so every serving instance runs generated code by
//     default (fo.Program.NewMachine picks a registered generated engine).
//   - internal/gencorpus: the test corpus — the nine dispatch/integration
//     programs, the simulated-cycle pin workload (under both of its
//     compile identities), the engine-diff torture fixtures, the programs
//     tests and the root benchmarks compile under their own names
//     (corpus.FOPrograms), and a deterministic prefix of the randomized
//     expression differential.
//     Only tests and benchmarks link it.
//
// Each program registers itself by source hash at init time, so linking a
// package is enough to run its programs on the generated engine without
// compiling Go at test time.
//
// Regenerate with:
//
//	go generate ./...
//
// or directly:
//
//	go run ./cmd/gencorpus -out internal/gencorpus
//
// CI runs the former and fails on git diff, so the checked-in code can
// never drift from the emitter or the sources. This command must never
// import either generated package (a test pins that): a broken emitter
// then cannot produce code that blocks its own regeneration.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"focc/fo"
	"focc/internal/cc/sema"
	"focc/internal/corpus"
	"focc/internal/gen"
	"focc/internal/interp"
	"focc/internal/servers/apache"
	"focc/internal/servers/mc"
	"focc/internal/servers/mutt"
	"focc/internal/servers/pine"
	"focc/internal/servers/sendmail"
)

type fixture struct {
	// file is the output basename (without _gen.go); also the identifier
	// prefix, so it must be a valid Go identifier fragment.
	file string
	// server places the fixture in the servers package instead of the
	// test corpus.
	server   bool
	filename string // compile identity (part of the source hash)
	src      string
	compile  func(filename, src string) (*sema.Program, error)
}

func compileFO(filename, src string) (*sema.Program, error) {
	p, err := fo.Compile(filename, src)
	if err != nil {
		return nil, err
	}
	return p.Sema(), nil
}

func fixtures() []fixture {
	var fs []fixture
	for _, cp := range corpus.Programs() {
		fs = append(fs, fixture{
			file:     "corpus_" + toIdent(cp.Name),
			filename: corpus.FileName,
			src:      cp.Src,
			compile:  corpus.CompileCPP,
		})
	}
	fs = append(fs,
		// The pin workload's two compile identities: fo.Compile("pin.c", …)
		// in the simulated-cycle pin test, CompileCPP("t.c", …) in the
		// engine-diff memory-error test.
		fixture{file: "pin", filename: corpus.PinFileName, src: corpus.PinSrc, compile: compileFO},
		fixture{file: "pin_diff", filename: corpus.FileName, src: corpus.PinSrc, compile: corpus.CompileCPP},
		fixture{file: "diff_controlflow", filename: corpus.FileName, src: corpus.SrcControlFlow, compile: corpus.CompileCPP},
		fixture{file: "diff_errorpaths", filename: corpus.FileName, src: corpus.SrcErrorPaths, compile: corpus.CompileCPP},
		fixture{file: "diff_datashapes", filename: corpus.FileName, src: corpus.SrcDataShapes, compile: corpus.CompileCPP},
		fixture{file: "diff_batchepoch", filename: corpus.FileName, src: corpus.SrcBatchEpoch, compile: corpus.CompileCPP},
		fixture{file: "diff_intconv", filename: corpus.FileName, src: corpus.SrcIntConv, compile: corpus.CompileCPP},
		// The five paper servers, under their fo.Compile identities.
		fixture{file: "server_pine", server: true, filename: "pine.c", src: pine.Source, compile: compileFO},
		fixture{file: "server_apache", server: true, filename: "apache.c", src: apache.Source, compile: compileFO},
		fixture{file: "server_sendmail", server: true, filename: "sendmail.c", src: sendmail.Source, compile: compileFO},
		fixture{file: "server_mc", server: true, filename: "mc.c", src: mc.Source, compile: compileFO},
		fixture{file: "server_mutt", server: true, filename: "mutt.c", src: mutt.Source, compile: compileFO},
	)
	for _, p := range corpus.FOPrograms() {
		fs = append(fs, fixture{
			file:     strings.TrimSuffix(p.File, ".c"),
			filename: p.File,
			src:      p.Src,
			compile:  compileFO,
		})
	}
	for i, tr := range corpus.QuickTrials(corpus.QuickGenTrials) {
		fs = append(fs, fixture{
			file:     fmt.Sprintf("quick_%02d", i),
			filename: corpus.FileName,
			src:      tr.Src,
			compile:  corpus.CompilePlain,
		})
	}
	return fs
}

func toIdent(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'A' && r <= 'Z':
			out = append(out, r+('a'-'A'))
		case (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9'):
			out = append(out, r)
		}
	}
	return string(out)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("gencorpus: ")
	out := flag.String("out", ".", "output directory (the internal/gencorpus package); the servers go to its sibling genservers")
	flag.Parse()
	serversOut := filepath.Join(*out, "..", "genservers")

	for _, fx := range fixtures() {
		prog, err := fx.compile(fx.filename, fx.src)
		if err != nil {
			log.Fatalf("%s: compile: %v", fx.file, err)
		}
		pkg, dir := "gencorpus", *out
		if fx.server {
			pkg, dir = "genservers", serversOut
		}
		hash := interp.SourceHash(fx.filename, fx.src)
		code, err := gen.Emit(prog, gen.Options{
			Package:  pkg,
			Prefix:   fx.file + "_",
			Hash:     hash,
			Register: true,
		})
		if err != nil {
			log.Fatalf("%s: emit: %v", fx.file, err)
		}
		path := filepath.Join(dir, fx.file+"_gen.go")
		if err := os.WriteFile(path, code, 0o644); err != nil {
			log.Fatalf("%s: %v", fx.file, err)
		}
	}
	fmt.Println("gencorpus: regenerated")
}
