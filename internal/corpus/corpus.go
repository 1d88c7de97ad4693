// Package corpus is the shared program corpus and compile pipeline for
// the engine-equivalence harnesses. The differential tests, the dispatch
// benchmarks, and cmd/gencorpus (the ahead-of-time Go code generator for
// the checked-in generated engine) must all see byte-identical
// (filename, source) pairs compiled through byte-identical pipelines:
// generated code bakes in source positions and registers under
// interp.SourceHash(filename, src), so any drift between what the tests
// compile and what the generator compiled silently unregisters the
// generated engine. Centralizing both the sources and the two compile
// helpers here makes that identity structural.
package corpus

import (
	"fmt"
	"math/rand"
	"strings"

	"focc/internal/cc/cpp"
	"focc/internal/cc/parser"
	"focc/internal/cc/sema"
	"focc/internal/libc"
)

// Program is one corpus entry: a program whose main() must return Want
// under every engine and every checked mode.
type Program struct {
	Name string
	Src  string
	Want int64
}

// Programs returns the dispatch/integration corpus shared by
// TestCorpusPrograms, TestEngineDiffCorpus, BenchmarkDispatch*, and
// cmd/gencorpus. All entries compile through CompileCPP under FileName.
func Programs() []Program {
	return []Program{
		{Name: "LinkedList", Want: 55, Src: SrcLinkedList},
		{Name: "HashTable", Want: 1, Src: SrcHashTable},
		{Name: "Quicksort", Want: 1, Src: SrcQuicksort},
		{Name: "Tokenizer", Want: 0, Src: SrcTokenizer},
		{Name: "MatrixMultiply", Want: 112, Src: SrcMatrixMultiply},
		{Name: "StringRotate", Want: 1, Src: SrcStringRotate},
		{Name: "BitTricks", Want: 0, Src: SrcBitTricks},
		{Name: "Base64", Want: 0, Src: SrcBase64},
		{Name: "Sieve", Want: 168, Src: SrcSieve},
	}
}

// FileName is the filename identity under which every in-package corpus
// source compiles (the historical test helper name).
const FileName = "t.c"

// PinFileName is the identity the simulated-cycle pin test compiles
// PinSrc under (via fo.Compile); the engine-diff tests additionally
// compile PinSrc under FileName via CompileCPP.
const PinFileName = "pin.c"

// RewindFileName and RequestArgsFileName are the fo.Compile identities of
// SrcRewind and SrcRequestArgs.
const (
	RewindFileName      = "rewind.c"
	RequestArgsFileName = "args.c"
)

// Named is a source together with the file name it compiles under.
type Named struct {
	File string
	Src  string
}

// FOPrograms lists the sources that tests and the root benchmarks compile
// through fo.Compile under their own file names; cmd/gencorpus generates
// code for each, so they run on the generated engine as well as on the
// tree-walk reference.
func FOPrograms() []Named {
	return []Named{
		{RewindFileName, SrcRewind},
		{RequestArgsFileName, SrcRequestArgs},
		{ScanFileName, SrcScan},
		{ChurnFileName, SrcChurn},
		{CheckpointFileName, SrcCheckpoint},
		{BenchServeFileName, SrcBenchServe},
	}
}

// CompilePlain parses and analyzes source that needs no preprocessing
// (parser.ParseString + libc prototypes) — the pipeline of the interp
// tests' compile helper.
func CompilePlain(filename, src string) (*sema.Program, error) {
	f, errs := parser.ParseString(filename, src)
	if len(errs) > 0 {
		return nil, fmt.Errorf("parse: %v", errs[0])
	}
	prog, serrs := sema.Analyze(f, libc.Prototypes())
	if len(serrs) > 0 {
		return nil, fmt.Errorf("analyze: %v", serrs[0])
	}
	return prog, nil
}

// CompileCPP preprocesses with the test prelude (NULL + size_t mapped
// for the standard headers), then parses and analyzes — the pipeline of
// the interp tests' compileWithCPP helper. The prelude must never drift:
// it is part of the generated-code identity.
func CompileCPP(filename, src string) (*sema.Program, error) {
	prelude := "#ifndef _P\n#define _P\n#define NULL ((void*)0)\ntypedef unsigned long size_t;\n#endif\n"
	lines, errs := cpp.Preprocess(filename, src, cpp.Options{
		Includes: map[string]string{
			"string.h": prelude,
			"stdio.h":  prelude,
			"stdlib.h": prelude,
			"ctype.h":  prelude,
		},
	})
	if len(errs) > 0 {
		return nil, fmt.Errorf("cpp: %v", errs[0])
	}
	f, perrs := parser.Parse(filename, lines)
	if len(perrs) > 0 {
		return nil, fmt.Errorf("parse: %v", perrs[0])
	}
	prog, serrs := sema.Analyze(f, libc.Prototypes())
	if len(serrs) > 0 {
		return nil, fmt.Errorf("analyze: %v", serrs[0])
	}
	return prog, nil
}

// --- Randomized expression differential (quick_test.go) ---

// QuickTrial is one deterministic trial of the randomized expression
// differential: a generated C function, the inputs, and the expected
// value under the Go reference semantics (C int: 32-bit, wrapping).
type QuickTrial struct {
	A, B, C int32
	Want    int32
	Src     string
}

// QuickSeed and QuickTrialCount pin the deterministic trial sequence
// shared by quick_test.go and cmd/gencorpus.
const (
	QuickSeed       = 20040612
	QuickTrialCount = 250
	// QuickGenTrials is how many of the trials get ahead-of-time
	// generated code checked in (a deterministic prefix; generating all
	// 250 would bloat internal/gencorpus for no extra coverage class).
	QuickGenTrials = 48
)

// QuickTrials returns the first n trials of the deterministic sequence.
// Trials compile through CompilePlain under FileName.
func QuickTrials(n int) []QuickTrial {
	rng := rand.New(rand.NewSource(QuickSeed))
	out := make([]QuickTrial, 0, n)
	for i := 0; i < n; i++ {
		a := int32(rng.Intn(2001) - 1000)
		b := int32(rng.Intn(2001) - 1000)
		c := int32(rng.Intn(2001) - 1000)
		g := &exprGen{rng: rng}
		want := g.genExpr(4, a, b, c)
		out = append(out, QuickTrial{
			A: a, B: b, C: c, Want: want,
			Src: fmt.Sprintf("int f(int a, int b, int c) { return %s; }", g.sb.String()),
		})
	}
	return out
}

type exprGen struct {
	rng *rand.Rand
	sb  strings.Builder
}

// genExpr emits a random expression of bounded depth and returns its
// value under the reference semantics for variable values a, b, c.
func (g *exprGen) genExpr(depth int, a, b, c int32) int32 {
	if depth <= 0 || g.rng.Intn(4) == 0 {
		switch g.rng.Intn(4) {
		case 0:
			v := int32(g.rng.Intn(201) - 100)
			if v < 0 {
				fmt.Fprintf(&g.sb, "(%d)", v)
			} else {
				fmt.Fprintf(&g.sb, "%d", v)
			}
			return v
		case 1:
			g.sb.WriteString("a")
			return a
		case 2:
			g.sb.WriteString("b")
			return b
		default:
			g.sb.WriteString("c")
			return c
		}
	}
	switch g.rng.Intn(14) {
	case 0:
		g.sb.WriteString("(")
		x := g.genExpr(depth-1, a, b, c)
		g.sb.WriteString(" + ")
		y := g.genExpr(depth-1, a, b, c)
		g.sb.WriteString(")")
		return x + y
	case 1:
		g.sb.WriteString("(")
		x := g.genExpr(depth-1, a, b, c)
		g.sb.WriteString(" - ")
		y := g.genExpr(depth-1, a, b, c)
		g.sb.WriteString(")")
		return x - y
	case 2:
		g.sb.WriteString("(")
		x := g.genExpr(depth-1, a, b, c)
		g.sb.WriteString(" * ")
		y := g.genExpr(depth-1, a, b, c)
		g.sb.WriteString(")")
		return x * y
	case 3:
		// Division by a non-zero constant only.
		g.sb.WriteString("(")
		x := g.genExpr(depth-1, a, b, c)
		d := int32(g.rng.Intn(9) + 1)
		fmt.Fprintf(&g.sb, " / %d)", d)
		return x / d
	case 4:
		g.sb.WriteString("(")
		x := g.genExpr(depth-1, a, b, c)
		d := int32(g.rng.Intn(9) + 1)
		fmt.Fprintf(&g.sb, " %% %d)", d)
		return x % d
	case 5:
		g.sb.WriteString("(")
		x := g.genExpr(depth-1, a, b, c)
		g.sb.WriteString(" & ")
		y := g.genExpr(depth-1, a, b, c)
		g.sb.WriteString(")")
		return x & y
	case 6:
		g.sb.WriteString("(")
		x := g.genExpr(depth-1, a, b, c)
		g.sb.WriteString(" | ")
		y := g.genExpr(depth-1, a, b, c)
		g.sb.WriteString(")")
		return x | y
	case 7:
		g.sb.WriteString("(")
		x := g.genExpr(depth-1, a, b, c)
		g.sb.WriteString(" ^ ")
		y := g.genExpr(depth-1, a, b, c)
		g.sb.WriteString(")")
		return x ^ y
	case 8:
		// Shift by a small constant.
		g.sb.WriteString("(")
		x := g.genExpr(depth-1, a, b, c)
		s := uint(g.rng.Intn(6))
		fmt.Fprintf(&g.sb, " << %d)", s)
		return x << s
	case 9:
		g.sb.WriteString("(")
		x := g.genExpr(depth-1, a, b, c)
		s := uint(g.rng.Intn(6))
		fmt.Fprintf(&g.sb, " >> %d)", s)
		return x >> s
	case 10:
		g.sb.WriteString("(")
		x := g.genExpr(depth-1, a, b, c)
		g.sb.WriteString(" < ")
		y := g.genExpr(depth-1, a, b, c)
		g.sb.WriteString(")")
		if x < y {
			return 1
		}
		return 0
	case 11:
		g.sb.WriteString("(")
		x := g.genExpr(depth-1, a, b, c)
		g.sb.WriteString(" == ")
		y := g.genExpr(depth-1, a, b, c)
		g.sb.WriteString(")")
		if x == y {
			return 1
		}
		return 0
	case 12:
		g.sb.WriteString("(-")
		x := g.genExpr(depth-1, a, b, c)
		g.sb.WriteString(")")
		return -x
	default:
		g.sb.WriteString("(~")
		x := g.genExpr(depth-1, a, b, c)
		g.sb.WriteString(")")
		return ^x
	}
}
