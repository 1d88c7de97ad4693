// Package gencorpus holds the checked-in, ahead-of-time generated Go
// code (the generated execution engine; see internal/gen and DESIGN.md
// §16) for the engine-equivalence corpus: the dispatch/integration
// programs, the simulated-cycle pin workload, the engine-diff torture
// fixtures, the programs tests and the root benchmarks compile under their
// own names (corpus.FOPrograms), and a deterministic prefix of the
// randomized expression differential. Each
// *_gen.go file registers its program by source hash at init time;
// importing this package (blank import is enough) makes every corpus
// program run on the generated engine by default (and
// fo.MachineConfig{Engine: fo.EngineGenerated} work) without compiling Go
// at test time. Only tests and benchmarks import it.
//
// The five paper servers' generated code lives in the sibling package
// internal/genservers, which fo/srv links for serving; the directive
// below regenerates both.
//
// Never edit the *_gen.go files; regenerate with `go generate ./...`
// (CI fails on drift).
package gencorpus

//go:generate go run focc/cmd/gencorpus -out .
