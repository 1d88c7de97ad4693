package interp_test

import (
	"testing"

	"focc/internal/core"
	"focc/internal/corpus"
	"focc/internal/interp"
	"focc/internal/libc"
)

// Integration-scale C programs executed under BoundsCheck (every access
// checked, so any interpreter or libc slip is loud) and under
// FailureOblivious (which must behave identically on memory-error-free
// programs — the paper's baseline sanity requirement). Each program runs
// on both execution engines: the AST-walking reference evaluator and the
// ahead-of-time generated Go code (internal/gencorpus);
// engine_diff_test.go additionally asserts the engines agree on every
// observable, per mode.

// corpusProgram is one corpus entry, shared by the integration tests, the
// engine differential tests, and the dispatch benchmarks. The sources
// live in internal/corpus so cmd/gencorpus sees the same bytes.
type corpusProgram = corpus.Program

func corpusSources() []corpusProgram { return corpus.Programs() }

// engineNames lists the execution engines in the order the differential
// harnesses exercise them, the tree-walk reference first.
var engineNames = []string{"tree-walk", "codegen"}

// engineConfig returns a Config naming the engine (by its Engine.String
// name) for src, which must be compiled under corpus.FileName (the
// codegen engine resolves by that source-hash identity).
func engineConfig(t testing.TB, engine string, src string) interp.Config {
	t.Helper()
	cfg := interp.Config{Builtins: libc.Builtins()}
	switch engine {
	case "tree-walk":
		cfg.Engine = interp.EngineTreeWalk
	case "codegen":
		cfg.Engine = interp.EngineGenerated
		cfg.Generated = generatedFor(t, src)
	default:
		t.Fatalf("unknown engine %q", engine)
	}
	return cfg
}

// runBoth executes src under the checked and unchecked modes, on every
// execution engine, asserting a clean run and the expected main() result
// everywhere.
func runBoth(t *testing.T, src string, want int64) {
	t.Helper()
	for _, mode := range []core.Mode{core.BoundsCheck, core.FailureOblivious, core.Standard} {
		for _, engine := range engineNames {
			prog := compileWithCPP(t, src)
			cfg := engineConfig(t, engine, src)
			cfg.Mode = mode
			m, err := interp.New(prog, cfg)
			if err != nil {
				t.Fatal(err)
			}
			res := m.Run()
			if res.Outcome != interp.OutcomeOK {
				t.Fatalf("%v/%s: outcome = %v (%v)", mode, engine, res.Outcome, res.Err)
			}
			if res.Value.I != want {
				t.Fatalf("%v/%s: main() = %d, want %d", mode, engine, res.Value.I, want)
			}
			if mode != core.Standard && m.Log().Total() != 0 {
				t.Errorf("%v/%s: clean program logged %d memory errors", mode, engine, m.Log().Total())
			}
		}
	}
}

func TestCorpusPrograms(t *testing.T) {
	for _, cp := range corpusSources() {
		t.Run(cp.Name, func(t *testing.T) {
			runBoth(t, cp.Src, cp.Want)
		})
	}
}
