package interp_test

// This file pins the simulated-cycle cost of representative workloads to
// golden values. The fast-path work (unit-lookup caches, word-granularity
// libc spans, allocation-free checks) is required to leave the cost model
// untouched: wall-clock ns/op may drop, but sim cycles — and therefore the
// sim-ms/op metric that reproduces the paper's slowdown shapes — must not
// move. Any change to these numbers is a semantic change to the model and
// needs an explicit golden update plus a re-run of the figure benchmarks.

import (
	"io"
	"testing"

	"focc/fo"
	"focc/internal/core"
	"focc/internal/corpus"
	"focc/internal/interp"
)

type pinCall struct {
	fn  string
	arg int64
}

// goldenCycles holds the pinned per-mode cycle counts for the fixed call
// sequence below. Captured from the pre-fast-path implementation; the fast
// path — and the generated engine, which must charge cycles at exactly
// the same decision points as the tree-walk reference — must reproduce
// them exactly.
var goldenCycles = map[fo.Mode]uint64{
	fo.Standard:         1506,
	fo.BoundsCheck:      9934,
	fo.FailureOblivious: 10347,
	fo.Boundless:        10347,
	fo.Redirect:         10347,
	// Rewind charges identically to BoundsCheck: both stop the request at
	// the first invalid access, and the checkpoint machinery itself is
	// free under the cost model (its overhead is real-world, measured in
	// wall-clock benchmarks, not simulated cycles).
	fo.ModeRewind: 9934,
	// FOContext shares FailureOblivious's decision points exactly — same
	// checks, same continuation — and site priming is free under the cost
	// model, so its pin equals the FO row. Only the manufactured values
	// differ.
	fo.ModeFOContext: 10347,
}

func TestSimCyclesPinned(t *testing.T) {
	for _, engine := range []fo.Engine{fo.EngineTreeWalk, fo.EngineGenerated} {
		t.Run(engine.String(), func(t *testing.T) {
			testSimCyclesPinned(t, engine)
		})
	}
}

func testSimCyclesPinned(t *testing.T, engine fo.Engine) {
	prog, err := fo.Compile(corpus.PinFileName, corpus.PinSrc)
	if err != nil {
		t.Fatal(err)
	}
	calls := []pinCall{
		{"bulk", 0},
		{"scan", 0},
		{"ptrs", 0},
		{"oob", 6},  // in bounds
		{"oob", 24}, // continuation code past the end (checked modes)
	}
	for mode, want := range goldenCycles {
		t.Run(mode.String(), func(t *testing.T) {
			m, err := prog.NewMachine(fo.MachineConfig{Mode: mode, Engine: engine})
			if err != nil {
				t.Fatal(err)
			}
			if got := m.Engine(); got != engine {
				t.Fatalf("machine runs %v, want %v", got, engine)
			}
			for _, c := range calls {
				if c.fn == "oob" && c.arg > 8 && mode == fo.Standard {
					// Standard mode would read neighbouring stack bytes;
					// that is fine, but keep the call set identical across
					// checked modes and skip only the final OOB call where
					// BoundsCheck terminates the machine.
					continue
				}
				res := m.Call(c.fn, fo.Int(c.arg))
				if mode == fo.BoundsCheck && c.fn == "oob" && c.arg > 8 {
					if res.Outcome != fo.OutcomeMemErrorTermination {
						t.Fatalf("%s(%d): outcome %v, want memory-error termination", c.fn, c.arg, res.Outcome)
					}
					continue
				}
				if mode == fo.ModeRewind && c.fn == "oob" && c.arg > 8 {
					if res.Outcome != fo.OutcomeRewound {
						t.Fatalf("%s(%d): outcome %v, want rewound", c.fn, c.arg, res.Outcome)
					}
					continue
				}
				if res.Outcome != fo.OutcomeOK {
					t.Fatalf("%s(%d) under %v: %v (%v)", c.fn, c.arg, mode, res.Outcome, res.Err)
				}
			}
			if got := m.SimCycles(); got != want {
				t.Errorf("SimCycles = %d, want %d", got, want)
			}
		})
	}
}

// goldenIntConvCycles pins the cycle cost of the corpus.SrcIntConv call
// sequence (intConvCalls). The program makes no memory error, so every
// checked mode charges the same checks; Standard charges none.
var goldenIntConvCycles = map[core.Mode]uint64{
	core.Standard:         11257,
	core.BoundsCheck:      38707,
	core.FailureOblivious: 38707,
	core.ModeRewind:       38707,
	core.ModeFOContext:    38707,
}

// TestSimCyclesPinnedIntConv pins the typed integer paths of both engines
// to the same golden cycle counts.
func TestSimCyclesPinnedIntConv(t *testing.T) {
	for _, engine := range engineNames {
		for mode, want := range goldenIntConvCycles {
			t.Run(engine+"/"+mode.String(), func(t *testing.T) {
				cfg := engineConfig(t, engine, corpus.SrcIntConv)
				cfg.Mode = mode
				cfg.Out = io.Discard
				m, err := interp.New(compileWithCPP(t, corpus.SrcIntConv), cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range intConvCalls() {
					if res := m.Call(c.fn, interp.Int(c.args[0])); res.Outcome != interp.OutcomeOK {
						t.Fatalf("%s(%d): %v (%v)", c.fn, c.args[0], res.Outcome, res.Err)
					}
				}
				if got := m.SimCycles(); got != want {
					t.Errorf("SimCycles = %d, want %d", got, want)
				}
			})
		}
	}
}
