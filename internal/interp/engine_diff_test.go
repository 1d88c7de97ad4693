package interp_test

// Differential tests: the ahead-of-time generated-Go engine
// (internal/gencorpus) and the AST-walking reference engine must agree on
// EVERY observable — outcome, return value, error text, step count,
// simulated cycles, program output, and the memory-error event log — for
// every corpus program, every mode, and a set of torture programs that
// exercise the emitted control flow (goto/switch tables), the error
// paths, and the failure-oblivious continuation machinery.
// Simulated-cycle equality here is the enforcement of the cycle-charging
// invariant documented in internal/gen.

import (
	"bytes"
	"reflect"
	"testing"

	"focc/internal/core"
	"focc/internal/corpus"
	"focc/internal/interp"
)

var diffModes = []core.Mode{
	core.Standard,
	core.BoundsCheck,
	core.FailureOblivious,
	core.Boundless,
	core.Redirect,
	core.TxTerm,
	core.ModeRewind,
	core.ModeFOContext,
}

// diffCall is one host-level call in a differential scenario.
type diffCall struct {
	fn   string
	args []int64
}

// engineObs is everything observable about one call on one engine.
type engineObs struct {
	Outcome  interp.Outcome
	Value    int64
	ExitCode int
	Err      string
	Steps    uint64
}

// runEngine executes the call sequence on a fresh machine and returns the
// per-call observations plus the machine's final cycle count, output, and
// event-log snapshot.
func runEngine(t *testing.T, engine, src string, mode core.Mode,
	maxSteps uint64, calls []diffCall) ([]engineObs, uint64, string, core.Snapshot) {
	t.Helper()
	prog := compileWithCPP(t, src)
	var out bytes.Buffer
	cfg := engineConfig(t, engine, src)
	cfg.Mode = mode
	cfg.Out = &out
	cfg.MaxSteps = maxSteps
	m, err := interp.New(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Engine().String(); got != engine {
		t.Fatalf("machine runs %s, want %s", got, engine)
	}
	var obs []engineObs
	for _, c := range calls {
		args := make([]interp.Value, len(c.args))
		for i, a := range c.args {
			args[i] = interp.Int(a)
		}
		res := m.Call(c.fn, args...)
		o := engineObs{
			Outcome:  res.Outcome,
			Value:    res.Value.I,
			ExitCode: res.ExitCode,
			Steps:    res.Steps,
		}
		if res.Err != nil {
			o.Err = res.Err.Error()
		}
		obs = append(obs, o)
	}
	return obs, m.SimCycles(), out.String(), m.Log().Snapshot()
}

// assertEnginesAgree runs the scenario on both engines under every mode
// and requires identical observations, with the tree-walk reference
// engine as ground truth.
func assertEnginesAgree(t *testing.T, src string, maxSteps uint64, calls []diffCall) {
	t.Helper()
	for _, mode := range diffModes {
		t.Run(mode.String(), func(t *testing.T) {
			refObs, refCycles, refOut, refLog := runEngine(t, "tree-walk", src, mode, maxSteps, calls)
			for _, engine := range engineNames[1:] {
				eObs, eCycles, eOut, eLog := runEngine(t, engine, src, mode, maxSteps, calls)
				for i := range refObs {
					if refObs[i] != eObs[i] {
						t.Errorf("call %d (%s): tree-walk %+v, %s %+v",
							i, calls[i].fn, refObs[i], engine, eObs[i])
					}
				}
				if refCycles != eCycles {
					t.Errorf("sim cycles: tree-walk %d, %s %d", refCycles, engine, eCycles)
				}
				if refOut != eOut {
					t.Errorf("output: tree-walk %q, %s %q", refOut, engine, eOut)
				}
				if !reflect.DeepEqual(refLog, eLog) {
					t.Errorf("event log: tree-walk %+v, %s %+v", refLog, engine, eLog)
				}
			}
		})
	}
}

func TestEngineDiffCorpus(t *testing.T) {
	for _, cp := range corpusSources() {
		t.Run(cp.Name, func(t *testing.T) {
			assertEnginesAgree(t, cp.Src, 0, []diffCall{{fn: "main"}})
		})
	}
}

// TestEngineDiffMemoryErrors exercises the continuation paths: the pin
// workload's out-of-bounds reads and writes manufacture values and log
// events; all engines must produce the same values, cycles, and logs.
func TestEngineDiffMemoryErrors(t *testing.T) {
	assertEnginesAgree(t, corpus.PinSrc, 0, []diffCall{
		{fn: "bulk", args: []int64{0}},
		{fn: "scan", args: []int64{0}},
		{fn: "ptrs", args: []int64{0}},
		{fn: "oob", args: []int64{6}},
		{fn: "oob", args: []int64{24}},
		// After a crash (Standard: possible stack garbage; BoundsCheck:
		// termination) further calls must fail identically on all engines.
		{fn: "bulk", args: []int64{0}},
	})
}

// TestEngineDiffControlFlow tortures the statically-emitted control flow:
// goto into and out of nested blocks, switch dispatch with fallthrough
// and default, do-while, break/continue, and labeled statements.
func TestEngineDiffControlFlow(t *testing.T) {
	assertEnginesAgree(t, corpus.SrcControlFlow, 0, []diffCall{
		{fn: "collatz", args: []int64{27}},
		{fn: "classify", args: []int64{2}},
		{fn: "classify", args: []int64{7}},
		{fn: "weave", args: []int64{8}},
		{fn: "dispatch", args: []int64{40}},
	})
}

// TestEngineDiffErrorPaths pins the engines' fatal-error parity: division
// by zero, hangs under a small step budget, and exit().
func TestEngineDiffErrorPaths(t *testing.T) {
	t.Run("DivideByZero", func(t *testing.T) {
		assertEnginesAgree(t, corpus.SrcErrorPaths, 0, []diffCall{
			{fn: "divz", args: []int64{5}},
			{fn: "divz", args: []int64{0}},
			{fn: "divz", args: []int64{5}}, // dead machine on all engines
		})
	})
	t.Run("Hang", func(t *testing.T) {
		assertEnginesAgree(t, corpus.SrcErrorPaths, 20_000, []diffCall{
			{fn: "spin", args: []int64{0}},
		})
	})
	t.Run("Exit", func(t *testing.T) {
		assertEnginesAgree(t, corpus.SrcErrorPaths, 0, []diffCall{
			{fn: "quit", args: []int64{3}},
		})
	})
}

// TestEngineDiffDataShapes covers the value-shape paths: struct copies by
// pointer and by member, nested aggregates with initializers, string
// literals, pointer arithmetic and compound assignment, ternary, comma,
// casts, and printf output.
func TestEngineDiffDataShapes(t *testing.T) {
	assertEnginesAgree(t, corpus.SrcDataShapes, 0, []diffCall{
		{fn: "area"},
		{fn: "strings"},
		{fn: "mixed", args: []int64{7}},
	})
}

// intConvCalls drives every entry point of corpus.SrcIntConv across the
// boundary values of each integer width (and host arguments that need
// conversion to the narrow parameter types).
func intConvCalls() []diffCall {
	var calls []diffCall
	for _, k := range []int64{-1, 0, 1, 3, 7, 200, -129, 65537, -70000, 2147483647} {
		for _, fn := range []string{"casts", "compares", "arith", "wrap", "text",
			"c_of", "uc_of", "s_of", "us_of", "u_of", "l_of", "ul_of"} {
			calls = append(calls, diffCall{fn: fn, args: []int64{k}})
		}
	}
	return calls
}

// TestEngineDiffIntConv pins the typed integer code the generator emits
// (inline conversions, constant folding, mixed-type comparisons and
// arithmetic) to the tree-walk reference, and the zero-divisor slow path
// to its failure.
func TestEngineDiffIntConv(t *testing.T) {
	assertEnginesAgree(t, corpus.SrcIntConv, 0, intConvCalls())
	for _, fn := range []string{"divz", "modz", "zdiv"} {
		t.Run(fn, func(t *testing.T) {
			assertEnginesAgree(t, corpus.SrcIntConv, 0, []diffCall{
				{fn: fn, args: []int64{3}},
				{fn: fn, args: []int64{0}},
				{fn: fn, args: []int64{3}},
			})
		})
	}
}
