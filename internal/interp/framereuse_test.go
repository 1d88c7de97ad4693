package interp_test

// Frame recycling must be invisible: corpus.SrcFrameReuse drives the
// cases where a recycled frame could be named by a pointer (a dangling
// &local, pointers forged into live and popped frames, deep recursion
// mixing recyclable and non-recyclable frames), and every observable —
// outcome, value, steps, cycles, the event log and its recent events —
// must equal testdata/framereuse.golden, which was recorded from the
// tree-walk engine before frames were recycled at all. The golden is a
// fixed file: the engines under test must never write it. If the fixture
// or the call list changes, re-record it from a tree without recycling
// (the commit before "Recycle returned stack frames ..." with the new
// fixture copied in) and commit it on its own.

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"focc/internal/core"
	"focc/internal/corpus"
	"focc/internal/interp"
)

const frameReuseGolden = "testdata/framereuse.golden"

// frameReuseCalls reruns each scenario so later calls find spare frames.
var frameReuseCalls = []diffCall{
	{fn: "dangle", args: []int64{5}},
	{fn: "dangle", args: []int64{6}},
	{fn: "forged", args: []int64{7}},
	{fn: "forged", args: []int64{8}},
	{fn: "popped", args: []int64{9}},
	{fn: "deep", args: []int64{120}},
	{fn: "deep", args: []int64{120}},
	{fn: "dangle", args: []int64{4}},
	{fn: "forged", args: []int64{2}},
}

// eventFields strips core.Event's String method so the dump shows every
// field.
type eventFields core.Event

// frameReuseDump renders every observable of the call sequence on one
// engine, mode by mode.
func frameReuseDump(t *testing.T, engine string) string {
	t.Helper()
	var b strings.Builder
	for _, mode := range diffModes {
		var out bytes.Buffer
		cfg := engineConfig(t, engine, corpus.SrcFrameReuse)
		cfg.Mode = mode
		cfg.Out = &out
		m, err := interp.New(compileWithCPP(t, corpus.SrcFrameReuse), cfg)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "mode %s\n", mode)
		for _, c := range frameReuseCalls {
			args := make([]interp.Value, len(c.args))
			for i, a := range c.args {
				args[i] = interp.Int(a)
			}
			res := m.Call(c.fn, args...)
			fmt.Fprintf(&b, "call %s%v: %v %d exit=%d steps=%d err=%v\n",
				c.fn, c.args, res.Outcome, res.Value.I, res.ExitCode, res.Steps, res.Err)
		}
		fmt.Fprintf(&b, "cycles %d\noutput %q\nsnapshot %+v\n", m.SimCycles(), out.String(), m.Log().Snapshot())
		for _, e := range m.Log().Recent() {
			fmt.Fprintf(&b, "event %+v\n", eventFields(e))
		}
	}
	return b.String()
}

func TestFrameReuseGolden(t *testing.T) {
	want, err := os.ReadFile(frameReuseGolden)
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range engineNames {
		t.Run(engine, func(t *testing.T) {
			if got := frameReuseDump(t, engine); got != string(want) {
				t.Errorf("observables differ from %s:\n%s", frameReuseGolden, firstDiff(got, string(want)))
			}
		})
	}
}

// firstDiff reports the first differing line of got against want.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got  %s\n want %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}

func TestEngineDiffFrameReuse(t *testing.T) {
	assertEnginesAgree(t, corpus.SrcFrameReuse, 0, frameReuseCalls)
}
