package interp_test

// End-to-end semantics of the rewind-and-discard policy (core.ModeRewind):
// a request that trips a memory error is rolled back wholesale — global
// mutations, heap allocations, and frees all revert to the request
// boundary — the machine stays alive, and subsequent requests observe no
// trace of the failed one. Both engines are exercised (the differential
// tests in engine_diff_test.go additionally pin engine equality for
// rewind).

import (
	"testing"

	"focc/fo"
	"focc/internal/corpus"
)

func newRewindMachine(t *testing.T, engine fo.Engine) *fo.Machine {
	t.Helper()
	prog, err := fo.Compile(corpus.RewindFileName, corpus.SrcRewind)
	if err != nil {
		t.Fatal(err)
	}
	m, err := prog.NewMachine(fo.MachineConfig{Mode: fo.ModeRewind, Engine: engine})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Engine(); got != engine {
		t.Fatalf("machine runs %v, want %v", got, engine)
	}
	return m
}

func TestRewindDiscardsFailedRequest(t *testing.T) {
	for _, engine := range []fo.Engine{fo.EngineGenerated, fo.EngineTreeWalk} {
		t.Run(engine.String(), func(t *testing.T) {
			m := newRewindMachine(t, engine)

			// A clean request commits normally.
			if res := m.Call("handle", fo.Int(4)); res.Outcome != fo.OutcomeOK || res.Value.I != 1 {
				t.Fatalf("handle(4) = %v (%v), want OK/1", res.Outcome, res.Err)
			}

			// A poisoned request is rewound: the call fails, and every
			// mutation it made (counter++, state write, malloc) is undone.
			res := m.Call("handle", fo.Int(24))
			if res.Outcome != fo.OutcomeRewound {
				t.Fatalf("handle(24) = %v (%v), want rewound", res.Outcome, res.Err)
			}
			if res := m.Call("get_counter", fo.Int(0)); res.Value.I != 1 {
				t.Errorf("counter = %d after rewound request, want 1", res.Value.I)
			}
			if res := m.Call("get_state", fo.Int(0)); res.Value.I != 'a'+1 {
				t.Errorf("state[0] = %q after rewound request, want %q", res.Value.I, 'a'+1)
			}

			// The machine is alive and the next request picks up exactly
			// where the committed state left off.
			if res := m.Call("handle", fo.Int(4)); res.Outcome != fo.OutcomeOK || res.Value.I != 2 {
				t.Errorf("handle(4) after rewind = %v value %d, want OK/2", res.Outcome, res.Value.I)
			}
		})
	}
}

// A detected invalid free rolls the request back too (the libc
// freeInvalid path), undoing the request's earlier valid free.
func TestRewindOnInvalidFree(t *testing.T) {
	for _, engine := range []fo.Engine{fo.EngineGenerated, fo.EngineTreeWalk} {
		t.Run(engine.String(), func(t *testing.T) {
			m := newRewindMachine(t, engine)
			if res := m.Call("drop", fo.Int(0)); res.Outcome != fo.OutcomeOK || res.Value.I != 7 {
				t.Fatalf("drop(0) = %v (%v), want OK/7", res.Outcome, res.Err)
			}
			res := m.Call("drop", fo.Int(1))
			if res.Outcome != fo.OutcomeRewound {
				t.Fatalf("drop(1) = %v (%v), want rewound", res.Outcome, res.Err)
			}
			// Still serving.
			if res := m.Call("drop", fo.Int(0)); res.Outcome != fo.OutcomeOK {
				t.Errorf("drop(0) after rewind = %v (%v), want OK", res.Outcome, res.Err)
			}
		})
	}
}

// Rewound outcomes are not crashes: the serve layer keeps the instance.
func TestRewoundNotCrashed(t *testing.T) {
	if fo.OutcomeRewound.Crashed() {
		t.Error("OutcomeRewound.Crashed() = true, want false")
	}
	if fo.OutcomeRewound.String() != "rewound" {
		t.Errorf("OutcomeRewound.String() = %q, want rewound", fo.OutcomeRewound.String())
	}
}
