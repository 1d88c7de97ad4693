package interp_test

// Batch-granularity checkpoint epochs (Machine.BeginBatchEpoch /
// EndBatchEpoch): a serving engine that coalesces several requests onto
// one dispatch brackets them in one checkpoint instead of one per call.
// These tests pin the epoch contract on both execution engines —
// idempotent re-arm while open, commit on EndBatchEpoch, rollback
// granularity coarsened to the epoch (a rewind discards every call made
// under it, not just the failed one), and no-op outside ModeRewind.

import (
	"testing"

	"focc/internal/core"
	"focc/internal/corpus"
	"focc/internal/interp"
)

func newEpochMachine(t *testing.T, engine string, mode core.Mode) *interp.Machine {
	t.Helper()
	prog := compileWithCPP(t, corpus.SrcBatchEpoch)
	cfg := engineConfig(t, engine, corpus.SrcBatchEpoch)
	cfg.Mode = mode
	m, err := interp.New(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// A clean batch commits exactly once: calls inside the epoch see each
// other's mutations, EndBatchEpoch makes them durable, and the simulated
// cycle count stays bit-identical across engines (the epoch is host-level
// bookkeeping, not guest work).
func TestBatchEpochCommitsCleanBatch(t *testing.T) {
	var refCycles uint64
	for i, engine := range engineNames {
		t.Run(engine, func(t *testing.T) {
			m := newEpochMachine(t, engine, core.ModeRewind)
			m.BeginBatchEpoch()
			if res := m.Call("bump", interp.Int(4)); res.Outcome != interp.OutcomeOK || res.Value.I != 1 {
				t.Fatalf("bump#1 = %v/%d (%v), want OK/1", res.Outcome, res.Value.I, res.Err)
			}
			m.BeginBatchEpoch() // idempotent while open
			if res := m.Call("bump", interp.Int(4)); res.Outcome != interp.OutcomeOK || res.Value.I != 2 {
				t.Fatalf("bump#2 = %v/%d (%v), want OK/2", res.Outcome, res.Value.I, res.Err)
			}
			m.EndBatchEpoch()
			if res := m.Call("get", interp.Int(0)); res.Value.I != 2 {
				t.Errorf("counter after committed batch = %d, want 2", res.Value.I)
			}
			if i == 0 {
				refCycles = m.SimCycles()
			} else if c := m.SimCycles(); c != refCycles {
				t.Errorf("sim cycles = %d, want %d (parity with %s)", c, refCycles, engineNames[0])
			}
		})
	}
}

// A rewound call consumes the epoch and rolls back to the epoch boundary:
// the failed call AND its clean predecessors under the same epoch are
// discarded — the documented coarsening that batching trades for one
// checkpoint per batch. Re-arming starts a fresh epoch and the machine
// keeps serving.
func TestBatchEpochRewindRollsBackWholeEpoch(t *testing.T) {
	for _, engine := range engineNames {
		t.Run(engine, func(t *testing.T) {
			m := newEpochMachine(t, engine, core.ModeRewind)
			m.BeginBatchEpoch()
			if res := m.Call("bump", interp.Int(4)); res.Outcome != interp.OutcomeOK || res.Value.I != 1 {
				t.Fatalf("bump#1 = %v/%d (%v), want OK/1", res.Outcome, res.Value.I, res.Err)
			}
			if res := m.Call("bump", interp.Int(24)); res.Outcome != interp.OutcomeRewound {
				t.Fatalf("bump(24) = %v (%v), want rewound", res.Outcome, res.Err)
			}
			// The epoch is consumed: both bumps are gone.
			if res := m.Call("get", interp.Int(0)); res.Value.I != 0 {
				t.Errorf("counter after epoch rewind = %d, want 0 (whole epoch discarded)", res.Value.I)
			}
			// Re-arm and serve on.
			m.BeginBatchEpoch()
			if res := m.Call("bump", interp.Int(4)); res.Outcome != interp.OutcomeOK || res.Value.I != 1 {
				t.Fatalf("bump after re-arm = %v/%d (%v), want OK/1", res.Outcome, res.Value.I, res.Err)
			}
			m.EndBatchEpoch()
			if res := m.Call("get", interp.Int(0)); res.Value.I != 1 {
				t.Errorf("counter after re-armed batch = %d, want 1", res.Value.I)
			}
		})
	}
}

// Outside ModeRewind the epoch is a no-op: BeginBatchEpoch arms nothing,
// EndBatchEpoch commits nothing, and the mode's own continuation policy
// (here failure-oblivious write discarding) is untouched.
func TestBatchEpochNoopOutsideRewindMode(t *testing.T) {
	for _, engine := range engineNames {
		t.Run(engine, func(t *testing.T) {
			m := newEpochMachine(t, engine, core.FailureOblivious)
			m.BeginBatchEpoch()
			if res := m.Call("bump", interp.Int(24)); res.Outcome != interp.OutcomeOK || res.Value.I != 1 {
				t.Fatalf("bump(24) = %v/%d (%v), want OK/1 (FO discards the overrun)", res.Outcome, res.Value.I, res.Err)
			}
			m.EndBatchEpoch()
			if res := m.Call("get", interp.Int(0)); res.Value.I != 1 {
				t.Errorf("counter = %d, want 1", res.Value.I)
			}
		})
	}
}
