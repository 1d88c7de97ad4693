package interp_test

// BenchmarkDispatch measures the execution engines head-to-head over the
// integration corpus: the AST-walking reference evaluator (per-node type
// switches, per-execution identifier resolution) and the ahead-of-time
// generated Go code (internal/gencorpus — no interpretation dispatch at
// all). Same programs, same modes, same simulated-cycle counts — only
// the Go-level dispatch cost differs.
//
//	go test ./internal/interp -bench Dispatch -benchmem

import (
	"testing"

	"focc/internal/core"
	"focc/internal/interp"
)

var dispatchModes = []core.Mode{
	core.Standard,
	core.BoundsCheck,
	core.FailureOblivious,
}

func benchEngine(b *testing.B, src, engine string) {
	for _, mode := range dispatchModes {
		b.Run(mode.String(), func(b *testing.B) {
			prog := compileWithCPP(b, src)
			cfg := engineConfig(b, engine, src)
			cfg.Mode = mode
			m, err := interp.New(prog, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if res := m.Run(); res.Outcome != interp.OutcomeOK {
				b.Fatalf("warm-up: %v (%v)", res.Outcome, res.Err)
			}
			start := m.SimCycles()
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				if res := m.Call("main"); res.Outcome != interp.OutcomeOK {
					b.Fatalf("%v (%v)", res.Outcome, res.Err)
				}
			}
			b.StopTimer()
			// sim-ms/op is deterministic and engine-independent; benchdiff
			// checks it exactly, pinning cycle parity per engine in CI.
			simMs := interp.SimSeconds(m.SimCycles()-start) * 1e3 / float64(b.N)
			b.ReportMetric(simMs, "sim-ms/op")
		})
	}
}

func BenchmarkDispatchTreeWalk(b *testing.B) {
	for _, cp := range corpusSources() {
		b.Run(cp.Name, func(b *testing.B) { benchEngine(b, cp.Src, "tree-walk") })
	}
}

func BenchmarkDispatchCodegen(b *testing.B) {
	for _, cp := range corpusSources() {
		b.Run(cp.Name, func(b *testing.B) { benchEngine(b, cp.Src, "codegen") })
	}
}
