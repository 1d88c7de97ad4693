package interp_test

import (
	"testing"

	"focc/fo"
	"focc/internal/corpus"
)

// TestRequestArgsReleasedOverCorruptHeader: in Standard mode an overflow
// that smashes a request argument's header marks the heap corrupted. The
// argument is still released at the end of the request scope, and the
// corruption stays detected: the next malloc aborts as glibc would.
func TestRequestArgsReleasedOverCorruptHeader(t *testing.T) {
	prog, err := fo.Compile(corpus.RequestArgsFileName, corpus.SrcRequestArgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []fo.Engine{fo.EngineGenerated, fo.EngineTreeWalk} {
		t.Run(engine.String(), func(t *testing.T) {
			m, err := prog.NewMachine(fo.MachineConfig{Mode: fo.Standard, Engine: engine})
			if err != nil {
				t.Fatal(err)
			}
			if got := m.Engine(); got != engine {
				t.Fatalf("machine runs %v, want %v", got, engine)
			}
			as := m.AddressSpace()
			if res := m.Call("init"); res.Outcome != fo.OutcomeOK || res.Value.I != 1 {
				t.Fatalf("init = %v (%v)", res.Outcome, res.Err)
			}
			units, top := as.HeapExtent()
			m.BeginRequestArgs()
			if res := m.Call("smash", m.NewCString("x")); res.Outcome != fo.OutcomeOK {
				t.Fatalf("smash = %v (%v)", res.Outcome, res.Err)
			}
			if !as.HeapCorrupted() {
				t.Fatal("overflow into the argument's header not detected")
			}
			m.EndRequestArgs()
			if u, cur := as.HeapExtent(); u != units || cur != top {
				t.Errorf("after the request: %d heap units, top 0x%x; want %d, 0x%x", u, cur, units, top)
			}
			if !as.HeapCorrupted() {
				t.Error("releasing the argument cleared the heap-corruption flag")
			}
			if res := m.Call("grab"); res.Outcome != fo.OutcomeHeapCorruption {
				t.Errorf("malloc on the corrupted heap = %v (%v), want heap corruption", res.Outcome, res.Err)
			}
		})
	}
}
