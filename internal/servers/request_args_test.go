package servers_test

// Request-scoped argument blocks: HandleContext (Base.Attribute) releases
// the C strings a request passes into the guest, so a long-lived instance's
// heap stays flat however many requests it serves.

import (
	"context"
	"testing"

	"focc/fo"
	_ "focc/internal/genservers" // serve on the generated engine, as fo/srv does
	"focc/internal/servers"
	"focc/internal/servers/apache"
	"focc/internal/servers/pine"
)

// machineOf exposes an instance's machine (servers.Base.Machine).
func machineOf(t *testing.T, inst servers.Instance) *fo.Machine {
	t.Helper()
	b, ok := inst.(interface{ Machine() *fo.Machine })
	if !ok {
		t.Fatalf("%s instance does not expose its machine", inst.Name())
	}
	return b.Machine()
}

// heapExtent reads the heap unit count and heap top of inst's machine.
func heapExtent(t *testing.T, inst servers.Instance) (int, uint64) {
	t.Helper()
	return machineOf(t, inst).AddressSpace().HeapExtent()
}

// TestHandleContextHeapFlat serves 1,000 requests on one instance and
// requires the heap's unit table and top to stay exactly where the first
// request left them, on the serving engine and on the tree-walk fallback, under
// failure-oblivious and rewind. The apache mix includes the attack, whose
// out-of-bounds writes are discarded (failure-oblivious) or rolled back
// (rewind) without leaving guest allocations behind.
func TestHandleContextHeapFlat(t *testing.T) {
	const n = 1000
	srvs := []servers.Server{pine.NewServer(), apache.NewServer()}
	engines := []fo.Engine{fo.EngineAuto, fo.EngineTreeWalk}
	for _, srv := range srvs {
		reqs := append(srv.LegitRequests(), srv.AttackRequest())
		if srv.Name() == "pine" {
			// Pine's attack is a mailbox index, which mallocs (quote_from)
			// and so keeps its argument below the freed guest block.
			reqs = srv.LegitRequests()
		}
		for _, mode := range []fo.Mode{fo.FailureOblivious, fo.ModeRewind} {
			for _, engine := range engines {
				t.Run(srv.Name()+"/"+mode.String()+"/"+engine.String(), func(t *testing.T) {
					inst, err := srv.(servers.Configurable).NewWithConfig(mode,
						func(cfg *fo.MachineConfig) { cfg.Engine = engine })
					if err != nil {
						t.Fatal(err)
					}
					want := engine
					if want == fo.EngineAuto {
						want = fo.EngineGenerated // the default, as fo/srv serves
					}
					if got := machineOf(t, inst).Engine(); got != want {
						t.Fatalf("machine runs %v, want %v", got, want)
					}
					ctx := context.Background()
					var units int
					var top uint64
					for i := 0; i < n; i++ {
						resp := inst.HandleContext(ctx, reqs[i%len(reqs)])
						if resp.Crashed() {
							t.Fatalf("request %d: %v", i, resp)
						}
						u, cur := heapExtent(t, inst)
						if i == 0 {
							units, top = u, cur
							continue
						}
						if u != units || cur != top {
							t.Fatalf("after request %d: %d heap units, top 0x%x; after the first: %d, 0x%x",
								i+1, u, cur, units, top)
						}
					}
				})
			}
		}
	}
}

// TestHandleKeepsArguments pins that plain Handle is unchanged: its
// argument blocks live as long as the machine (two heap units each).
func TestHandleKeepsArguments(t *testing.T) {
	inst, err := pine.NewServer().New(fo.FailureOblivious)
	if err != nil {
		t.Fatal(err)
	}
	req := pine.NewServer().LegitRequests()[0]
	u0, _ := heapExtent(t, inst)
	for i := 0; i < 3; i++ {
		if resp := inst.Handle(req); !resp.OK() {
			t.Fatalf("request %d: %v", i, resp)
		}
	}
	if u, _ := heapExtent(t, inst); u != u0+6 {
		t.Errorf("heap units after three Handle calls = %d, want %d", u, u0+6)
	}
}

// TestNoReleaseInBatchEpoch: while a batch epoch is open (rewind mode),
// the epoch's checkpoint may roll the heap back to its beginning, so no
// argument is released; the epoch's arguments stay allocated after it
// commits, and the first request after it releases only its own.
func TestNoReleaseInBatchEpoch(t *testing.T) {
	srv := pine.NewServer()
	inst, err := srv.New(fo.ModeRewind)
	if err != nil {
		t.Fatal(err)
	}
	b := inst.(interface {
		BeginBatch()
		EndBatch()
	})
	req := srv.LegitRequests()[0]
	ctx := context.Background()
	u0, _ := heapExtent(t, inst)
	b.BeginBatch()
	for i := 0; i < 3; i++ {
		if resp := inst.HandleContext(ctx, req); !resp.OK() {
			t.Fatalf("batched request %d: %v", i, resp)
		}
		if u, _ := heapExtent(t, inst); u != u0+2*(i+1) {
			t.Fatalf("heap units after batched request %d = %d, want %d (no release in an epoch)",
				i, u, u0+2*(i+1))
		}
	}
	b.EndBatch()
	u1, top1 := heapExtent(t, inst)
	if resp := inst.HandleContext(ctx, req); !resp.OK() {
		t.Fatalf("request after the batch: %v", resp)
	}
	if u, top := heapExtent(t, inst); u != u1 || top != top1 {
		t.Errorf("request after the batch: %d heap units, top 0x%x; want %d, 0x%x", u, top, u1, top1)
	}
}
