package main

import (
	"context"
	"reflect"
	"testing"
	"time"

	"focc/fo"
	"focc/fo/srv"
)

// closedRun builds a router for w (traced when tr is non-nil) and sends
// perConn requests on each connection, one at a time and without
// deadlines, so the outcome depends only on the request sequence. It
// returns every reply and the router's counters once the last restart
// has landed.
func closedRun(t *testing.T, w workload, perConn int, tr *tracer, shardOpts ...srv.Option) ([]golden, srv.RouterStats) {
	t.Helper()
	b, err := newBench(w, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := srv.New(w.Server)
	if err != nil {
		t.Fatal(err)
	}
	if tr != nil {
		s = &tracedServer{Server: s, t: tr}
	}
	opts := append([]srv.Option{srv.WithPoolSize(w.PoolSize), srv.WithWarmSpares(w.WarmSpares)}, shardOpts...)
	// No shedding: a slow respawn (say, under the race detector) must not
	// make the two runs' admission decisions differ.
	noShed := srv.WithShardShedding(srv.ShedConfig{Target: time.Minute, Interval: time.Minute})
	rt, err := srv.NewRouter(s, b.mode, srv.WithShards(w.Shards), noShed, srv.WithShardOptions(opts...))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	keys := b.tenants(rt)
	var replies []golden
	for n := 0; n < perConn; n++ {
		for c := range keys {
			k := b.seq.at(n)
			resp, err := rt.Submit(context.Background(), keys[c], b.kinds[k].req)
			if err != nil {
				t.Fatalf("request %d/%d: %v", c, n, err)
			}
			replies = append(replies, replyOf(resp))
		}
	}
	// Every crash and chaos kill is followed by a restart, counted just
	// after the reply went out.
	deadline := time.Now().Add(2 * time.Second)
	for {
		st := rt.Stats()
		if st.Restarts >= st.Crashes+st.ChaosKills || time.Now().After(deadline) {
			return replies, st
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTracingChangesNothing runs each workload's mix with and without the
// tracing wrappers, under the engine paths that discover optional instance
// capabilities (crash replacement with warm spares, chaos kills, batching
// with batch-scope binds and epochs), and requires identical replies and
// identical counters.
func TestTracingChangesNothing(t *testing.T) {
	ws, err := loadWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	extra := []srv.Option{
		srv.WithChaos(srv.ChaosConfig{KillEvery: 7}),
		srv.WithBatching(4, 200*time.Microsecond),
	}
	for _, w := range ws {
		t.Run(w.Name, func(t *testing.T) {
			plain, ps := closedRun(t, w, 24, nil, extra...)
			tr := &tracer{}
			traced, ts := closedRun(t, w, 24, tr, extra...)
			if len(plain) != len(traced) {
				t.Fatalf("%d replies untraced, %d traced", len(plain), len(traced))
			}
			for i := range plain {
				if plain[i] != traced[i] {
					t.Fatalf("reply %d: untraced %+v, traced %+v", i, plain[i], traced[i])
				}
			}
			if a, b := ps.Stats, ts.Stats; !reflect.DeepEqual(a, b) {
				t.Fatalf("counters differ:\nuntraced %+v\ntraced   %+v", a, b)
			}
			if ps.ChaosKills == 0 || ps.Batches == 0 {
				t.Fatalf("chaos kills %d, batches %d: the optional capability paths did not run", ps.ChaosKills, ps.Batches)
			}
			if len(tr.spawnTimes()) == 0 {
				t.Fatal("the traced run recorded no spawns")
			}
		})
	}
}

func TestWrapperForwardsCapabilities(t *testing.T) {
	s, err := srv.New("pine")
	if err != nil {
		t.Fatal(err)
	}
	tr := &tracer{}
	inst, err := (&tracedServer{Server: s, t: tr}).New(fo.FailureOblivious)
	if err != nil {
		t.Fatal(err)
	}
	for name, ok := range map[string]bool{
		"Release":    implements[interface{ Release() }](inst),
		"Kill":       implements[interface{ Kill() }](inst),
		"BeginBatch": implements[interface{ BeginBatch() }](inst),
		"EndBatch":   implements[interface{ EndBatch() }](inst),
		"BindBatch":  implements[interface{ BindBatch(context.Context) func() }](inst),
	} {
		if !ok {
			t.Errorf("traced instance does not forward %s", name)
		}
	}
	inst.(interface{ Kill() }).Kill()
	if inst.Alive() {
		t.Error("Kill on the traced instance did not kill the wrapped one")
	}
}

func implements[T any](v any) bool {
	_, ok := v.(T)
	return ok
}
