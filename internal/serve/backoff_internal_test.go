package serve

import (
	"context"
	"testing"
	"time"

	"focc/fo"
	"focc/internal/servers"
	"focc/internal/servers/apache"
)

// Crashes replaced from warm spares are not cold restarts: the first cold
// respawn after a run of them is immediate, however long the run. With an
// hour-long backoff base, a respawn that slept would leave the request
// after it unanswered.
func TestSpareRunThenColdRespawnDoesNotSleep(t *testing.T) {
	srv := apache.NewServer()
	eng, err := New(srv, fo.Standard, WithPoolSize(1), WithBreaker(0, 0),
		WithBackoff(time.Hour, time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// Hand-filled spares and no filler: exactly three crashes are
	// replaced warm, the fourth cold. The write happens before the first
	// Submit, which orders it before the worker's reads.
	const warm = 3
	eng.spares = make(chan spare, warm)
	for i := 0; i < warm; i++ {
		inst, err := srv.New(fo.Standard)
		if err != nil {
			t.Fatal(err)
		}
		eng.spares <- spare{inst: inst, gen: eng.gen.Load()}
	}
	for i := 0; i < warm+1; i++ {
		resp, err := eng.Submit(context.Background(), srv.AttackRequest())
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Crashed() {
			t.Fatalf("attack %d did not crash (%v)", i, resp.Outcome)
		}
	}
	// A sleeping worker would not answer until Close, so wait from the
	// side instead of blocking in Submit.
	done := make(chan servers.Response, 1)
	go func() {
		resp, _ := eng.Submit(context.Background(), srv.LegitRequests()[0])
		done <- resp
	}()
	select {
	case resp := <-done:
		if resp.Outcome != fo.OutcomeOK {
			t.Fatalf("request after the cold respawn = %v (%v), want OK", resp.Outcome, resp.Err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no answer 10 s after the cold respawn: the respawn slept")
	}
	if st := eng.Stats(); st.Crashes != warm+1 || st.Restarts != warm+1 {
		t.Errorf("crashes/restarts = %d/%d, want %d/%d", st.Crashes, st.Restarts, warm+1, warm+1)
	}
}
