package serve_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"focc/fo"
	"focc/internal/serve"
	"focc/internal/servers"
)

// shedEngine builds a single-worker engine with a tiny shedding queue and
// no engine-level deadline, so tests control deadlines per request via
// context.
func shedEngine(t *testing.T, depth int) *serve.Engine {
	t.Helper()
	eng, err := serve.New(&stubServer{}, fo.FailureOblivious,
		serve.WithPoolSize(1), serve.WithQueueDepth(depth),
		serve.WithShedding(serve.ShedConfig{
			Target:   time.Millisecond,
			Interval: 5 * time.Millisecond,
		}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	return eng
}

// TestShedDisplacesUnmeetableRequest is the deterministic shed-vs-reject
// test: a full queue of requests whose deadlines have already expired must
// shed them (ErrShed to their submitters, Stats.Shed counted, queue slot
// released) to admit fresh viable requests — not reject the newcomers.
func TestShedDisplacesUnmeetableRequest(t *testing.T) {
	eng := shedEngine(t, 2)

	var wg sync.WaitGroup
	results := make(chan error, 16)
	submit := func(op string, d time.Duration) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), d)
			defer cancel()
			_, err := eng.Submit(ctx, servers.Request{Op: op})
			results <- err
		}()
	}

	// Occupy the single worker with a long-deadline spin…
	submit("spin", 600*time.Millisecond)
	time.Sleep(50 * time.Millisecond) // worker picks it up
	// …and fill both queue slots with spins whose deadlines expire while
	// queued (expired requests are always unmeetable, regardless of the
	// service-time estimate).
	submit("spin", 30*time.Millisecond)
	submit("spin", 30*time.Millisecond)
	time.Sleep(100 * time.Millisecond) // both queued deadlines are now past

	// Fresh viable submissions must displace the doomed queued requests
	// instead of bouncing off a "full" queue.
	submit("ok", 2*time.Second)
	submit("ok", 2*time.Second)

	wg.Wait()
	close(results)
	var shed, served, timedOut int
	for err := range results {
		switch {
		case errors.Is(err, serve.ErrShed):
			shed++
		case errors.Is(err, serve.ErrQueueFull):
			t.Error("viable request rejected with ErrQueueFull; want shed-to-admit")
		case err == nil:
			served++
		default:
			t.Errorf("unexpected submit error: %v", err)
		}
	}
	_ = timedOut
	if shed != 2 {
		t.Errorf("shed submitters = %d, want 2 (both expired queued requests)", shed)
	}
	// The worker-occupying spin times out (OutcomeDeadline, no error) and
	// both "ok" requests are served: 3 nil-error results.
	if served != 3 {
		t.Errorf("successful submits = %d, want 3", served)
	}
	st := eng.Stats()
	if st.Shed != 2 {
		t.Errorf("Stats.Shed = %d, want 2", st.Shed)
	}
	if st.Rejected != 0 {
		t.Errorf("Stats.Rejected = %d, want 0 (sheds are not rejections)", st.Rejected)
	}
	if st.Crashes != 0 || st.Restarts != 0 {
		t.Errorf("shedding killed an instance: crashes=%d restarts=%d", st.Crashes, st.Restarts)
	}
}

// TestShedQueueStillRejectsViableOverflow: when the queue is full of
// requests that can all still meet their deadlines, a newcomer gets the
// plain ErrQueueFull backpressure — shedding only ever displaces doomed
// work, it never drops a viable request to admit another.
func TestShedQueueStillRejectsViableOverflow(t *testing.T) {
	eng := shedEngine(t, 1)

	var wg sync.WaitGroup
	spin := func(d time.Duration) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), d)
			defer cancel()
			eng.Submit(ctx, servers.Request{Op: "spin"})
		}()
	}
	spin(400 * time.Millisecond) // occupies the worker
	time.Sleep(50 * time.Millisecond)
	spin(400 * time.Millisecond) // fills the single queue slot, deadline far off
	time.Sleep(20 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_, err := eng.Submit(ctx, servers.Request{Op: "ok"})
	if !errors.Is(err, serve.ErrQueueFull) {
		t.Errorf("submit over a queue of viable requests = %v, want ErrQueueFull", err)
	}
	st := eng.Stats()
	if st.Rejected == 0 {
		t.Error("rejection not counted")
	}
	if st.Shed != 0 {
		t.Errorf("Stats.Shed = %d, want 0 (no queued request was doomed)", st.Shed)
	}
	wg.Wait()
}

// TestPlainQueueExpiryIsATimeoutNotAShed: without WithShedding the queue
// never sheds. A full queue of requests whose deadlines have passed still
// refuses a newcomer with ErrQueueFull (counted in Stats.Rejected), and
// each expired request is answered fo.OutcomeDeadline when a worker
// reaches it — never ErrShed, and Stats.Shed stays 0.
func TestPlainQueueExpiryIsATimeoutNotAShed(t *testing.T) {
	eng, err := serve.New(&stubServer{}, fo.FailureOblivious,
		serve.WithPoolSize(1), serve.WithQueueDepth(2))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	var wg sync.WaitGroup
	type result struct {
		resp servers.Response
		err  error
	}
	results := make(chan result, 3)
	submit := func(op string, d time.Duration) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), d)
			defer cancel()
			resp, err := eng.Submit(ctx, servers.Request{Op: op})
			results <- result{resp, err}
		}()
	}
	submit("spin", 600*time.Millisecond) // occupies the worker
	time.Sleep(50 * time.Millisecond)
	submit("ok", 30*time.Millisecond) // both expire while queued
	submit("ok", 30*time.Millisecond)
	time.Sleep(100 * time.Millisecond)

	if _, err := eng.Submit(context.Background(), servers.Request{Op: "ok"}); !errors.Is(err, serve.ErrQueueFull) {
		t.Errorf("submit over a full plain queue = %v, want ErrQueueFull", err)
	}
	wg.Wait()
	close(results)
	for r := range results {
		if r.err != nil {
			t.Errorf("queued request answered with error %v, want a deadline response", r.err)
		} else if r.resp.Outcome != fo.OutcomeDeadline {
			t.Errorf("outcome = %v, want deadline-exceeded", r.resp.Outcome)
		}
	}
	st := eng.Stats()
	if st.Rejected != 1 {
		t.Errorf("Stats.Rejected = %d, want 1", st.Rejected)
	}
	if st.Shed != 0 {
		t.Errorf("Stats.Shed = %d, want 0 without the shedding gate", st.Shed)
	}
	if st.Timeouts != 3 {
		t.Errorf("Stats.Timeouts = %d, want 3", st.Timeouts)
	}
}

// TestRecycleWithoutShedding: Recycle on an engine whose queue has no
// shedding gate replaces the instance before the next request, like on a
// shedding one.
func TestRecycleWithoutShedding(t *testing.T) {
	eng, err := serve.New(&stubServer{}, fo.FailureOblivious, serve.WithPoolSize(1))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ok := servers.Request{Op: "ok"}
	for i := 0; i < 2; i++ {
		if i == 1 {
			eng.Recycle()
		}
		resp, err := eng.Submit(context.Background(), ok)
		if err != nil || !resp.OK() {
			t.Fatalf("submit %d: %v %v", i, resp, err)
		}
	}
	if st := eng.Stats(); st.Recycles != 1 || st.Shed != 0 {
		t.Errorf("recycles = %d, shed = %d; want 1, 0", st.Recycles, st.Shed)
	}
}
