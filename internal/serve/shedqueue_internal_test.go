package serve

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

// Regression test: the service-time EWMA must not survive a program hot
// swap. Before resetServiceEstimate was wired into Engine.Recycle, the
// estimate learned from the outgoing program kept driving
// unmeetable-deadline shedding for the incoming one — a slow outgoing
// program made the queue shed requests the new program could easily have
// served.
func TestShedQueueEWMAResetOnRecycle(t *testing.T) {
	var shed atomic.Uint64
	q := newShedQueue(4, ShedConfig{Target: time.Millisecond, Interval: 10 * time.Millisecond}, &shed)

	q.observe(50 * time.Millisecond)
	q.observe(70 * time.Millisecond)
	q.mu.Lock()
	got := q.svcEWMA
	q.mu.Unlock()
	if got == 0 {
		t.Fatal("svcEWMA = 0 after observations, want nonzero")
	}

	// Recycle routes through the queue (Router.Swap calls Recycle on every
	// shard, so swap coverage follows from this path).
	e := &Engine{q: q}
	e.Recycle()

	q.mu.Lock()
	got = q.svcEWMA
	q.mu.Unlock()
	if got != 0 {
		t.Fatalf("svcEWMA = %v after Recycle, want 0 (stale estimate must not outlive a hot swap)", got)
	}

	// The queue re-learns from the new program's observations.
	q.observe(2 * time.Millisecond)
	q.mu.Lock()
	got = q.svcEWMA
	q.mu.Unlock()
	if got != 2*time.Millisecond {
		t.Fatalf("svcEWMA = %v after first post-recycle observation, want 2ms cold-start", got)
	}
}

// With the zero ShedConfig the queue is a plain bounded FIFO: tasks come
// out in arrival order, a push at depth is refused with ErrQueueFull
// instead of displacing anything, and pop never sheds — not a request
// whose deadline has passed, not one without a deadline whose (unstamped)
// enqueue time would read as an endless sojourn.
func TestPlainQueueIsBoundedFIFO(t *testing.T) {
	var shed atomic.Uint64
	q := newShedQueue(3, ShedConfig{}, &shed)

	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	tasks := []*task{
		{ctx: expired, resp: make(chan taskResult, 1)},
		{ctx: context.Background(), resp: make(chan taskResult, 1)},
		{ctx: expired, resp: make(chan taskResult, 1)},
	}
	for i, tk := range tasks {
		if err := q.push(tk); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	if err := q.push(&task{ctx: context.Background()}); err != ErrQueueFull {
		t.Fatalf("push at depth = %v, want ErrQueueFull", err)
	}
	q.observe(time.Second)
	for i, want := range tasks {
		// pop blocks on an empty queue, so a queue that wrongly shed a
		// task would hang here: bound the wait.
		popped := make(chan *task, 1)
		go func() {
			got, _ := q.pop()
			popped <- got
		}()
		var got *task
		select {
		case got = <-popped:
		case <-time.After(5 * time.Second):
			t.Fatalf("pop %d blocked: the queue lost a task", i)
		}
		if got != want {
			t.Fatalf("pop %d = %p, want task %p", i, got, want)
		}
		select {
		case r := <-want.resp:
			t.Fatalf("task %d answered by the queue: %v", i, r.err)
		default:
		}
	}
	if n := shed.Load(); n != 0 {
		t.Errorf("shed = %d, want 0 without the shedding gate", n)
	}
	if q.svcEWMA != 0 {
		t.Errorf("svcEWMA = %v, want 0: observe is a no-op without the gate", q.svcEWMA)
	}
	q.close()
	if _, ok := q.pop(); ok {
		t.Error("pop after close returned a task")
	}
	if err := q.push(tasks[0]); err != ErrClosed {
		t.Errorf("push after close = %v, want ErrClosed", err)
	}
}
