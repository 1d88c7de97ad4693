package serve

import (
	"sync"
	"sync/atomic"
	"time"
)

// shedQueue is the engine's one admission queue: a bounded FIFO of tasks
// that workers block on. A zero ShedConfig leaves it exactly that — push
// rejects with ErrQueueFull at depth, pop takes the head, nothing is shed.
// A non-zero ShedConfig (WithShedding) adds the deadline-aware CoDel-style
// shedding gate described on ShedConfig: when the queue is full — or when
// the oldest request's sojourn time has exceeded the target for longer than
// the interval — requests whose deadline has become unmeetable are dropped
// from the *front*, their submitters answered with ErrShed, so viable fresh
// requests keep flowing instead of the queue turning into a line of
// already-dead work.
//
// Unmeetable: the time remaining until the request's context deadline is
// smaller than the EWMA of recently observed execution times (even if
// dequeued right now it could not finish in time). Requests without a
// deadline are only shed by sojourn: once their wait exceeds
// target+interval during sustained overload they are assumed stale.
type shedQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []*task // FIFO: items[0] is the oldest
	depth  int
	closed bool

	cfg      ShedConfig
	shedding bool // cfg is non-zero: the shedding gate is on

	// aboveSince is when the head sojourn time first exceeded cfg.Target
	// without dipping back under (zero = currently under target). Dequeue
	// only sheds once now-aboveSince >= cfg.Interval — CoDel's defense
	// against reacting to short bursts.
	aboveSince time.Time

	// svcEWMA estimates execution time from observed service durations
	// (integer EWMA, alpha = 1/4). It starts at zero — before any
	// observation only already-expired requests count as unmeetable.
	svcEWMA time.Duration

	shed *atomic.Uint64 // the engine's Stats.Shed counter
}

func newShedQueue(depth int, cfg ShedConfig, shed *atomic.Uint64) *shedQueue {
	q := &shedQueue{items: make([]*task, 0, depth), depth: depth, cfg: cfg, shedding: cfg.enabled(), shed: shed}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// observe folds one measured execution duration into the service-time
// estimate. Without the shedding gate nothing reads the estimate, so the
// lock is skipped.
func (q *shedQueue) observe(d time.Duration) {
	if !q.shedding {
		return
	}
	q.mu.Lock()
	if q.svcEWMA == 0 {
		q.svcEWMA = d
	} else {
		q.svcEWMA += (d - q.svcEWMA) / 4
	}
	q.mu.Unlock()
}

// resetServiceEstimate clears the service-time EWMA. The engine calls it on
// Recycle (the program hot-swap path): the estimate describes the outgoing
// program's execution times, and letting it survive the swap would drive
// unmeetable-deadline shedding for the new program from stale data — a slow
// outgoing program would shed requests the new program could easily serve,
// and a fast one would queue doomed work. Starting from zero re-learns from
// the new program's first observations, the same cold-start contract as a
// freshly built queue.
func (q *shedQueue) resetServiceEstimate() {
	q.mu.Lock()
	q.svcEWMA = 0
	q.mu.Unlock()
}

// unmeetable reports whether t cannot meet its deadline anymore: the time
// remaining is below the current service-time estimate (expired requests
// have negative remaining time and are always unmeetable).
func (q *shedQueue) unmeetable(t *task, now time.Time) bool {
	dl, ok := t.ctx.Deadline()
	if !ok {
		// No deadline to miss; only the sustained-sojourn rule (dequeue
		// path) can shed it.
		return false
	}
	return dl.Sub(now) < q.svcEWMA
}

// dropLocked removes items[i], answers its submitter(s) with ErrShed, and
// counts the shed — per request, so a dropped batch wrapper counts every
// sub-request it carried. The count is read before answering: the answer
// releases the task to its submitter, who may recycle it concurrently.
// Callers hold q.mu.
func (q *shedQueue) dropLocked(i int) {
	t := q.items[i]
	last := len(q.items) - 1
	q.items = append(q.items[:i], q.items[i+1:]...)
	q.items[:last+1][last] = nil // drop the stale tail reference
	n := taskCount(t)
	answer(t, taskResult{err: ErrShed})
	q.shed.Add(n)
}

// push admits t, shedding the oldest unmeetable request to make room when
// the queue is full (shedding gate on). It returns ErrQueueFull when the
// queue is full — under shedding, full of requests that can still meet
// their deadlines — and ErrClosed after close.
func (q *shedQueue) push(t *task) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	if len(q.items) >= q.depth {
		if !q.shedding {
			return ErrQueueFull
		}
		// Full: drop from the front — the oldest request whose deadline
		// has become unmeetable — to admit a viable newcomer. The Interval
		// gate does not apply here: a full queue is sustained pressure by
		// definition, and serving a doomed request would only waste the
		// capacity the newcomer still has time to use.
		shedded := false
		now := time.Now()
		for i := 0; i < len(q.items); i++ {
			if q.unmeetable(q.items[i], now) {
				q.dropLocked(i)
				shedded = true
				break
			}
		}
		if !shedded {
			return ErrQueueFull
		}
	}
	q.items = append(q.items, t)
	q.cond.Signal()
	return nil
}

// pop blocks until a task is available (or the queue closes). With the
// shedding gate on it sheds unmeetable requests from the front while the
// sojourn time has stayed above target for at least the interval; without
// it, the head is taken as is — a zero Target and Interval would otherwise
// make every deadline-free request look stale.
func (q *shedQueue) pop() (*task, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		for len(q.items) == 0 && !q.closed {
			q.cond.Wait()
		}
		if q.closed {
			return nil, false
		}
		if !q.shedding {
			return q.takeLocked(), true
		}
		now := time.Now()
		head := q.items[0]
		sojourn := now.Sub(head.enq)
		if sojourn < q.cfg.Target {
			q.aboveSince = time.Time{}
			return q.takeLocked(), true
		}
		if q.aboveSince.IsZero() {
			q.aboveSince = now
		}
		if now.Sub(q.aboveSince) >= q.cfg.Interval &&
			(q.unmeetable(head, now) || sojourn >= q.cfg.Target+q.cfg.Interval && noDeadline(head)) {
			q.dropLocked(0)
			continue
		}
		return q.takeLocked(), true
	}
}

func noDeadline(t *task) bool {
	_, ok := t.ctx.Deadline()
	return !ok
}

// takeLocked removes and returns the head. Callers hold q.mu.
func (q *shedQueue) takeLocked() *task {
	t := q.items[0]
	copy(q.items, q.items[1:])
	q.items[len(q.items)-1] = nil
	q.items = q.items[:len(q.items)-1]
	return t
}

// close wakes all waiting workers; queued submitters are unblocked by the
// engine's closing context (they get ErrClosed from Engine.await).
func (q *shedQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}
