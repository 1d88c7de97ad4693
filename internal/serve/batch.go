package serve

import (
	"context"
	"sync"
	"time"
)

// batcher coalesces submitted small requests into batch wrapper tasks
// (WithBatching). Submits land in the pending accumulator; the batch
// flushes to the engine's admission queue when it reaches maxBatch or
// when the oldest pending request has waited maxDelay, whichever comes
// first. The flushed wrapper occupies ONE queue slot and is dispatched to
// one worker instance, which executes the sub-requests back to back under
// a single checkpoint/rewind epoch (see Engine.serveBatch).
//
// The admission decision is deadline-aware: a request whose deadline
// could not survive waiting out maxDelay is refused by admit and enqueued
// alone by Submit, so batching never converts a tight-deadline request
// into a timeout.
type batcher struct {
	e     *Engine
	max   int
	delay time.Duration

	mu      sync.Mutex
	pending []*task
	timer   *time.Timer // armed iff pending is non-empty
}

func newBatcher(e *Engine) *batcher {
	return &batcher{e: e, max: e.o.batchMax, delay: e.o.batchDelay}
}

// admit offers t to the batcher. It returns false when t must bypass
// batching (its deadline cannot absorb the flush delay); the caller then
// enqueues it alone. On true, t's reply will arrive on t.resp like any
// submitted task — from the worker that executed its batch, or as an
// admission error if the flushed batch could not be enqueued.
func (b *batcher) admit(t *task) bool {
	if dl, ok := t.ctx.Deadline(); ok && time.Until(dl) <= b.delay {
		return false
	}
	b.mu.Lock()
	b.pending = append(b.pending, t)
	if len(b.pending) >= b.max {
		batch := b.pending
		b.pending = nil
		if b.timer != nil {
			b.timer.Stop()
			b.timer = nil
		}
		b.mu.Unlock()
		b.e.enqueueBatch(batch)
		return true
	}
	if len(b.pending) == 1 {
		b.timer = time.AfterFunc(b.delay, b.flushAfterDelay)
	}
	b.mu.Unlock()
	return true
}

// flushAfterDelay is the timer path: the oldest pending request has
// waited maxDelay, so whatever has accumulated ships as a partial batch.
func (b *batcher) flushAfterDelay() {
	b.mu.Lock()
	batch := b.pending
	b.pending = nil
	b.timer = nil
	b.mu.Unlock()
	if len(batch) > 0 {
		b.e.enqueueBatch(batch)
	}
}

// enqueueBatch wraps subs into one batch task and admits it to the
// engine's queue — one slot per batch. If admission fails every
// sub-request is answered with the admission error (their submitters are
// blocked on their own reply channels).
func (e *Engine) enqueueBatch(subs []*task) {
	bt := &task{ctx: context.Background(), enq: subs[0].enq, batch: subs}
	if err := e.q.push(bt); err != nil {
		if err == ErrQueueFull {
			e.rejected.Add(uint64(len(subs)))
		}
		answer(bt, taskResult{err: err})
	}
}

// answer delivers r to t's submitter — fanning out to every sub-request's
// reply channel when t is a batch wrapper. Reply channels are buffered;
// the send never blocks.
func answer(t *task, r taskResult) {
	if t.batch == nil {
		t.resp <- r
		return
	}
	for _, s := range t.batch {
		s.resp <- r
	}
}

// taskCount returns how many submitted requests t represents (sub-requests
// for a batch wrapper, 1 otherwise) — the unit for Stats counters like
// Shed, which count requests, not queue slots.
func taskCount(t *task) uint64 {
	if t.batch != nil {
		return uint64(len(t.batch))
	}
	return 1
}

// batchEpocher is the optional instance capability serveBatch uses to
// bracket a batch in one checkpoint/rewind epoch (servers.Base provides
// it; see fo.Machine.BeginBatchEpoch).
type batchEpocher interface {
	BeginBatch()
	EndBatch()
}

// batchBinder is the optional instance capability serveBatch uses to bind
// the engine's closing context once per batch instead of once per request
// (servers.Base provides it). Binding a context costs a watcher goroutine;
// with the batch-scope bind in place the per-request BindContext of the
// same context inside HandleContext is recognized as a nested bind and
// becomes free (see fo.Machine.BindContext).
type batchBinder interface {
	BindBatch(context.Context) (release func())
}
