package serve

import (
	"fmt"
	"time"
)

// Option configures an Engine (the functional-options constructor of the
// serving API: WithPoolSize, WithQueueDepth, WithDeadline, WithBackoff,
// WithBreaker, WithWarmSpares, WithShedding, WithChaos).
//
// Options record exactly what the caller asked for; New validates the
// combined configuration and returns a descriptive error for values that
// cannot work (non-positive pool or queue sizes, negative deadlines, a
// backoff base above its cap, …) instead of silently clamping them.
type Option func(*options)

type options struct {
	poolSize   int
	queueDepth int
	deadline   time.Duration

	backoffBase time.Duration
	backoffMax  time.Duration

	breakerAfter int
	breakerCool  time.Duration

	warmSpares int

	shed ShedConfig

	chaos ChaosConfig

	batchMax   int
	batchDelay time.Duration
}

func defaultOptions() options {
	return options{
		poolSize:     4,
		queueDepth:   64,
		deadline:     0, // no per-request deadline unless configured
		backoffBase:  time.Millisecond,
		backoffMax:   250 * time.Millisecond,
		breakerAfter: 8,
		breakerCool:  500 * time.Millisecond,
		warmSpares:   0, // no pre-warmed replacements unless configured
	}
}

// validate rejects configurations that cannot work, naming the offending
// value. It runs once, in New, over the fully-assembled options — so
// inter-option constraints (backoff base vs. cap, breaker threshold vs.
// cooldown) are checked against the final values, not call order.
func (o *options) validate() error {
	if o.poolSize <= 0 {
		return fmt.Errorf("serve: pool size %d: must be at least 1 worker instance", o.poolSize)
	}
	if o.queueDepth <= 0 {
		return fmt.Errorf("serve: queue depth %d: must admit at least 1 request", o.queueDepth)
	}
	if o.deadline < 0 {
		return fmt.Errorf("serve: deadline %v: must be positive (or 0 to disable)", o.deadline)
	}
	if o.backoffBase <= 0 {
		return fmt.Errorf("serve: backoff base %v: must be positive", o.backoffBase)
	}
	if o.backoffMax <= 0 {
		return fmt.Errorf("serve: backoff cap %v: must be positive", o.backoffMax)
	}
	if o.backoffBase > o.backoffMax {
		return fmt.Errorf("serve: backoff base %v exceeds cap %v", o.backoffBase, o.backoffMax)
	}
	if o.breakerAfter < 0 {
		return fmt.Errorf("serve: breaker threshold %d: must be positive (or 0 to disable)", o.breakerAfter)
	}
	if o.breakerAfter > 0 && o.breakerCool <= 0 {
		return fmt.Errorf("serve: breaker cooldown %v: must be positive when the breaker is enabled", o.breakerCool)
	}
	if o.warmSpares < 0 {
		return fmt.Errorf("serve: warm spares %d: must be positive (or 0 to disable)", o.warmSpares)
	}
	if o.shed.enabled() {
		if o.shed.Target <= 0 {
			return fmt.Errorf("serve: shedding sojourn target %v: must be positive", o.shed.Target)
		}
		if o.shed.Interval <= 0 {
			return fmt.Errorf("serve: shedding interval %v: must be positive", o.shed.Interval)
		}
	}
	if o.chaos.Latency < 0 {
		return fmt.Errorf("serve: chaos latency %v: must not be negative", o.chaos.Latency)
	}
	if o.chaos.LatencyEvery > 0 && o.chaos.Latency <= 0 {
		return fmt.Errorf("serve: chaos latency injection every %d requests needs a positive latency", o.chaos.LatencyEvery)
	}
	if o.batchMax < 0 {
		return fmt.Errorf("serve: batch size %d: must be at least 2 (or 0 to disable batching)", o.batchMax)
	}
	if o.batchMax == 1 {
		return fmt.Errorf("serve: batch size 1: coalesces nothing — use at least 2, or 0 to disable batching")
	}
	if o.batchMax > 0 && o.batchDelay <= 0 {
		return fmt.Errorf("serve: batch delay %v: must be positive when batching is enabled", o.batchDelay)
	}
	if o.batchMax > 0 && o.batchMax > o.queueDepth {
		return fmt.Errorf("serve: batch size %d exceeds queue depth %d: a full batch could never be admitted", o.batchMax, o.queueDepth)
	}
	return nil
}

// WithPoolSize sets the number of worker instances ("child processes").
// New rejects n <= 0.
func WithPoolSize(n int) Option {
	return func(o *options) { o.poolSize = n }
}

// WithQueueDepth bounds the admission queue: a Submit arriving while the
// queue holds n requests is rejected with ErrQueueFull (backpressure) —
// or, with shedding enabled, may displace a queued request whose deadline
// has become unmeetable (ErrShed). New rejects n <= 0.
func WithQueueDepth(n int) Option {
	return func(o *options) { o.queueDepth = n }
}

// WithDeadline sets the default per-request deadline, covering queue wait
// plus execution. A request exceeding it gets a response with
// fo.OutcomeDeadline; the serving instance survives. d == 0 disables the
// default deadline (a caller-supplied context can still cancel); New
// rejects negative d.
func WithDeadline(d time.Duration) Option {
	return func(o *options) { o.deadline = d }
}

// WithBackoff sets the capped exponential backoff applied between
// consecutive cold restarts of a crashing instance: the first restart after
// an isolated crash is immediate, and the k-th consecutive restart (k >= 2)
// waits min(base<<(k-2), max) — base, then 2×base, doubling up to the cap.
// New rejects non-positive values and a base above the cap.
func WithBackoff(base, max time.Duration) Option {
	return func(o *options) {
		o.backoffBase = base
		o.backoffMax = max
	}
}

// WithWarmSpares keeps up to n pre-created instances on standby: when a
// worker's instance crashes it is replaced by a warm spare immediately
// (no in-line instance-creation cost and no backoff — the spawn already
// happened off the serving path, like Apache pre-forking children before
// they are needed). A background filler goroutine tops the standby set back
// up after each take; if crashes outpace it, replacement falls back to the
// usual cold spawn with backoff and breaker. Restarts are counted the same
// either way. n == 0 disables warm spares (the default); New rejects
// negative n.
func WithWarmSpares(n int) Option {
	return func(o *options) { o.warmSpares = n }
}

// ShedConfig configures the deadline-aware shedding gate on the engine's
// admission queue (WithShedding). The zero config leaves the gate off: the
// queue is a plain bounded FIFO that rejects new arrivals at depth.
//
// The gate makes the one queue a CoDel-style controlled-delay queue
// (Nichols & Jacobson, "Controlling Queue Delay"): instead of
// tail-dropping new arrivals whenever the buffer is full, it watches the
// *sojourn time* of the oldest queued request and
// drops from the front — the requests that have already waited so long
// their deadline has become unmeetable — so fresh requests that can still
// meet their deadline are admitted and served. A dropped request's
// submitter gets ErrShed (distinct from ErrQueueFull, which still reports
// a queue full of viable requests).
//
// A queued request is considered unmeetable when the time remaining until
// its deadline is smaller than the engine's moving estimate of execution
// time (an EWMA over recently observed service times), i.e. even if it
// were dequeued right now it could not finish in time; requests whose
// deadline already passed are always unmeetable.
type ShedConfig struct {
	// Target is the acceptable queue sojourn time (CoDel's "target"). While
	// the oldest queued request has waited less than Target, nothing is
	// shed on dequeue.
	Target time.Duration
	// Interval is how long the sojourn time must stay above Target before
	// the dequeue path starts shedding unmeetable requests from the front
	// of the queue (CoDel's "interval" — it filters short bursts from
	// standing queues). The admission path is not gated on Interval: a full
	// queue sheds an unmeetable request immediately to admit a viable one.
	Interval time.Duration
}

func (c ShedConfig) enabled() bool { return c != (ShedConfig{}) }

// WithShedding turns on the deadline-aware CoDel-style shedding gate
// described on ShedConfig on the engine's bounded admission queue. The zero
// config turns it off; otherwise New rejects non-positive Target or
// Interval.
func WithShedding(c ShedConfig) Option {
	return func(o *options) { o.shed = c }
}

// ChaosConfig configures deterministic process-level fault injection at the
// serving layer. Injection is keyed to an engine-wide counter of executed
// requests — the n-th, 2n-th, 3n-th … request is hit — so a single-worker
// engine fed sequentially produces identical chaos on every run with no
// randomness at this layer (the fault-injection campaign picks the cadences
// from its seeded plan; see internal/inject).
type ChaosConfig struct {
	// KillEvery kills the serving instance after every n-th executed
	// request (the response is delivered first; the supervisor then
	// replaces the instance exactly as after a crash, but the kill is
	// counted as a chaos kill, not a crash, and does not grow the restart
	// backoff). 0 disables kill injection.
	KillEvery uint64
	// LatencyEvery delays every n-th executed request by Latency before
	// execution. With a per-request deadline configured, a Latency
	// exceeding the deadline deterministically trips it (the request
	// returns fo.OutcomeDeadline; the instance survives). 0 disables
	// latency injection.
	LatencyEvery uint64
	// Latency is the injected delay.
	Latency time.Duration
}

func (c ChaosConfig) enabled() bool { return c.KillEvery > 0 || c.LatencyEvery > 0 }

// WithChaos enables deterministic chaos injection (instance kills, handler
// latency) on the engine. The zero config disables it. New rejects a
// negative latency and latency injection without a positive delay.
func WithChaos(c ChaosConfig) Option {
	return func(o *options) { o.chaos = c }
}

// WithBatching coalesces queued small requests into batches of up to
// maxBatch, dispatched to one worker instance as a unit: one admission
// slot, one instance hand-off, and — under the rewind policy — one
// checkpoint/rewind epoch for the whole batch instead of one per request
// (fo.Machine.BeginBatchEpoch), amortizing the per-request serving
// overhead that dominates small operations. Responses keep per-request
// semantics: each sub-request executes separately on the instance, gets
// its own outcome, latency sample, and memory-error attribution, and a
// mid-batch crash or rewind lets the remaining sub-requests continue on a
// replacement instance or a re-armed epoch. The one semantic trade is
// rollback granularity: a rewind mid-batch discards the whole open epoch
// — including the guest-state mutations of earlier sub-requests in the
// same batch, whose responses were already delivered — the paper's
// availability-over-precision bargain applied at batch scope.
//
// An incomplete batch flushes after maxDelay — the most latency batching
// may add — and flushing is deadline-aware: a request whose deadline
// could not survive waiting maxDelay bypasses the batcher and is
// enqueued alone. New rejects maxBatch < 2 (0 disables batching),
// non-positive maxDelay with batching enabled, and maxBatch above the
// queue depth.
func WithBatching(maxBatch int, maxDelay time.Duration) Option {
	return func(o *options) {
		o.batchMax = maxBatch
		o.batchDelay = maxDelay
	}
}

// WithBreaker configures the restart-storm circuit breaker: after
// consecutive crashes without an intervening successful response, the
// worker stops hot-restarting and parks for cooldown before trying a fresh
// instance (half-open). consecutive == 0 disables the breaker; New rejects
// negative thresholds and, with the breaker enabled, a non-positive
// cooldown.
func WithBreaker(consecutive int, cooldown time.Duration) Option {
	return func(o *options) {
		o.breakerAfter = consecutive
		o.breakerCool = cooldown
	}
}
