// Package serve is the concurrent serving engine: it dispatches
// servers.Requests across a supervised pool of interpreter instances, the
// way Apache's process manager feeds requests to a regenerating pool of
// child processes (paper §4.3.2).
//
// The engine owns poolSize worker goroutines, each driving its own
// servers.Instance (instances are single-goroutine; see the concurrency
// contract on servers.Instance). Requests are admitted through a bounded
// queue — a full queue rejects immediately with ErrQueueFull so callers see
// backpressure instead of unbounded latency. With WithShedding the bounded
// FIFO becomes a CoDel-style deadline-aware shedding queue: requests whose
// deadline has become unmeetable are dropped from the front with ErrShed so
// viable requests keep flowing (see ShedConfig). A per-request deadline
// (engine default and/or caller context) cancels execution inside the
// interpreter and returns fo.OutcomeDeadline without killing the instance.
//
// The supervisor part mirrors the paper's availability mechanism: a worker
// whose instance crashes replaces it with a fresh one — at real
// instance-creation cost, which is exactly what throttles the Standard and
// BoundsCheck versions under attack — with capped exponential backoff
// between consecutive crashes, and a circuit breaker that parks a
// crash-looping worker for a cooldown instead of hot-restarting forever.
//
// Instance creation — initial pool fill, warm spares, and every restart —
// goes through the server factory to fo.Program.NewMachine, which reuses
// the program's shared engine: its registered generated code, else the
// tree-walk evaluator over the analyzed program (DESIGN.md §13, §16).
// Restart cost is therefore machine/address-space setup only; no path in
// the engine compiles anything.
//
// The same shared-immutable-program property powers zero-downtime program
// hot-swap: Recycle bumps the engine's instance generation, and each
// worker replaces its instance with a freshly created one before executing
// its next request — in-flight work completes on the old instance, so no
// request observes the swap. Pair it with a SwapServer (whose New reads an
// atomically swappable server) or a Router, which coordinates the swap
// across shards.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"focc/fo"
	"focc/internal/servers"
)

// Errors returned by Submit (and Router.Submit, which adds its own).
var (
	// ErrQueueFull is the backpressure signal: the admission queue is at
	// capacity — and, under shedding, every queued request can still meet
	// its deadline — so the request was rejected without queuing.
	ErrQueueFull = errors.New("serve: admission queue full")
	// ErrShed reports a queued request dropped by the shedding queue: it
	// waited long enough that its deadline became unmeetable, and its slot
	// was given to a request that can still finish in time (WithShedding).
	// Distinct from ErrQueueFull — shed requests were admitted first and
	// aged out; rejected ones never got in.
	ErrShed = errors.New("serve: request shed (deadline unmeetable under overload)")
	// ErrClosed reports a Submit on (or interrupted by) a closed engine.
	ErrClosed = errors.New("serve: engine closed")
)

// Stats is a snapshot of the engine's counters.
type Stats struct {
	// Served counts responses delivered by workers (any outcome).
	Served uint64
	// Crashes counts requests that killed their instance.
	Crashes uint64
	// Restarts counts replacement instances successfully created after a
	// crash or chaos kill.
	Restarts uint64
	// Recycles counts instances replaced by a generation bump (Recycle —
	// the program hot-swap path), which is neither a crash nor a restart:
	// the retired instance was healthy and had finished its work.
	Recycles uint64
	// Timeouts counts deadline-exceeded requests (queued or executing).
	Timeouts uint64
	// Rewound counts requests rolled back by the rewind policy
	// (fo.OutcomeRewound): a detected memory error undone at the request
	// boundary. Like Timeouts these are a subset of Served — the instance
	// survives, the request fails.
	Rewound uint64
	// Rejected counts queue-full admission rejections (ErrQueueFull).
	Rejected uint64
	// Shed counts queued requests dropped by the shedding queue because
	// their deadline became unmeetable (ErrShed; WithShedding).
	Shed uint64
	// BreakerTrips counts circuit-breaker activations.
	BreakerTrips uint64
	// ChaosKills counts instances killed by chaos injection (WithChaos);
	// they are replaced like crashes but not counted in Crashes.
	ChaosKills uint64
	// ChaosDelays counts requests delayed by chaos latency injection.
	ChaosDelays uint64
	// Batches counts coalesced batch dispatches (WithBatching): each is one
	// queue slot and one instance hand-off covering several served requests.
	// Zero when batching is disabled or every request bypassed the batcher.
	Batches uint64
	// MemErrors aggregates the memory-error telemetry of every instance
	// the engine has ever owned: the live pool is scraped (legal because
	// EventLog is concurrency-safe) and the logs of crashed, replaced
	// instances are folded in at retirement, so counts never disappear
	// when the supervisor replaces a child.
	MemErrors fo.LogSnapshot
}

// add accumulates o's counters into s (MemErrors merged); the Router uses
// it to aggregate shard stats.
func (s *Stats) add(o Stats) {
	s.Served += o.Served
	s.Crashes += o.Crashes
	s.Restarts += o.Restarts
	s.Recycles += o.Recycles
	s.Timeouts += o.Timeouts
	s.Rewound += o.Rewound
	s.Rejected += o.Rejected
	s.Shed += o.Shed
	s.BreakerTrips += o.BreakerTrips
	s.ChaosKills += o.ChaosKills
	s.ChaosDelays += o.ChaosDelays
	s.Batches += o.Batches
	s.MemErrors.Merge(o.MemErrors)
}

// Metrics is the full observability snapshot: the counter Stats plus the
// live request-latency histogram.
type Metrics struct {
	Stats
	// Latency covers every executed request (any outcome), measured
	// around instance execution; queue-expired requests are excluded.
	Latency LatencySnapshot
}

// Engine dispatches requests across a supervised pool of instances. All
// methods are safe for concurrent use.
type Engine struct {
	srv  servers.Server
	mode fo.Mode
	o    options

	// Exactly one of tasks/q is non-nil: the plain bounded queue, or the
	// deadline-aware shedding queue (WithShedding).
	tasks chan *task
	q     *shedQueue

	// b coalesces submissions into batch wrapper tasks ahead of the queue
	// (WithBatching); nil when batching is disabled.
	b *batcher

	// closing is canceled by Close; its Done channel doubles as the
	// engine-wide shutdown signal, and in-flight interpreter work is
	// canceled through it so Close never waits on a stuck request.
	closing   context.Context
	closeFunc context.CancelFunc
	wg        sync.WaitGroup
	once      sync.Once

	served, crashes, restarts, timeouts, rewound, rejected, trips, batches atomic.Uint64

	// shedCount counts ErrShed drops (incremented inside the shed queue).
	shedCount atomic.Uint64

	// breakerOpen gauges how many workers are currently parked in (or
	// half-opening out of) a breaker cooldown. Tripped() reads it; the
	// Router uses it as the shard health signal for rebalancing.
	breakerOpen atomic.Int64

	// gen is the instance generation: Recycle bumps it, and every worker
	// replaces its instance before executing its next request once its
	// instance's generation is stale. recycles counts those replacements.
	gen      atomic.Uint64
	recycles atomic.Uint64

	// taskSeq numbers executed requests engine-wide; chaos injection keys
	// off it (see ChaosConfig). chaosKills / chaosDelays count injections.
	taskSeq, chaosKills, chaosDelays atomic.Uint64

	// spares holds pre-warmed replacement instances tagged with the
	// generation they were created under (nil when warm spares are
	// disabled). A filler goroutine blocks on sending into it, so the
	// standby set refills itself as soon as a spare is taken; stale-
	// generation spares are discarded at take time.
	spares chan spare

	latency hist

	// obsMu guards the memory-error aggregation state: the set of live
	// instance logs (scraped on Stats) and the folded counters of retired
	// instances. Scrapes (memErrors) take the read lock — concurrent
	// scrapers share it, so a polled stats endpoint never convoys — and
	// only instance turnover (adopt/retire) takes the write lock. Lock
	// order: obsMu before any EventLog's own mutex.
	obsMu    sync.RWMutex
	liveLogs map[*fo.EventLog]struct{}
	liveList []*fo.EventLog // flat copy of liveLogs keys, rebuilt on turnover: scrapes range a slice, not a map
	retired  fo.LogSnapshot
}

// spare is a pre-warmed replacement instance plus the generation it was
// created under (stale spares are discarded, not served).
type spare struct {
	inst servers.Instance
	gen  uint64
}

type task struct {
	ctx  context.Context
	req  servers.Request
	resp chan taskResult // buffered(1): workers never block on reply
	enq  time.Time       // when the task entered the queue (sojourn basis)

	// batch, when non-nil, marks this task as a batch wrapper (WithBatching):
	// it carries no request of its own, occupies one queue slot, and the
	// worker executes each sub-task in order under a shared checkpoint epoch
	// (serveBatch). Wrapper tasks have ctx == context.Background() — each
	// sub-request's own deadline is enforced at execution time — and their
	// resp channel is unused: replies (including queue-level errors such as
	// ErrShed) fan out to the sub-tasks' channels via answer.
	batch []*task
}

// taskPool recycles task structs (and their reply channels) across
// Submits: two allocations per request on the small-op hot path otherwise.
// Reuse is safe because each task's reply channel sees exactly one send —
// by the worker that executed it or by the shedding queue — so once the
// submitter has received the reply the channel is empty and unreferenced.
// Tasks abandoned on engine close (Submit returned ErrClosed while the
// task was still queued or executing) are NOT pooled: a late worker send
// may still arrive, and recycling the channel would cross-deliver it.
var taskPool = sync.Pool{
	New: func() any { return &task{resp: make(chan taskResult, 1)} },
}

// getTask checks a task out of the pool, initialized for one submission.
// enq is stamped by the caller only when a consumer needs it (the shedding
// queue's sojourn clock) — a clock read costs real time on the small-op
// hot path, so the plain bounded queue skips it.
func getTask(ctx context.Context, req servers.Request) *task {
	t := taskPool.Get().(*task)
	t.ctx, t.req = ctx, req
	return t
}

// putTask returns a finished task to the pool, dropping reference-holding
// fields so pooled tasks don't pin contexts or request payloads.
func putTask(t *task) {
	t.ctx = nil
	t.req = servers.Request{}
	t.batch = nil
	taskPool.Put(t)
}

// taskResult is a worker's (or the shedding queue's) answer to a task:
// either a response or a terminal submission error such as ErrShed.
type taskResult struct {
	resp servers.Response
	err  error
}

// New builds the pool (failing fast on invalid options or if instances
// cannot be created) and starts one worker goroutine per instance.
func New(srv servers.Server, mode fo.Mode, opts ...Option) (*Engine, error) {
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	if err := o.validate(); err != nil {
		return nil, err
	}
	closing, closeFunc := context.WithCancel(context.Background())
	e := &Engine{
		srv:       srv,
		mode:      mode,
		o:         o,
		closing:   closing,
		closeFunc: closeFunc,
		liveLogs:  make(map[*fo.EventLog]struct{}, o.poolSize),
	}
	if o.shed.enabled() {
		e.q = newShedQueue(o.queueDepth, o.shed, &e.shedCount)
	} else {
		e.tasks = make(chan *task, o.queueDepth)
	}
	if o.batchMax > 0 {
		e.b = newBatcher(e)
	}
	insts := make([]servers.Instance, o.poolSize)
	gens := make([]uint64, o.poolSize)
	for i := range insts {
		// Same discipline as the filler: read the generation before
		// creating, so a Recycle racing construction can only make the
		// instance look stale (recycled at its first request), never
		// current-but-old. The worker goroutine must not read the
		// generation itself — it may first be scheduled long after a
		// swap, which would tag this old-program instance as current.
		gens[i] = e.gen.Load()
		inst, err := srv.New(mode)
		if err != nil {
			return nil, fmt.Errorf("serve: spawn %s/%v child %d: %w", srv.Name(), mode, i, err)
		}
		insts[i] = inst
		e.adoptLog(inst.Log())
	}
	for i, inst := range insts {
		e.wg.Add(1)
		go e.worker(inst, gens[i])
	}
	if o.warmSpares > 0 {
		e.spares = make(chan spare, o.warmSpares)
		e.wg.Add(1)
		go e.filler()
	}
	return e, nil
}

// filler keeps the warm-spare channel topped up: it creates instances ahead
// of demand and blocks sending into the bounded channel, waking exactly when
// a respawn takes a spare. Creation errors back off briefly so a persistent
// failure cannot spin the goroutine. Each spare is tagged with the
// generation read *before* creation, so a hot-swap racing the spawn can only
// mark the spare stale (discarded at take time), never fresh.
func (e *Engine) filler() {
	defer e.wg.Done()
	for {
		select {
		case <-e.closing.Done():
			return
		default:
		}
		gen := e.gen.Load()
		inst, err := e.srv.New(e.mode)
		if err != nil {
			if !e.sleep(e.o.backoffBase) {
				return
			}
			continue
		}
		select {
		case e.spares <- spare{inst: inst, gen: gen}:
		case <-e.closing.Done():
			releaseInstance(inst)
			return
		}
	}
}

// takeSpare returns a warm spare created under the current generation, if
// one is ready. Spares from an older generation are released and skipped —
// serving a stale program after a hot-swap would undo the swap.
func (e *Engine) takeSpare() (servers.Instance, bool) {
	if e.spares == nil {
		return nil, false
	}
	cur := e.gen.Load()
	for {
		select {
		case sp := <-e.spares:
			if sp.gen == cur {
				return sp.inst, true
			}
			releaseInstance(sp.inst)
		default:
			return nil, false
		}
	}
}

// releaseInstance returns a retired instance's pooled memory, when the
// instance supports it (servers.Base does).
func releaseInstance(inst servers.Instance) {
	if r, ok := inst.(interface{ Release() }); ok {
		r.Release()
	}
}

// adoptLog registers a live instance's event log for scraping.
func (e *Engine) adoptLog(l *fo.EventLog) {
	if l == nil {
		return
	}
	e.obsMu.Lock()
	e.liveLogs[l] = struct{}{}
	e.rebuildLiveList()
	e.obsMu.Unlock()
}

// retireLog folds a dead instance's event log into the retired aggregate so
// its counts survive the instance's replacement.
func (e *Engine) retireLog(l *fo.EventLog) {
	if l == nil {
		return
	}
	e.obsMu.Lock()
	delete(e.liveLogs, l)
	e.rebuildLiveList()
	e.retired.Merge(l.Snapshot())
	e.obsMu.Unlock()
}

// rebuildLiveList refreshes the flat scrape list from liveLogs; callers
// hold obsMu. Turnover is rare (instance creation and retirement), scrapes
// are hot — paying a rebuild here buys memErrors a slice walk instead of a
// map iteration per scrape.
func (e *Engine) rebuildLiveList() {
	e.liveList = e.liveList[:0]
	for l := range e.liveLogs {
		e.liveList = append(e.liveList, l)
	}
}

// memErrors aggregates the retired instances' counters with a live scrape
// of every current instance's log. O(live pool): retired logs were folded
// into the cached aggregate at retirement (retireLog), so a restart storm
// does not grow the scrape. Read lock only — scrapers run concurrently
// with each other and never block the serving path, whose hot counters
// are lock-free (fo.EventLog).
func (e *Engine) memErrors(agg *fo.LogSnapshot) {
	e.obsMu.RLock()
	defer e.obsMu.RUnlock()
	agg.Merge(e.retired)
	for _, l := range e.liveList {
		l.AddTo(agg)
	}
}

// Mode returns the pool's execution mode.
func (e *Engine) Mode() fo.Mode { return e.mode }

// Tripped reports whether the circuit breaker currently holds at least one
// worker parked in its cooldown (or half-open, still failing to produce a
// replacement instance). It is the engine's liveness signal for cluster
// front ends: a Router temporarily routes a tripped shard's traffic to
// healthy shards and restores it when Tripped turns false (the worker came
// back with a fresh instance). Safe from any goroutine.
func (e *Engine) Tripped() bool { return e.breakerOpen.Load() > 0 }

// PoolSize returns the number of workers.
func (e *Engine) PoolSize() int { return e.o.poolSize }

// Recycle bumps the engine's instance generation: every worker retires its
// (healthy) instance and creates a replacement before executing its next
// request, and stale warm spares are discarded at take time. In-flight
// requests finish on the instances that started them, so no request fails —
// this is the engine half of zero-downtime program hot-swap (the other half
// is an atomically swappable server factory; see SwapServer and Router).
// The replacement wave is lazy: an idle worker recycles when its next
// request arrives.
//
// Recycle also resets the shedding queue's service-time estimate: the EWMA
// describes the outgoing program, and stale estimates would misdrive
// unmeetable-deadline shedding for its replacement.
func (e *Engine) Recycle() {
	e.gen.Add(1)
	if e.q != nil {
		e.q.resetServiceEstimate()
	}
}

// Stats returns a snapshot of the engine counters, including the
// aggregated memory-error telemetry of all instances past and present. It
// is safe to call from any goroutine at any time, including while the pool
// is serving.
func (e *Engine) Stats() Stats {
	s := Stats{
		Served:       e.served.Load(),
		Crashes:      e.crashes.Load(),
		Restarts:     e.restarts.Load(),
		Recycles:     e.recycles.Load(),
		Timeouts:     e.timeouts.Load(),
		Rewound:      e.rewound.Load(),
		Rejected:     e.rejected.Load(),
		Shed:         e.shedCount.Load(),
		BreakerTrips: e.trips.Load(),
		ChaosKills:   e.chaosKills.Load(),
		ChaosDelays:  e.chaosDelays.Load(),
		Batches:      e.batches.Load(),
	}
	e.memErrors(&s.MemErrors)
	return s
}

// Metrics returns the full observability snapshot: Stats plus the live
// request-latency histogram (p50/p95/p99 without waiting for a post-hoc
// load report).
func (e *Engine) Metrics() Metrics {
	return Metrics{Stats: e.Stats(), Latency: e.latency.snapshot()}
}

// Submit dispatches one request and blocks until its response. It returns
// ErrQueueFull immediately when the admission queue is at capacity (with
// shedding enabled: at capacity with every queued request still able to
// meet its deadline), ErrShed when the request was queued but aged out of
// its deadline under overload, and ErrClosed when the engine is (or
// becomes) closed. A nil ctx means no caller-side cancellation; the
// engine's configured deadline, if any, is applied on top of ctx in either
// case. Deadline expiry of an admitted-and-executed request is reported as
// a Response with fo.OutcomeDeadline, not an error: the request was
// admitted and accounted, it just ran out of time.
func (e *Engine) Submit(ctx context.Context, req servers.Request) (servers.Response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if e.o.deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.o.deadline)
		defer cancel()
	}
	t := getTask(ctx, req)
	if e.q != nil {
		t.enq = time.Now() // sojourn basis for the shedding queue
	}
	if e.b != nil && e.b.admit(t) {
		// Coalesced: the batcher owns admission now. A reply — the executed
		// response, or the batch's admission error — arrives on t.resp.
		return e.await(t)
	}
	if e.q != nil {
		if err := e.q.push(t); err != nil {
			if errors.Is(err, ErrQueueFull) {
				e.rejected.Add(1)
			}
			putTask(t) // never enqueued: nothing can send on it
			return servers.Response{}, err
		}
	} else {
		select {
		case e.tasks <- t:
		case <-e.closing.Done():
			putTask(t) // never enqueued: nothing can send on it
			return servers.Response{}, ErrClosed
		default:
			e.rejected.Add(1)
			putTask(t) // never enqueued: nothing can send on it
			return servers.Response{}, ErrQueueFull
		}
	}
	return e.await(t)
}

// await blocks on an admitted task's reply (or engine shutdown) and
// recycles the task once its single reply has been received.
func (e *Engine) await(t *task) (servers.Response, error) {
	select {
	case r := <-t.resp:
		putTask(t) // the single send was received: channel drained
		return r.resp, r.err
	case <-e.closing.Done():
		// Abandoned mid-flight: a worker may still send a late reply, so
		// this task (and its channel) must not be recycled.
		return servers.Response{}, ErrClosed
	}
}

// Close shuts the engine down and waits for the workers to exit. In-flight
// requests are canceled through the interpreter's cancellation hook, and
// Submits blocked on them return ErrClosed. Close is idempotent.
func (e *Engine) Close() {
	e.once.Do(func() {
		e.closeFunc()
		if e.q != nil {
			e.q.close()
		}
	})
	e.wg.Wait()
	if e.spares != nil {
		// The filler has exited; drain any remaining pre-warmed instances
		// and return their pooled memory.
		for {
			select {
			case sp := <-e.spares:
				releaseInstance(sp.inst)
			default:
				return
			}
		}
	}
}

// next blocks until a task is available on whichever queue the engine runs,
// returning false when the engine is closing.
func (e *Engine) next() (*task, bool) {
	if e.q != nil {
		return e.q.pop()
	}
	select {
	case <-e.closing.Done():
		return nil, false
	case t := <-e.tasks:
		return t, true
	}
}

// worker owns one instance: it pulls tasks from the shared queue, executes
// them under the task context, and supervises its instance across crashes
// and hot-swap recycles. instGen is the generation read before inst was
// created (see New) — passed in rather than loaded here because the
// goroutine may first run after a swap has already bumped the generation.
func (e *Engine) worker(inst servers.Instance, instGen uint64) {
	defer e.wg.Done()
	consecutive := 0 // crashes since the last successful response
	for {
		t, ok := e.next()
		if !ok {
			return
		}
		if t.batch != nil {
			inst = e.serveBatch(inst, &instGen, &consecutive, t)
		} else {
			inst = e.serveTask(inst, &instGen, &consecutive, t, nil)
		}
		if inst == nil {
			return // engine closed mid-task
		}
	}
}

// serveBatch dispatches a coalesced batch wrapper: one recycle check and —
// under the rewind policy — one checkpoint epoch for the whole batch, then
// each sub-request end to end with its own deadline check, outcome,
// latency sample, and reply. A mid-batch crash retires the instance and the
// remaining sub-requests continue on the replacement (serveTask re-arms the
// epoch per sub-request, since a rewind or a replacement consumes it).
// Returns the (possibly replaced) instance, or nil when the engine closed.
func (e *Engine) serveBatch(inst servers.Instance, instGen *uint64, consecutive *int, bt *task) servers.Instance {
	// Hot-swap recycle point, hoisted to batch granularity: between
	// requests, and before execution, so the whole batch is served by the
	// new program.
	if inst = e.maybeRecycle(inst, instGen); inst == nil {
		return nil
	}
	e.batches.Add(1)
	// One cancellation bind for the whole batch: sub-requests without
	// caller cancellation execute under the engine's closing context, and
	// binding it here once makes each sub-request's own BindContext of the
	// same context free — a context bind costs a watcher goroutine, the
	// single biggest fixed per-request cost on the small-op path.
	var release func()
	bind := func(i servers.Instance) {
		if bb, ok := i.(batchBinder); ok {
			release = bb.BindBatch(e.closing)
		}
	}
	unbind := func() {
		if release != nil {
			release()
			release = nil
		}
	}
	bind(inst)
	// One shared clock for the whole batch: each sub-request's latency is
	// measured boundary to boundary (N+1 clock reads instead of 2N — clock
	// reads are a measurable slice of the small-op serving cost).
	clock := time.Now()
	for _, sub := range bt.batch {
		prev := inst
		if inst = e.serveTask(inst, instGen, consecutive, sub, &clock); inst == nil {
			// Engine closed mid-batch; the unserved submitters unblock
			// through the closing context. The watcher exits with it.
			unbind()
			return nil
		}
		if inst != prev {
			// Crash mid-batch: the bind followed the retired instance's
			// machine; release it and bind the replacement.
			unbind()
			bind(inst)
		}
	}
	unbind()
	if be, ok := inst.(batchEpocher); ok {
		// Commit the epoch left open by the last sub-request (no-op if a
		// rewind or crash already consumed it).
		be.EndBatch()
	}
	return inst
}

// serveTask runs one request end to end on inst: queued-expiry check,
// chaos injection, execution with accounting, the reply, and crash
// supervision (retire + respawn with backoff/breaker). A non-nil clock
// marks a sub-request of a coalesced batch: the per-request recycle point
// is skipped (serveBatch checked once for the whole batch), the batch
// checkpoint epoch is (re-)armed before execution, and latency is
// measured against *clock — the previous sub-request's end boundary —
// which serveTask advances. Returns the (possibly replaced) instance, or
// nil when the engine closed.
func (e *Engine) serveTask(inst servers.Instance, instGen *uint64, consecutive *int, t *task, clock *time.Time) servers.Instance {
	if err := t.ctx.Err(); err != nil {
		// Expired while queued: answer without burning the
		// instance on a request nobody is waiting for.
		e.timeouts.Add(1)
		t.resp <- taskResult{resp: servers.Response{Outcome: fo.OutcomeDeadline, Err: err}}
		return inst
	}
	var seq uint64
	if e.o.chaos.enabled() {
		seq = e.taskSeq.Add(1)
		if c := e.o.chaos; c.LatencyEvery > 0 && seq%c.LatencyEvery == 0 {
			e.chaosDelays.Add(1)
			if !e.sleep(c.Latency) {
				return nil // engine closed mid-delay
			}
		}
	}
	var resp servers.Response
	if err := t.ctx.Err(); err != nil {
		// Expired during the injected chaos delay: answer
		// deterministically instead of racing the handler against
		// the interpreter's cancellation poll (a short handler
		// could finish before the first poll and mask the expiry).
		// Control falls through to the chaos kill check below —
		// overlapping kill and delay cadences must not mask each
		// other.
		e.timeouts.Add(1)
		resp = servers.Response{Outcome: fo.OutcomeDeadline, Err: err}
	} else {
		if clock == nil {
			// Hot-swap recycle point: between requests, so the retiring
			// instance has no work in flight, and before execution, so
			// this request is already served by the new program.
			if inst = e.maybeRecycle(inst, instGen); inst == nil {
				return nil // engine closed while replacing the instance
			}
		} else if be, ok := inst.(batchEpocher); ok {
			// (Re-)arm the batch checkpoint epoch: idempotent while open,
			// and restores it after a rewind consumed it or a crash
			// replaced the instance mid-batch.
			be.BeginBatch()
		}
		var t0 time.Time
		if clock != nil {
			t0 = *clock
		} else {
			t0 = time.Now()
		}
		resp = e.execute(inst, t)
		now := time.Now()
		if clock != nil {
			*clock = now
		}
		d := now.Sub(t0)
		e.latency.record(d)
		if e.q != nil {
			e.q.observe(d)
		}
		e.served.Add(1)
		switch resp.Outcome {
		case fo.OutcomeDeadline:
			e.timeouts.Add(1)
		case fo.OutcomeRewound:
			// Rewound requests release their slot and feed the
			// latency/served accounting exactly like any executed
			// request; the instance survives (Crashed() is false).
			e.rewound.Add(1)
		}
	}
	t.resp <- taskResult{resp: resp}
	killed := false
	if c := e.o.chaos; c.KillEvery > 0 && seq > 0 && seq%c.KillEvery == 0 {
		if k, ok := inst.(interface{ Kill() }); ok {
			k.Kill()
			e.chaosKills.Add(1)
			killed = true
		}
	}
	if resp.Crashed() || !inst.Alive() {
		if resp.Crashed() || !killed {
			// Organic crash: count it and grow the backoff. A
			// chaos kill takes the same retire/respawn path but
			// is accounted separately and respawns immediately.
			e.crashes.Add(1)
			*consecutive++
		}
		e.retireLog(inst.Log())
		releaseInstance(inst)
		*instGen = e.gen.Load()
		inst = e.respawn(consecutive)
		if inst == nil {
			return nil // engine closed while backing off
		}
	} else if resp.Outcome == fo.OutcomeOK {
		*consecutive = 0
	}
	return inst
}

// maybeRecycle replaces inst when a Recycle has bumped the engine's
// instance generation since inst was created: the healthy old instance is
// retired (its telemetry folded into the aggregate, its pooled memory
// released) and a fresh instance — warm spare of the current generation or
// cold spawn — takes its place. Called between requests, so the swap never
// interrupts in-flight work. Returns inst unchanged when the generation is
// current, and nil when the engine closed mid-replacement.
func (e *Engine) maybeRecycle(inst servers.Instance, instGen *uint64) servers.Instance {
	if e.gen.Load() == *instGen {
		return inst
	}
	e.retireLog(inst.Log())
	releaseInstance(inst)
	for {
		// Read the generation before creating, so a swap racing the spawn
		// can only make this replacement look stale (recycled again on the
		// next request), never current-but-old.
		*instGen = e.gen.Load()
		if ni, ok := e.takeSpare(); ok {
			e.recycles.Add(1)
			e.adoptLog(ni.Log())
			return ni
		}
		ni, err := e.srv.New(e.mode)
		if err == nil {
			e.recycles.Add(1)
			e.adoptLog(ni.Log())
			return ni
		}
		if !e.sleep(e.o.backoffBase) {
			return nil
		}
	}
}

// execute runs one task on inst under a context that is canceled either by
// the task's own deadline or by engine shutdown, so a stuck request never
// pins a worker past Close.
func (e *Engine) execute(inst servers.Instance, t *task) servers.Response {
	if t.ctx.Done() == nil {
		// The task context can never cancel (no caller cancellation, no
		// deadline), so the composite "task or shutdown" context is the
		// engine's own closing context — skip the per-request WithCancel +
		// AfterFunc wiring, which costs two allocations and a cancellation
		// subscription on the small-op hot path.
		return inst.HandleContext(e.closing, t.req)
	}
	ctx, cancel := context.WithCancel(t.ctx)
	defer cancel()
	stop := context.AfterFunc(e.closing, cancel)
	defer stop()
	return inst.HandleContext(ctx, t.req)
}

// respawn replaces a crashed instance, applying capped exponential backoff
// between consecutive crashes and tripping the circuit breaker on a restart
// storm. It returns nil when the engine closes while waiting.
func (e *Engine) respawn(consecutive *int) servers.Instance {
	// A pre-warmed spare replaces the crashed child with no in-line
	// creation cost and no backoff: the spawn already happened off the
	// serving path. When crashes outpace the filler the channel is empty
	// and replacement falls through to the cold path below.
	if inst, ok := e.takeSpare(); ok {
		e.restarts.Add(1)
		e.adoptLog(inst.Log())
		return inst
	}
	// The breaker-open gauge covers the whole park-to-replacement window:
	// raised at the trip, held through half-open retries, dropped when this
	// worker produces an instance (or the engine closes) — so Tripped()
	// reads true for exactly as long as this worker cannot serve.
	tripped := false
	defer func() {
		if tripped {
			e.breakerOpen.Add(-1)
		}
	}()
	for {
		switch {
		case e.o.breakerAfter > 0 && *consecutive >= e.o.breakerAfter:
			// Restart storm: stop hot-restarting, park for the cooldown,
			// then half-open — try one fresh instance. The gauge is raised
			// before the trip counter so an observer that sees the counter
			// move (Stats) is guaranteed to see Tripped() — the router's
			// rebalancer keys off exactly that ordering.
			if !tripped {
				tripped = true
				e.breakerOpen.Add(1)
			}
			e.trips.Add(1)
			if !e.sleep(e.o.breakerCool) {
				return nil
			}
			*consecutive = 1
		case *consecutive > 1:
			if !e.sleep(e.backoff(*consecutive)) {
				return nil
			}
		}
		inst, err := e.srv.New(e.mode)
		if err != nil {
			*consecutive++
			continue
		}
		e.restarts.Add(1)
		e.adoptLog(inst.Log())
		return inst
	}
}

// backoff returns the delay before the k-th consecutive restart:
// min(base<<(k-2), max) — the first restart after an isolated crash is
// immediate (the paper's pool regenerates children eagerly), the second
// waits base, doubling up to the cap.
func (e *Engine) backoff(k int) time.Duration {
	shift := uint(k - 2)
	if shift > 20 {
		return e.o.backoffMax
	}
	d := e.o.backoffBase << shift
	if d <= 0 || d > e.o.backoffMax {
		d = e.o.backoffMax
	}
	return d
}

// sleep waits for d, returning false if the engine closed first.
func (e *Engine) sleep(d time.Duration) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-e.closing.Done():
		return false
	}
}
