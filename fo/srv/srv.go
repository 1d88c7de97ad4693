// Package srv is the public serving API: it re-exports the server
// request/response model, the name-keyed registry of the five server
// reproductions from the paper's evaluation, and the serving engines — the
// single-pool Engine and the sharded multi-tenant Router — so external code
// can drive them without importing focc's internal packages.
//
// Quickstart — a failure-oblivious server pool behind a bounded queue:
//
//	server, err := srv.New("apache") // srv.Names() lists all models
//	eng, err := srv.NewEngine(server, fo.FailureOblivious,
//		srv.WithPoolSize(4),
//		srv.WithQueueDepth(64),
//		srv.WithDeadline(time.Second))
//	defer eng.Close()
//	resp, err := eng.Submit(ctx, srv.Request{Op: "GET", Arg: "/index.html"})
//
// Cluster-scale serving — shard by tenant, shed doomed work, adapt
// concurrency to observed latency, hot-swap programs with zero downtime:
//
//	rt, err := srv.NewRouter(server, fo.FailureOblivious,
//		srv.WithShards(4),
//		srv.WithTenantQuota(32),
//		srv.WithAIMD(srv.AIMDConfig{TargetP95: 20 * time.Millisecond}))
//	defer rt.Close()
//	resp, err := rt.Submit(ctx, "tenant-a", req)
//	prev := rt.Swap(nextServer) // zero failed requests during the swap
//
// Observability: eng.Stats() aggregates the memory-error telemetry of every
// instance the engine has owned, eng.Metrics() adds a live latency
// histogram, rt.Stats() adds per-shard and per-tenant breakdowns, responses
// carry per-request event attribution in MemErrors, and MetricsHandler /
// ExpvarPublish export it all over HTTP (see metrics.go and
// examples/webserver).
//
// Execution: importing srv links the five servers' ahead-of-time generated
// engines (internal/genservers, DESIGN.md §16), so their instances run
// generated Go code — the analogue of the paper's compiled, checked C.
// Results, event logs and simulated cycles are identical on both engines;
// only wall-clock cost differs. A server program with no generated form
// (a hot-swapped or third-party source) falls back to the tree-walk
// evaluator automatically; `focc -emit-go` gives it generated code.
package srv

import (
	"context"
	"time"

	"focc/fo"
	_ "focc/internal/genservers" // serve the five servers on generated code
	"focc/internal/serve"
	"focc/internal/servers"
	"focc/internal/servers/registry"
)

// Re-exported server model types; see internal/servers for details.
type (
	// Request is one unit of work submitted to a server instance.
	Request = servers.Request
	// Response is the server's reply.
	Response = servers.Response
	// Instance is one running server process under a specific mode. An
	// Instance is not safe for concurrent use — one goroutine at a time;
	// the Engine gives every worker its own instance.
	Instance = servers.Instance
	// Server is a compiled server program from which instances are made.
	Server = servers.Server
)

// The server registry: the five reproductions from the paper's evaluation
// (§4.2–§4.6), keyed by name. Names returns the catalog, New instantiates
// by name.

// Names returns the registered server model names in the paper's
// presentation order: "pine", "apache", "sendmail", "mc", "mutt".
func Names() []string { return registry.Names() }

// New returns a fresh server model by registry name, or a descriptive
// error listing the valid names.
func New(name string) (Server, error) { return registry.New(name) }

// Re-exported serving-engine types; see internal/serve for details.
type (
	// Engine is the concurrent serving engine: a supervised pool of
	// instances behind a bounded admission queue.
	Engine = serve.Engine
	// Option configures an Engine.
	Option = serve.Option
	// Stats is a snapshot of an Engine's counters.
	Stats = serve.Stats
	// ChaosConfig configures deterministic chaos injection (WithChaos).
	ChaosConfig = serve.ChaosConfig
	// ShedConfig configures the deadline-aware shedding gate on an
	// engine's admission queue (WithShedding / WithShardShedding).
	ShedConfig = serve.ShedConfig
)

// Re-exported router types; see internal/serve/router.go for details.
type (
	// Router consistent-hashes requests by tenant key across a fleet of
	// Engine shards, with per-tenant quotas, an adaptive concurrency
	// limit, and zero-downtime program hot-swap.
	Router = serve.Router
	// RouterOption configures a Router.
	RouterOption = serve.RouterOption
	// RouterStats is a snapshot of a Router and its shard fleet.
	RouterStats = serve.RouterStats
	// TenantStats is one tenant's admission accounting.
	TenantStats = serve.TenantStats
	// AIMDConfig configures the router's adaptive concurrency limit
	// (WithAIMD).
	AIMDConfig = serve.AIMDConfig
	// SwapServer is an atomically swappable Server — the factory half of
	// zero-downtime hot-swap (Router manages one internally; use directly
	// with Engine.Recycle for single-pool swaps).
	SwapServer = serve.SwapServer
)

// Errors returned by Engine.Submit and Router.Submit.
var (
	// ErrQueueFull is the backpressure rejection of a full admission queue.
	ErrQueueFull = serve.ErrQueueFull
	// ErrShed reports an admitted request dropped by the shedding queue
	// because its deadline became unmeetable under overload.
	ErrShed = serve.ErrShed
	// ErrOverQuota rejects a request whose tenant has its full admission
	// quota in flight.
	ErrOverQuota = serve.ErrOverQuota
	// ErrOverLimit rejects a request arriving while the adaptive
	// concurrency limit is saturated.
	ErrOverLimit = serve.ErrOverLimit
	// ErrClosed reports a Submit on a closed engine.
	ErrClosed = serve.ErrClosed
)

// NewEngine starts a serving engine: a pool of srv instances under mode,
// supervised with restart-on-crash, capped exponential backoff, and a
// restart-storm circuit breaker. Invalid option combinations are rejected
// with descriptive errors.
func NewEngine(srv Server, mode fo.Mode, opts ...Option) (*Engine, error) {
	return serve.New(srv, mode, opts...)
}

// NewRouter starts a sharded serving front end over srv: requests are
// consistent-hashed by tenant key across WithShards engine shards, each
// queue running the deadline-aware shedding gate. See Router.
func NewRouter(srv Server, mode fo.Mode, opts ...RouterOption) (*Router, error) {
	return serve.NewRouter(srv, mode, opts...)
}

// NewSwapServer wraps srv so the served program can be atomically replaced
// later (SwapServer.Swap + Engine.Recycle).
func NewSwapServer(srv Server) *SwapServer { return serve.NewSwapServer(srv) }

// WithPoolSize sets the number of worker instances.
func WithPoolSize(n int) Option { return serve.WithPoolSize(n) }

// WithQueueDepth bounds the admission queue (reject-with-backpressure).
func WithQueueDepth(n int) Option { return serve.WithQueueDepth(n) }

// WithDeadline sets the default per-request deadline.
func WithDeadline(d time.Duration) Option { return serve.WithDeadline(d) }

// WithBackoff sets the capped exponential restart backoff.
func WithBackoff(base, max time.Duration) Option { return serve.WithBackoff(base, max) }

// WithBreaker configures the restart-storm circuit breaker.
func WithBreaker(consecutive int, cooldown time.Duration) Option {
	return serve.WithBreaker(consecutive, cooldown)
}

// WithWarmSpares keeps up to n pre-created instances on standby so a
// crashed worker is replaced without paying instance-creation cost on the
// serving path (Apache-style pre-forking).
func WithWarmSpares(n int) Option { return serve.WithWarmSpares(n) }

// WithShedding turns on the CoDel-style deadline-aware shedding gate on
// the engine's bounded admission queue: requests whose deadline has become
// unmeetable are dropped from the front with ErrShed so viable requests
// keep flowing.
func WithShedding(c ShedConfig) Option { return serve.WithShedding(c) }

// WithBatching coalesces queued small requests into batches of up to
// maxBatch dispatched to one worker instance as a unit — one admission
// slot, one instance hand-off, and (under the rewind policy) one
// checkpoint/rewind epoch per batch — amortizing the per-request serving
// overhead that dominates small operations. Per-request semantics are
// preserved: each sub-request gets its own outcome, latency sample, and
// memory-error attribution — but rollback granularity coarsens to the
// batch: a rewind mid-batch discards the whole epoch, including earlier
// sub-requests' guest-state mutations. An incomplete batch flushes after
// maxDelay, and a request whose deadline could not survive waiting
// maxDelay bypasses the batcher entirely.
func WithBatching(maxBatch int, maxDelay time.Duration) Option {
	return serve.WithBatching(maxBatch, maxDelay)
}

// WithChaos enables deterministic process-level chaos injection on the
// engine: every KillEvery-th executed request kills its serving instance
// after responding (the supervisor replaces it), and every LatencyEvery-th
// request is delayed by Latency before execution — long enough a delay
// trips the configured deadline. Injection is counter-keyed, not random;
// see the fault-injection campaign (internal/inject, `fobench -experiment
// campaign`) for seeded plans built on top of it.
func WithChaos(c ChaosConfig) Option { return serve.WithChaos(c) }

// WithShards sets the number of engine shards a Router hashes across.
func WithShards(n int) RouterOption { return serve.WithShards(n) }

// WithShardWeights sets relative capacity weights for the shards: shard i
// receives a share of tenants proportional to weights[i]. Without
// WithShards the shard count is inferred from len(weights); with it the
// lengths must match. NewRouter rejects weights outside [1, 64].
func WithShardWeights(weights ...int) RouterOption { return serve.WithShardWeights(weights...) }

// WithTenantQuota caps each tenant's in-flight requests, so one flooding
// tenant cannot starve the rest (0 = unlimited).
func WithTenantQuota(n int) RouterOption { return serve.WithTenantQuota(n) }

// WithAIMD enables the router-wide adaptive concurrency limit.
func WithAIMD(c AIMDConfig) RouterOption { return serve.WithAIMD(c) }

// WithShardShedding overrides the shedding configuration applied to every
// shard of a Router.
func WithShardShedding(c ShedConfig) RouterOption { return serve.WithShardShedding(c) }

// WithShardOptions appends Engine options applied to every shard of a
// Router.
func WithShardOptions(opts ...Option) RouterOption { return serve.WithShardOptions(opts...) }

// Handle processes one request on inst with ctx bound for cancellation —
// a convenience for driving a single instance without an Engine.
func Handle(ctx context.Context, inst Instance, req Request) Response {
	return inst.HandleContext(ctx, req)
}
