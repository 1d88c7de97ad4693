// Package servers defines the common request/response model shared by the
// five server reproductions from the paper's evaluation (Pine, Apache,
// Sendmail, Midnight Commander, Mutt). Each server package compiles its
// vulnerable request-processing code — written in the focc C dialect, with
// the authentic bug mechanism — once, and creates per-mode instances
// ("processes") from it.
//
// "Once" includes the execution engine: instances are created through
// fo.Program.NewMachine, so every instance of a server shares one
// immutable engine. That is the server's ahead-of-time generated code
// (internal/genservers, DESIGN.md §16) whenever the binary links it — as
// fo/srv does — and otherwise the tree-walk evaluator over the shared
// analyzed program (DESIGN.md §13). Spawning an instance binds machine
// state to the shared engine; nothing is lowered or compiled per
// instance.
package servers

import (
	"context"
	"fmt"

	"focc/fo"
)

// Request is one unit of work submitted to a server instance.
type Request struct {
	// Op names the request type ("read", "compose", "select", "GET", …).
	Op string
	// Arg carries the primary argument (URI, folder name, address, path).
	Arg string
	// Payload carries bulk data (message body, file contents).
	Payload string
}

// Response is the server's reply.
type Response struct {
	// Outcome is how the handling execution ended. OutcomeOK and
	// OutcomeExit are successes; OutcomeDeadline is a timed-out request
	// and OutcomeRewound a request rolled back by the rewind policy —
	// in both the "process" survives. Any other outcome means it crashed
	// or was terminated by the bounds checker (Outcome.Crashed reports
	// this distinction).
	Outcome fo.Outcome
	// Status is the server-level status (protocol-specific: HTTP status,
	// SMTP code, or 0/-N for library calls).
	Status int
	// Body is the response payload.
	Body string
	// Err holds fault detail for crashed outcomes.
	Err error
	// MemErrors attributes the memory-error events logged while this
	// request was being handled to the request that caused them — the
	// per-request event cursor HandleContext takes over the instance's
	// log (Base.Attribute). Zero for requests that committed no memory
	// errors, and for Handle calls made without attribution.
	MemErrors fo.LogDelta
}

// OK reports whether the request was processed by a live server (it may
// still carry an application-level error status — that is the anticipated
// error handling the paper describes).
func (r Response) OK() bool {
	return r.Outcome == fo.OutcomeOK
}

// Crashed reports whether handling the request killed the process.
func (r Response) Crashed() bool { return r.Outcome.Crashed() }

func (r Response) String() string {
	if r.Crashed() {
		return fmt.Sprintf("[%s] %v", r.Outcome, r.Err)
	}
	return fmt.Sprintf("[%d] %s", r.Status, r.Body)
}

// Instance is one running server process under a specific mode.
//
// Concurrency contract: an Instance is NOT safe for concurrent use. It
// models one process with one simulated address space, and exactly one
// goroutine may call Handle/HandleContext at a time (the serve.Engine
// satisfies this by giving every worker goroutine its own instance).
// Alive, Mode, Name are safe to read between requests from the owning
// goroutine; Cycles must only be read while no request is in flight. The
// *EventLog returned by Log is the exception: all of its methods are safe
// to call from any goroutine at any time, including mid-request — that is
// what lets a stats endpoint or supervisor scrape a serving instance live.
//
// Attribution contract: HandleContext brackets the request with a cursor
// over the instance's event log and stamps the events the request caused
// into Response.MemErrors (see Base.Attribute). Plain Handle does not.
type Instance interface {
	// Name identifies the server ("mutt", "apache", …).
	Name() string
	// Mode is the compilation mode the instance runs under.
	Mode() fo.Mode
	// Alive reports whether the process can still serve requests.
	Alive() bool
	// Handle processes one request.
	Handle(Request) Response
	// HandleContext processes one request under ctx: when ctx is done the
	// underlying machine aborts at its next cancellation poll and the
	// response carries fo.OutcomeDeadline. The instance survives a
	// deadline-exceeded request and keeps serving.
	HandleContext(ctx context.Context, req Request) Response
	// Log exposes the instance's memory-error log.
	Log() *fo.EventLog
	// Cycles returns the instance's cumulative simulated cycle count
	// (see the interp package's cost model).
	Cycles() uint64
}

// Server is a compiled server program from which instances are created.
type Server interface {
	Name() string
	// New creates a fresh instance (a "process") under mode.
	New(mode fo.Mode) (Instance, error)
	// LegitRequests returns named representative legitimate requests for
	// the performance figures.
	LegitRequests() []Request
	// AttackRequest returns the documented exploit input.
	AttackRequest() Request
}

// ConfigHook adjusts a machine configuration just before an instance's
// machine is created. The server has already filled in its mode, builtins
// and event log; the hook may override manufactured-value generators, step
// budgets, or install a fault-injection accessor wrapper (internal/inject).
type ConfigHook = func(*fo.MachineConfig)

// Configurable is the optional Server extension for instance creation with
// a configuration hook. All five server reproductions implement it; tooling
// discovers it by type assertion so third-party Server implementations
// (and test stubs) need not.
type Configurable interface {
	// NewWithConfig creates a fresh instance under mode, passing the
	// machine configuration through hook (nil is allowed) before the
	// machine is built.
	NewWithConfig(mode fo.Mode, hook ConfigHook) (Instance, error)
}

// Base carries the pieces every instance shares.
type Base struct {
	ServerName string
	M          *fo.Machine
	EvLog      *fo.EventLog
}

// Name implements Instance.
func (b *Base) Name() string { return b.ServerName }

// Mode implements Instance.
func (b *Base) Mode() fo.Mode { return b.M.Mode() }

// Alive implements Instance.
func (b *Base) Alive() bool { return !b.M.Dead() }

// Log implements Instance.
func (b *Base) Log() *fo.EventLog { return b.EvLog }

// Cycles implements Instance.
func (b *Base) Cycles() uint64 { return b.M.SimCycles() }

// Machine exposes the instance's underlying machine for tooling (fault
// injection, chaos supervisors). Same concurrency contract as the machine
// itself: owning goroutine only.
func (b *Base) Machine() *fo.Machine { return b.M }

// Kill marks the instance's machine dead, modeling external process
// termination (chaos injection). Owning goroutine only, between requests.
func (b *Base) Kill() { b.M.Kill() }

// Release returns the instance's pooled machine memory (stack arena, unit
// data slabs) for reuse by future instances. Call it only when retiring the
// instance for good — after a crash, when a pool replaces it — and never
// use the instance again afterwards. Pools discover it via a type
// assertion on the Instance value.
func (b *Base) Release() { b.M.Release() }

// BindContext binds ctx as the cancellation source of the instance's
// machine for the duration of one request; the returned release function
// must be deferred. Server packages use it together with Attribute to
// implement HandleContext on top of their existing Handle:
//
//	func (inst *Instance) HandleContext(ctx context.Context, req servers.Request) servers.Response {
//		defer inst.BindContext(ctx)()
//		return inst.Attribute(func() servers.Response { return inst.Handle(req) })
//	}
func (b *Base) BindContext(ctx context.Context) (release func()) {
	return b.M.BindContext(ctx)
}

// BeginBatch opens a batch-granularity checkpoint epoch on the instance's
// machine (rewind mode only; no-op otherwise — see fo.Machine.
// BeginBatchEpoch). A serving engine that coalesces several small requests
// onto one dispatch brackets them with BeginBatch/EndBatch so the batch
// pays for one checkpoint instead of one per request; a detected memory
// error rewinds the whole epoch and consumes it, so the engine re-arms
// with BeginBatch before each sub-request (idempotent while open). Owning
// goroutine only, between requests.
func (b *Base) BeginBatch() { b.M.BeginBatchEpoch() }

// EndBatch commits the open batch epoch, if any. Owning goroutine only,
// between requests.
func (b *Base) EndBatch() { b.M.EndBatchEpoch() }

// BindBatch binds ctx as the machine's cancellation source for a whole
// batch of requests: the per-request BindContext of the same context
// inside HandleContext then recognizes it and becomes free, amortizing
// the watcher goroutine a context bind costs across the batch. The
// returned release must be called on the owning goroutine between
// requests.
func (b *Base) BindBatch(ctx context.Context) (release func()) { return b.M.BindContext(ctx) }

// Attribute is the request bracket of HandleContext. It takes a cursor
// over the instance's event log, runs handle, and stamps the events
// recorded in between — the memory errors this request caused — into the
// response's MemErrors field. It also scopes the request's argument
// blocks (the C strings handle passes in through NewCString) to the
// request: they are released at the end of the bracket, so a long-lived
// instance's heap does not grow with every request it serves (see
// fo.Machine.EndRequestArgs for when a block is kept). Plain Handle calls
// outside the bracket keep their arguments for the machine's lifetime.
func (b *Base) Attribute(handle func() Response) Response {
	cur := b.EvLog.Cursor()
	b.M.BeginRequestArgs()
	resp := handle()
	b.M.EndRequestArgs()
	resp.MemErrors = b.EvLog.Since(cur)
	return resp
}

// CallString invokes a C function taking a single C-string argument and
// returns its machine result. The string is heap-allocated in the guest.
func (b *Base) CallString(fn, arg string) fo.Result {
	s := b.M.NewCString(arg)
	return b.M.Call(fn, s)
}

// ResponseFromResult converts a machine result into a Response, reading the
// named global NUL-terminated buffer as the body when the call succeeded.
func (b *Base) ResponseFromResult(res fo.Result, respGlobal string) Response {
	if res.Outcome != fo.OutcomeOK {
		return Response{Outcome: res.Outcome, Err: res.Err}
	}
	body := ""
	if respGlobal != "" {
		if u, ok := b.M.GlobalUnit(respGlobal); ok {
			n := 0
			for n < len(u.Data) && u.Data[n] != 0 {
				n++
			}
			body = string(u.Data[:n])
		}
	}
	return Response{Outcome: fo.OutcomeOK, Status: int(res.Value.I), Body: body}
}
