// Package interp executes analyzed focc programs in a simulated address
// space, routing every C-level load and store through a core.Accessor — the
// pluggable checking + continuation code that implements the paper's
// compilation modes.
package interp

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"sync/atomic"

	"focc/internal/cc/ast"
	"focc/internal/cc/sema"
	"focc/internal/cc/token"
	"focc/internal/cc/types"
	"focc/internal/core"
	"focc/internal/mem"
	"focc/internal/strategy"
)

// Value is a runtime value: an integer (I, sign-extended to 64 bits), a
// pointer (Ptr), or a struct (Bytes).
type Value struct {
	T     *types.Type
	I     int64
	Ptr   core.Pointer
	Bytes []byte // struct-by-value payload
}

// Int returns an int Value.
func Int(v int64) Value { return Value{T: types.IntType, I: v} }

// Long returns a long Value.
func Long(v int64) Value { return Value{T: types.LongType, I: v} }

// IsNull reports whether a pointer value is null.
func (v Value) IsNull() bool { return v.Ptr.Addr == 0 }

// Truthy reports C truthiness.
func (v Value) Truthy() bool {
	if v.T != nil && v.T.IsPointer() {
		return v.Ptr.Addr != 0
	}
	return v.I != 0
}

// BuiltinFunc is a host-provided (libc) function. Builtins receive the call
// site position so memory errors inside libc are attributed to the caller.
type BuiltinFunc func(m *Machine, pos token.Pos, args []Value) Value

// Outcome classifies how an execution ended.
type Outcome int

// Outcomes.
const (
	// OutcomeOK: the call completed normally.
	OutcomeOK Outcome = iota
	// OutcomeSegfault: simulated SIGSEGV (Standard mode).
	OutcomeSegfault
	// OutcomeHeapCorruption: allocator abort on smashed headers.
	OutcomeHeapCorruption
	// OutcomeStackSmash: clobbered canary detected at return.
	OutcomeStackSmash
	// OutcomeBadFree: free() of an invalid pointer.
	OutcomeBadFree
	// OutcomeMemErrorTermination: the BoundsCheck policy exited with a
	// memory error message (the paper's safe-C behaviour).
	OutcomeMemErrorTermination
	// OutcomeHang: the step budget was exhausted (infinite loop).
	OutcomeHang
	// OutcomeExit: the program called exit().
	OutcomeExit
	// OutcomeStackOverflow: stack arena exhausted.
	OutcomeStackOverflow
	// OutcomeOOM: heap region exhausted.
	OutcomeOOM
	// OutcomeRuntimeError: other fatal runtime error (division by zero,
	// missing function, internal limits).
	OutcomeRuntimeError
	// OutcomeDeadline: the call was canceled by its context (deadline or
	// cancellation) before completing. Unlike the crash outcomes the
	// machine survives: the stack is unwound and the instance keeps
	// serving further calls.
	OutcomeDeadline
	// OutcomeRewound: the rewind policy (core.ModeRewind) detected a
	// memory error and rolled the address space back to the checkpoint
	// taken at request entry. Only this request failed — no value was
	// manufactured and no mutation survived; the machine stays alive and
	// keeps serving.
	OutcomeRewound
)

func (o Outcome) String() string {
	switch o {
	case OutcomeOK:
		return "ok"
	case OutcomeSegfault:
		return "segfault"
	case OutcomeHeapCorruption:
		return "heap-corruption"
	case OutcomeStackSmash:
		return "stack-smash"
	case OutcomeBadFree:
		return "bad-free"
	case OutcomeMemErrorTermination:
		return "memory-error-termination"
	case OutcomeHang:
		return "hang"
	case OutcomeExit:
		return "exit"
	case OutcomeStackOverflow:
		return "stack-overflow"
	case OutcomeOOM:
		return "out-of-memory"
	case OutcomeRuntimeError:
		return "runtime-error"
	case OutcomeDeadline:
		return "deadline-exceeded"
	case OutcomeRewound:
		return "rewound"
	}
	return "unknown"
}

// Crashed reports whether the outcome represents abnormal termination of
// the process. A deadline-exceeded or rewound call is not a crash: the
// machine unwinds (or rolls back) and keeps serving.
func (o Outcome) Crashed() bool {
	return o != OutcomeOK && o != OutcomeExit && o != OutcomeDeadline &&
		o != OutcomeRewound
}

// Result is the outcome of a Run or Call.
type Result struct {
	Outcome  Outcome
	Value    Value // return value when Outcome is OutcomeOK
	ExitCode int   // when Outcome is OutcomeExit
	Err      error // detail for abnormal outcomes
	Steps    uint64
}

// Config configures a Machine.
type Config struct {
	Mode core.Mode
	// Gen supplies manufactured values; nil means the paper's
	// small-integer sequence.
	Gen core.ValueGenerator
	// Strategy is the context-aware manufactured-value engine consulted
	// in ModeFOContext (per-load-site strategies; see internal/strategy).
	// Nil in that mode provisions the default engine for the program:
	// classified site table, context-informed defaults, Gen (or the
	// paper's sequence) as the fallback strategy. Ignored in other modes.
	Strategy core.ContextGenerator
	// Log receives memory-error events; nil allocates a fresh log.
	Log *core.EventLog
	// Out receives program output (printf); nil discards it.
	Out io.Writer
	// MaxSteps bounds interpreter steps per Call; 0 means DefaultMaxSteps.
	MaxSteps uint64
	// StackSize overrides the stack arena size.
	StackSize uint64
	// Builtins are the host (libc) functions.
	Builtins map[string]BuiltinFunc
	// WrapAccessor, when non-nil, wraps the machine's policy accessor at
	// creation time. It is the fault-injection hook point
	// (internal/inject): the wrapper sees every interpreter-level load and
	// store before (or instead of) the underlying policy. Production code
	// leaves it nil, which costs nothing.
	WrapAccessor func(core.Accessor) core.Accessor
	// Engine selects the execution engine. The zero value, EngineAuto,
	// runs Generated if set, else the tree-walk reference;
	// fo.Program.NewMachine first fills in the program's registered
	// generated engine. Naming an engine pins it: EngineGenerated runs
	// the generated engine (fo.Program.NewMachine supplies its program;
	// interp.New fails without one), EngineTreeWalk ignores Generated.
	// Machine.Engine reports the engine a machine runs.
	Engine Engine
	// Generated is the ahead-of-time generated engine for the program
	// (focc -emit-go): the machine dispatches calls to the emitted Go
	// functions instead of interpreting. The generated code must have
	// been emitted from the exact source this program was analyzed from
	// (fo.Program.NewMachine resolves it by source hash).
	Generated *GenProgram
}

// Engine names an execution engine. Both are bit-identical in results,
// event logs and simulated cycles; they differ in wall-clock dispatch
// cost only.
type Engine uint8

// Execution engines.
const (
	// EngineAuto lets the configuration choose (see Config.Engine).
	EngineAuto Engine = iota
	// EngineTreeWalk is the AST-walking reference evaluator (eval.go).
	EngineTreeWalk
	// EngineGenerated is the ahead-of-time generated Go code (genrt.go).
	EngineGenerated
)

func (e Engine) String() string {
	switch e {
	case EngineAuto:
		return "auto"
	case EngineTreeWalk:
		return "tree-walk"
	case EngineGenerated:
		return "codegen"
	}
	return "unknown"
}

// DefaultMaxSteps is the per-call step budget used to detect hangs.
const DefaultMaxSteps = 50_000_000

// Machine executes one program instance.
type Machine struct {
	prog *sema.Program
	as   *mem.AddressSpace
	acc  core.Accessor
	log  *core.EventLog
	out  io.Writer

	globals  []*mem.Unit
	literals []*mem.Unit
	builtins map[string]BuiltinFunc

	steps     uint64
	maxSteps  uint64
	simCycles uint64
	checked   bool // mode performs per-access checks

	// ctxGen is the context-aware manufactured-value engine (ModeFOContext
	// only, nil otherwise). Every checked load primes it with the
	// canonical load-site id before consulting the accessor; see
	// primeSite.
	ctxGen core.ContextGenerator

	// retVal / gotoLabel / frame carry control-flow and frame state
	// during execution.
	retVal    Value
	gotoLabel string
	frame     *mem.Frame

	specCache map[*ast.FuncDecl]*frameSpec
	hostState map[string]any

	// gprog is the ahead-of-time generated engine (nil: tree-walk), and
	// engine names whichever of the two runs. csite holds this machine's
	// provenance-recovery caches for the generated code's access sites
	// (slice-indexed by site id — the generated analogue of siteCache),
	// and builtinSlots memoizes builtin resolution per call-site slot.
	gprog        *GenProgram
	engine       Engine
	csite        []mem.LookupCache
	builtinSlots []BuiltinFunc

	// luCache is the machine-wide monomorphic (last-unit) lookup cache,
	// and siteCache holds one cache line per AST access site — both
	// consulted before the object table on the slow pointer-provenance
	// recovery paths. See mem/fastpath.go for the coherence contract.
	luCache   mem.LookupCache
	siteCache map[ast.Node]*mem.LookupCache

	// argFree recycles argument slices across evalCall invocations.
	argFree [][]Value

	// argScope is set between BeginRequestArgs and EndRequestArgs; args
	// holds the request-scoped NewCString blocks, oldest first.
	argScope bool
	args     []*mem.Unit

	// scratch stages scalar loads/stores so the hot access path performs
	// no allocations (the interpreter is single-threaded per machine).
	scratch  [8]byte
	scratch2 [8]byte

	dead bool // a previous Call crashed; the process is gone

	// batchCkpt is the batch-granularity rewind checkpoint
	// (BeginBatchEpoch): while it is set, top-level calls share it instead
	// of opening per-call checkpoints. Single-goroutine like the rest of
	// the machine.
	batchCkpt *mem.Checkpoint

	// cancel is the cancellation hook: set (from any goroutine) by the
	// watcher BindContext installs, polled by the step loop. cancelCtx
	// holds the bound context so the deadline result can report ctx.Err().
	// Everything else on the machine is single-goroutine.
	cancel    atomic.Bool
	cancelCtx context.Context
}

// panics used for non-local exits inside the evaluator.
type (
	execPanic   struct{ err error }
	exitPanic   struct{ code int }
	hangPanic   struct{}
	cancelPanic struct{}
)

// runtimeErr is a fatal runtime error that is not a memory fault.
type runtimeErr struct {
	Pos token.Pos
	Msg string
}

func (e *runtimeErr) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// New creates a machine for prog and performs program startup (global and
// literal layout plus initializers).
func New(prog *sema.Program, cfg Config) (*Machine, error) {
	stackSize := cfg.StackSize
	if stackSize == 0 {
		stackSize = mem.DefaultStackSize
	}
	as := mem.NewWithStack(stackSize)
	log := cfg.Log
	if log == nil {
		log = core.NewEventLog(0)
	}
	gen := cfg.Gen
	if gen == nil {
		gen = core.NewSmallIntGenerator()
	}
	ctxGen := cfg.Strategy
	if cfg.Mode == core.ModeFOContext {
		if ctxGen == nil {
			ctxGen = strategy.NewEngine(strategy.Classify(prog), nil, cfg.Gen)
		}
		gen = ctxGen
	} else {
		ctxGen = nil
	}
	out := cfg.Out
	if out == nil {
		out = io.Discard
	}
	maxSteps := cfg.MaxSteps
	if maxSteps == 0 {
		maxSteps = DefaultMaxSteps
	}
	acc := core.New(cfg.Mode, as, gen, log)
	if cfg.WrapAccessor != nil {
		acc = cfg.WrapAccessor(acc)
	}
	m := &Machine{
		prog:     prog,
		as:       as,
		acc:      acc,
		log:      log,
		out:      out,
		builtins: cfg.Builtins,
		maxSteps: maxSteps,
		checked:  cfg.Mode != core.Standard,
		ctxGen:   ctxGen,
	}
	engine := cfg.Engine
	if engine == EngineAuto {
		engine = EngineTreeWalk
		if cfg.Generated != nil {
			engine = EngineGenerated
		}
	}
	switch engine {
	case EngineGenerated:
		if cfg.Generated == nil {
			return nil, fmt.Errorf("generated engine selected but no generated program supplied")
		}
		m.gprog = cfg.Generated
		if n := cfg.Generated.NumSites; n > 0 {
			m.csite = make([]mem.LookupCache, n)
		}
		if n := len(cfg.Generated.Builtins); n > 0 {
			m.builtinSlots = make([]BuiltinFunc, n)
		}
	case EngineTreeWalk:
	default:
		return nil, fmt.Errorf("unknown execution engine %d", engine)
	}
	m.engine = engine
	m.literals = make([]*mem.Unit, len(prog.Literals))
	for i, s := range prog.Literals {
		m.literals[i] = as.InternLiteral(s)
	}
	m.globals = make([]*mem.Unit, len(prog.Globals))
	for i, g := range prog.Globals {
		size := g.T.Size()
		if size == 0 {
			size = 1
		}
		m.globals[i] = as.AllocGlobal(g.Name, size)
	}
	for i, g := range prog.Globals {
		if g.Init != nil {
			if err := m.initGlobal(m.globals[i], g.T, g.Init); err != nil {
				return nil, err
			}
		}
	}
	return m, nil
}

// AddressSpace exposes the simulated memory (for libc and tests).
func (m *Machine) AddressSpace() *mem.AddressSpace { return m.as }

// Accessor exposes the active memory policy (for libc).
func (m *Machine) Accessor() core.Accessor { return m.acc }

// Engine reports the execution engine the machine runs (never
// EngineAuto: New resolves the choice).
func (m *Machine) Engine() Engine { return m.engine }

// Mode returns the machine's execution mode.
func (m *Machine) Mode() core.Mode { return m.acc.Mode() }

// Log returns the memory-error event log.
func (m *Machine) Log() *core.EventLog { return m.log }

// Out returns the program output writer.
func (m *Machine) Out() io.Writer { return m.out }

// Steps returns the steps consumed by the last Call.
func (m *Machine) Steps() uint64 { return m.steps }

// Dead reports whether a previous call crashed this machine ("process").
func (m *Machine) Dead() bool { return m.dead }

// Kill marks the machine dead, modeling external process termination
// (chaos injection: a supervisor killing the instance between requests).
// Subsequent calls fail exactly as after a crash. Unlike the cancellation
// hook, Kill is not synchronized — call it only from the goroutine that
// owns the machine, between calls.
func (m *Machine) Kill() { m.dead = true }

// initGlobal writes a constant initializer into a global unit at startup
// (trusted, no policy involved).
func (m *Machine) initGlobal(u *mem.Unit, t *types.Type, init ast.Expr) error {
	return m.writeInit(u, 0, t, init)
}

func (m *Machine) writeInit(u *mem.Unit, off uint64, t *types.Type, init ast.Expr) error {
	switch iv := init.(type) {
	case *ast.IntLit:
		putLEBytes(u.Data[off:off+t.Size()], iv.Val)
		return nil
	case *ast.StringLit:
		lit := m.literals[iv.LitIndex]
		if t.Kind == types.Array {
			copy(u.Data[off:off+t.Size()], lit.Data)
			return nil
		}
		// char *p = "s": store the literal's address.
		putLEBytes(u.Data[off:off+8], int64(lit.Base))
		u.SetShadow(off, lit)
		return nil
	case *ast.InitList:
		switch t.Kind {
		case types.Array:
			es := t.Elem.Size()
			for i, e := range iv.Elems {
				if err := m.writeInit(u, off+uint64(i)*es, t.Elem, e); err != nil {
					return err
				}
			}
			return nil
		case types.Struct:
			for i, e := range iv.Elems {
				if i >= len(t.Rec.Fields) {
					break
				}
				f := t.Rec.Fields[i]
				if err := m.writeInit(u, off+f.Offset, f.Type, e); err != nil {
					return err
				}
			}
			return nil
		default:
			if len(iv.Elems) == 1 {
				return m.writeInit(u, off, t, iv.Elems[0])
			}
		}
	}
	return fmt.Errorf("unsupported global initializer at %s", init.Pos())
}

func putLEBytes(buf []byte, v int64) {
	switch len(buf) {
	case 1:
		buf[0] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(buf, uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(buf, uint32(v))
	case 8:
		binary.LittleEndian.PutUint64(buf, uint64(v))
	default:
		for i := range buf {
			buf[i] = byte(v >> (8 * uint(i)))
		}
	}
}

// Run executes main() and returns its result.
func (m *Machine) Run() Result { return m.Call("main") }

// RunContext executes main(), canceling the execution when ctx is done.
func (m *Machine) RunContext(ctx context.Context) Result {
	return m.CallContext(ctx, "main")
}

// Call invokes a named C function with the given argument values. The step
// counter is reset per call. After a crash the machine is dead and further
// calls return the crash outcome immediately (the "process" is gone).
func (m *Machine) Call(name string, args ...Value) Result {
	return m.call(name, args)
}

// CallContext is Call with cancellation: when ctx is done the interpreter
// aborts at the next step-budget poll, unwinds the simulated stack, and
// returns OutcomeDeadline. The machine stays alive and can serve further
// calls — this is the per-request deadline hook the serving engine uses.
func (m *Machine) CallContext(ctx context.Context, name string, args ...Value) Result {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return Result{Outcome: OutcomeDeadline, Err: err}
		}
		defer m.BindContext(ctx)()
	}
	return m.call(name, args)
}

// BindContext installs ctx as the cancellation source for every call made
// until the returned release function is invoked. It lets a driver bind one
// context around a multi-call request (see servers.Instance.HandleContext).
// The release function must be called from the machine's own goroutine.
func (m *Machine) BindContext(ctx context.Context) (release func()) {
	if ctx == nil || ctx.Done() == nil {
		return func() {}
	}
	if ctx == m.cancelCtx {
		// Already bound to exactly this context (a batch-scope bind around
		// per-request binds of the engine's shutdown context): the existing
		// watcher covers it, so the nested bind is free and its release is
		// a no-op — the outer bind owns the watcher's lifetime.
		return func() {}
	}
	m.cancelCtx = ctx
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		select {
		case <-ctx.Done():
			m.cancel.Store(true)
		case <-stop:
		}
	}()
	return func() {
		close(stop)
		<-done
		m.cancel.Store(false)
		m.cancelCtx = nil
	}
}

// BeginBatchEpoch opens a batch-granularity checkpoint epoch for the
// rewind policy: until EndBatchEpoch (or a rewind), top-level calls share
// one checkpoint instead of opening their own, amortizing the
// checkpoint's fixed cost across a batch of small requests. A detected
// memory error during the epoch rewinds to the epoch's beginning —
// rolling back every call made under it — and consumes the epoch, so the
// driver re-arms with a fresh BeginBatchEpoch before the next call (the
// serving engine does this before every batched sub-request, making the
// call idempotent while an epoch is already open). No-op outside
// ModeRewind, on a dead machine, and when an epoch is already active.
// Must be called between calls (never with guest frames live), from the
// machine's own goroutine.
func (m *Machine) BeginBatchEpoch() {
	if m.dead || m.batchCkpt != nil || m.acc.Mode() != core.ModeRewind {
		return
	}
	m.batchCkpt = m.as.BeginCheckpoint()
}

// EndBatchEpoch commits the open batch epoch, if any: the mutations of
// every call made under it become permanent and the undo log is released.
// Safe to call when no epoch is active (a rewind mid-batch consumes the
// epoch) and on a machine that died mid-batch (committing releases the
// undo log; a dead machine's state is never read again).
func (m *Machine) EndBatchEpoch() {
	if m.batchCkpt == nil {
		return
	}
	m.as.Commit(m.batchCkpt)
	m.batchCkpt = nil
}

func (m *Machine) call(name string, args []Value) (res Result) {
	if m.dead {
		return Result{Outcome: OutcomeRuntimeError,
			Err: fmt.Errorf("machine is dead (previous call crashed)")}
	}
	if m.cancel.Load() {
		return Result{Outcome: OutcomeDeadline, Err: m.cancelErr()}
	}
	m.steps = 0
	entrySP := m.as.SP()
	savedRet, savedFrame, savedGoto := m.retVal, m.frame, m.gotoLabel
	// The rewind policy checkpoints the address space at the request
	// boundary: a detected memory error rolls every mutation back
	// (OutcomeRewound below); every other exit — normal return, exit(),
	// deadline, even a crash — commits. The checkpoint machinery charges
	// no simulated cycles: the cost model's decision points are unchanged,
	// and the policy's real-world overhead is measured in wall-clock
	// benchmarks instead.
	//
	// Under an open batch epoch (BeginBatchEpoch) the call joins the
	// epoch's checkpoint instead of opening its own: commit is deferred to
	// EndBatchEpoch, and a rewind restores the epoch's beginning and
	// consumes the epoch (epochOwned guards both commit sites below).
	var ckpt *mem.Checkpoint
	epochOwned := false
	if m.acc.Mode() == core.ModeRewind {
		if m.batchCkpt != nil {
			ckpt, epochOwned = m.batchCkpt, true
		} else {
			ckpt = m.as.BeginCheckpoint()
		}
	}
	defer func() {
		res.Steps = m.steps
		r := recover()
		if r == nil {
			if ckpt != nil && !epochOwned {
				m.as.Commit(ckpt)
			}
			return
		}
		switch p := r.(type) {
		case exitPanic:
			res = Result{Outcome: OutcomeExit, ExitCode: p.code}
		case hangPanic:
			res = Result{Outcome: OutcomeHang,
				Err: fmt.Errorf("step budget of %d exhausted (infinite loop?)", m.maxSteps)}
			m.dead = true
		case cancelPanic:
			// Abandon the in-flight frames and restore the pre-call frame
			// state: the "process" survives a canceled request.
			m.as.UnwindTo(entrySP)
			m.retVal, m.frame, m.gotoLabel = savedRet, savedFrame, savedGoto
			res = Result{Outcome: OutcomeDeadline, Err: m.cancelErr()}
		case execPanic:
			if ra, ok := p.err.(*core.RewindAbort); ok && ckpt != nil {
				// Rewind-and-discard: restore the checkpoint (stack
				// unwind included) and the pre-call frame state, and
				// fail only this request. The machine stays alive. When
				// the checkpoint is a batch epoch's, the rewind undoes
				// every call made under the epoch and consumes it — the
				// driver re-arms before its next call.
				m.as.Rewind(ckpt)
				ckpt = nil
				if epochOwned {
					m.batchCkpt = nil
				}
				m.retVal, m.frame, m.gotoLabel = savedRet, savedFrame, savedGoto
				res = Result{Outcome: OutcomeRewound, Err: ra}
				break
			}
			res = Result{Outcome: classify(p.err), Err: p.err}
			if res.Outcome.Crashed() {
				m.dead = true
			}
		default:
			panic(r)
		}
		if ckpt != nil && !epochOwned {
			m.as.Commit(ckpt)
		}
		res.Steps = m.steps
	}()

	hostPos := token.Pos{File: "<host>", Line: 1, Col: 1}
	if m.gprog != nil {
		fn, ok := m.gprog.Funcs[name]
		if !ok {
			return Result{Outcome: OutcomeRuntimeError,
				Err: fmt.Errorf("no function %q in program", name)}
		}
		v := fn(m, args, hostPos)
		return Result{Outcome: OutcomeOK, Value: v}
	}
	fd, ok := m.prog.FuncMap[name]
	if !ok {
		return Result{Outcome: OutcomeRuntimeError,
			Err: fmt.Errorf("no function %q in program", name)}
	}
	v := m.callFunction(fd, args, hostPos)
	return Result{Outcome: OutcomeOK, Value: v}
}

// cancelErr reports why the bound context canceled the call.
func (m *Machine) cancelErr() error {
	if m.cancelCtx != nil {
		if err := m.cancelCtx.Err(); err != nil {
			return err
		}
	}
	return context.Canceled
}

func classify(err error) Outcome {
	switch e := err.(type) {
	case *mem.Fault:
		switch e.Kind {
		case mem.FaultSegv:
			return OutcomeSegfault
		case mem.FaultHeapCorrupt:
			return OutcomeHeapCorruption
		case mem.FaultStackSmash:
			return OutcomeStackSmash
		case mem.FaultBadFree:
			return OutcomeBadFree
		case mem.FaultStackOverflow:
			return OutcomeStackOverflow
		case mem.FaultOOM:
			return OutcomeOOM
		}
		return OutcomeSegfault
	case *core.MemError:
		return OutcomeMemErrorTermination
	case *runtimeErr:
		return OutcomeRuntimeError
	}
	return OutcomeRuntimeError
}

// fail aborts execution with err.
func (m *Machine) fail(err error) {
	panic(execPanic{err: err})
}

// failf aborts with a runtime error.
func (m *Machine) failf(pos token.Pos, format string, args ...any) {
	m.fail(&runtimeErr{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// Exit terminates the program with the given status (used by libc exit()).
func (m *Machine) Exit(code int) { panic(exitPanic{code: code}) }

// cancelCheckMask throttles the cancellation poll to every 1024 interpreter
// steps, keeping the atomic load off the per-statement hot path.
const cancelCheckMask = 1<<10 - 1

// step consumes interpreter budget, detects hangs, and polls the
// cancellation hook.
func (m *Machine) step() {
	m.steps++
	m.simCycles += StepCycles
	if m.steps > m.maxSteps {
		panic(hangPanic{})
	}
	if m.steps&cancelCheckMask == 0 && m.cancel.Load() {
		panic(cancelPanic{})
	}
}

// callFunction pushes a frame, binds parameters, executes the body, and
// pops the frame (detecting canary smashes at return, like a real epilogue).
func (m *Machine) callFunction(fd *ast.FuncDecl, args []Value, pos token.Pos) Value {
	m.step()
	if len(args) != len(fd.Params) {
		m.failf(pos, "call of %q with %d args (want %d)", fd.Name, len(args), len(fd.Params))
	}
	spec := m.frameSpec(fd)
	frame, fault := m.as.PushFrame(spec.canary, fd.FrameSize, spec.locals)
	if fault != nil {
		m.fail(fault)
	}
	for i, p := range fd.Params {
		v := m.convert(args[i], p.Type, pos)
		m.storeRaw(frame.Local(p.FrameOff), 0, p.Type, v)
	}
	savedRet, savedFrame := m.retVal, m.frame
	m.retVal = Value{}
	m.frame = frame
	ctl := m.execBody(fd)
	if ctl == ctrlGoto {
		m.failf(fd.Body.Pos(), "goto label %q not found on execution path", m.gotoLabel)
	}
	ret := m.retVal
	m.retVal, m.frame = savedRet, savedFrame
	if fault := m.as.PopFrame(frame); fault != nil {
		// Stack smash detected when the function returns — only
		// possible in Standard mode; checked modes never let writes
		// reach the canary.
		m.fail(fault)
	}
	retT := fd.T.Fn.Ret
	if retT.IsVoid() {
		return Value{T: types.VoidType}
	}
	if ret.T == nil {
		// Fell off the end without a return value: indeterminate in C;
		// supply 0.
		return Value{T: retT}
	}
	return m.convert(ret, retT, pos)
}

// frameSpec holds the per-function frame layout with the diagnostic unit
// names preformatted, so pushing a frame does no string building.
type frameSpec struct {
	canary string
	locals []mem.LocalSpec
}

// newFrameSpec derives the per-local data-unit layout of a function's frame
// from its analyzed symbols. The result is immutable; the tree-walk engine
// keeps a per-machine lazy cache via Machine.frameSpec, and the generated
// engine emits the same layout as static tables.
func newFrameSpec(fd *ast.FuncDecl) *frameSpec {
	spec := &frameSpec{
		canary: "canary:" + fd.Name,
		locals: make([]mem.LocalSpec, 0, len(fd.Locals)),
	}
	for _, sym := range fd.Locals {
		size := sym.Type.Size()
		if size == 0 {
			size = 1
		}
		spec.locals = append(spec.locals, mem.LocalSpec{
			Name: sym.Name + " (" + fd.Name + ")", Off: sym.FrameOff, Size: size,
		})
	}
	return spec
}

// frameSpec caches newFrameSpec per machine (tree-walk engine only).
func (m *Machine) frameSpec(fd *ast.FuncDecl) *frameSpec {
	if spec, ok := m.specCache[fd]; ok {
		return spec
	}
	spec := newFrameSpec(fd)
	if m.specCache == nil {
		m.specCache = map[*ast.FuncDecl]*frameSpec{}
	}
	m.specCache[fd] = spec
	return spec
}

// execBody runs a function body, implementing the TxTerm policy's
// function-boundary recovery: a FuncAbort raised anywhere inside this
// function (including in its callees' argument evaluation) terminates the
// function with a zero return value and lets the caller continue — the
// transactional function termination of the paper's §5.2 comparison.
func (m *Machine) execBody(fd *ast.FuncDecl) (ctl ctrl) {
	if m.acc.Mode() != core.TxTerm {
		return m.execBlock(fd.Body)
	}
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		ep, ok := r.(execPanic)
		if !ok {
			panic(r)
		}
		if _, isAbort := ep.err.(*core.FuncAbort); isAbort {
			m.retVal = Value{}
			ctl = ctrlReturn
			return
		}
		panic(r)
	}()
	return m.execBlock(fd.Body)
}

// storeRaw writes a value directly into a unit (trusted compiler-generated
// store: parameter binding, local init zero-fill, direct named-variable
// assignment). Direct stores can target pre-checkpoint units (globals), so
// they participate in the rewind policy's copy-on-write protocol — a no-op
// pointer compare unless a checkpoint is active.
func (m *Machine) storeRaw(u *mem.Unit, off uint64, t *types.Type, v Value) {
	m.as.NoteMutation(u)
	m.simCycles += AccessCycles
	size := t.Size()
	switch {
	case t.IsPointer():
		putLEBytes(u.Data[off:off+8], int64(v.Ptr.Addr))
		u.SetShadow(off, v.Ptr.Prov)
	case t.Kind == types.Struct:
		copy(u.Data[off:off+size], v.Bytes)
		u.ClearShadowRange(off, size)
	default:
		putLEBytes(u.Data[off:off+size], v.I)
		u.ClearShadowRange(off, size)
	}
}

// --- Checked memory primitives shared with libc ---

// ChargeByteRun charges the simulated-cycle cost of n single-byte checked
// accesses — exactly what a byte-at-a-time LoadByte/StoreByte loop over n
// bytes charges. The libc word-granularity scan paths use it to keep the
// cycle accounting identical to the per-byte loops they replace (the cost
// model in cycles.go is unchanged; only the Go-level work is batched).
func (m *Machine) ChargeByteRun(n int64) {
	if n <= 0 {
		return
	}
	m.simCycles += uint64(n) * AccessCycles
	if m.checked {
		m.simCycles += uint64(n) * CheckCycles
	}
}

// Release returns the machine's pooled memory (stack arena, unit data
// slabs) for reuse by future instances. The machine must never be used
// again afterwards; the serving engine and benchmark harness call this
// when they retire a crashed instance for a pre-warmed replacement.
func (m *Machine) Release() { m.as.Release() }

// primeSite primes the context-aware manufactured-value engine with the
// canonical load site about to be accessed (ModeFOContext; no-op in every
// other mode, and free of simulated-cycle cost — priming is bookkeeping,
// not a check). Site -1 marks accesses with no source-level load site:
// bulk libc operations, aggregate copies, host drivers. Every m.acc.Load
// caller in every engine primes, so the primed site can never go stale
// across engines.
func (m *Machine) primeSite(site int32, t *types.Type, width int) {
	if m.ctxGen != nil {
		m.ctxGen.SetSite(site, t, width)
	}
}

// LoadBytes performs a policy-checked read of n bytes at p.
func (m *Machine) LoadBytes(p core.Pointer, buf []byte, pos token.Pos) {
	m.chargeAccess(len(buf))
	m.primeSite(-1, nil, len(buf))
	if _, err := m.acc.Load(p, buf, pos); err != nil {
		m.fail(err)
	}
}

// StoreBytes performs a policy-checked write at p.
func (m *Machine) StoreBytes(p core.Pointer, data []byte, pos token.Pos) {
	m.chargeAccess(len(data))
	if err := m.acc.Store(p, data, nil, pos); err != nil {
		m.fail(err)
	}
}

// FindUnit resolves addr through the machine's monomorphic lookup cache —
// same results as the address space's FindUnit, without the table search
// when consecutive lookups hit the same unit.
func (m *Machine) FindUnit(addr uint64) *mem.Unit {
	return m.as.FindUnitCached(addr, &m.luCache)
}

// findUnitAt resolves addr consulting the per-site cache for site (when
// non-nil) and the machine-wide cache before the object table. Access
// sites are overwhelmingly monomorphic — a given dereference expression
// keeps hitting the same unit — so this turns the provenance-recovery
// lookups into two pointer compares.
func (m *Machine) findUnitAt(site ast.Node, addr uint64) *mem.Unit {
	if site == nil {
		return m.FindUnit(addr)
	}
	c := m.siteCache[site]
	if c == nil {
		if m.siteCache == nil {
			m.siteCache = make(map[ast.Node]*mem.LookupCache, 32)
		}
		c = new(mem.LookupCache)
		m.siteCache[site] = c
	}
	if u := m.as.Probe(c, addr); u != nil {
		return u
	}
	u := m.FindUnit(addr)
	m.as.FillCache(c, u)
	return u
}

// loadValue reads a typed value through the policy. site, when non-nil, is
// the AST access site, used to cache pointer-provenance recovery.
func (m *Machine) loadValue(p core.Pointer, t *types.Type, pos token.Pos, site ast.Node) Value {
	size := t.Size()
	if size == 0 {
		m.failf(pos, "load of zero-sized type %s", t)
	}
	if t.Kind == types.Struct {
		buf := make([]byte, size)
		m.LoadBytes(p, buf, pos)
		return Value{T: t, Bytes: buf}
	}
	m.chargeAccess(int(size))
	m.primeSite(sema.LoadSiteOf(site), t, int(size))
	buf := m.scratch[:size]
	prov, err := m.acc.Load(p, buf, pos)
	if err != nil {
		m.fail(err)
	}
	if t.IsPointer() {
		addr := uint64(decodeLE(buf, false))
		if prov == nil && addr != 0 {
			// Jones–Kelly object-table recovery for pointers whose
			// shadow provenance was lost (e.g. copied bytewise).
			prov = m.findUnitAt(site, addr)
		}
		return Value{T: t, Ptr: core.Pointer{Addr: addr, Prov: prov}}
	}
	return Value{T: t, I: decodeLE(buf, t.IsSigned())}
}

// storeValue writes a typed value through the policy.
func (m *Machine) storeValue(p core.Pointer, t *types.Type, v Value, pos token.Pos) {
	size := t.Size()
	if t.Kind == types.Struct {
		if err := m.acc.Store(p, v.Bytes, nil, pos); err != nil {
			m.fail(err)
		}
		return
	}
	m.chargeAccess(int(size))
	buf := m.scratch2[:size]
	var prov *mem.Unit
	if t.IsPointer() {
		putLEBytes(buf, int64(v.Ptr.Addr))
		prov = v.Ptr.Prov
	} else {
		putLEBytes(buf, v.I)
	}
	if err := m.acc.Store(p, buf, prov, pos); err != nil {
		m.fail(err)
	}
}

func decodeLE(buf []byte, signed bool) int64 {
	var v uint64
	for i := len(buf) - 1; i >= 0; i-- {
		v = v<<8 | uint64(buf[i])
	}
	if signed {
		shift := uint(64 - 8*len(buf))
		return int64(v<<shift) >> shift
	}
	return int64(v)
}

// convert coerces a value to type t with C conversion semantics.
func (m *Machine) convert(v Value, t *types.Type, pos token.Pos) Value {
	if v.T == t || t.Kind == types.Invalid {
		// Identity fast path: machine-produced values are already
		// truncated to their type's width (loaders, binaryOp, and
		// Truncate maintain that invariant), so same-type conversion is
		// a no-op. Host-injected wide values are truncated by the store
		// that consumes them. Kept in a small wrapper so the common
		// case inlines at call sites.
		return v
	}
	return m.convertSlow(v, t, pos)
}

func (m *Machine) convertSlow(v Value, t *types.Type, pos token.Pos) Value {
	switch {
	case t.Kind == types.Struct:
		if v.T == nil || v.T.Kind != types.Struct {
			m.failf(pos, "cannot convert %s to %s", v.T, t)
		}
		return Value{T: t, Bytes: v.Bytes}
	case t.IsPointer():
		if v.T != nil && (v.T.IsPointer() || v.T.IsArray()) {
			return Value{T: t, Ptr: v.Ptr}
		}
		// Integer to pointer: recover provenance via the object table.
		addr := uint64(v.I)
		var prov *mem.Unit
		if addr != 0 {
			prov = m.FindUnit(addr)
		}
		return Value{T: t, Ptr: core.Pointer{Addr: addr, Prov: prov}}
	case t.IsInteger():
		if v.T != nil && v.T.IsPointer() {
			return Value{T: t, I: types.Truncate(t, int64(v.Ptr.Addr))}
		}
		return Value{T: t, I: types.Truncate(t, v.I)}
	case t.IsVoid():
		return Value{T: types.VoidType}
	}
	m.failf(pos, "unsupported conversion to %s", t)
	return Value{}
}

// --- Host convenience API (drivers, examples) ---

// Malloc allocates a heap block and returns a pointer value to it.
func (m *Machine) Malloc(size uint64) Value {
	u, fault := m.as.Malloc(size)
	if fault != nil {
		m.fail(fault)
	}
	return Value{
		T:   types.PointerTo(types.VoidType),
		Ptr: core.Pointer{Addr: u.Base, Prov: u},
	}
}

// NewCString allocates a heap buffer holding s plus a NUL and returns a
// char* value. When the allocation fails (heap exhaustion, or an injected
// allocator fault) it returns a null pointer — exactly what the C code
// being modeled gets from a failed malloc — rather than panicking: there
// is no Call in flight to recover a failure here, and the mode's policy
// decides what the subsequent dereference of the null request buffer does.
// Inside a request scope (BeginRequestArgs) the block is request-scoped;
// outside one it lives as long as the machine.
func (m *Machine) NewCString(s string) Value {
	u, fault := m.as.Malloc(uint64(len(s)) + 1)
	if fault != nil {
		return Value{T: types.PointerTo(types.CharType)}
	}
	copy(u.Data, s)
	u.Data[len(s)] = 0
	if m.argScope {
		m.args = append(m.args, u)
	}
	return Value{
		T:   types.PointerTo(types.CharType),
		Ptr: core.Pointer{Addr: u.Base, Prov: u},
	}
}

// BeginRequestArgs opens a request scope: the argument blocks NewCString
// allocates until EndRequestArgs are request-scoped. Owning goroutine
// only, between calls.
func (m *Machine) BeginRequestArgs() {
	m.argScope = true
	m.args = m.args[:0]
}

// EndRequestArgs closes the request scope and releases its argument
// blocks, newest first, for as long as each is still the topmost heap
// allocation and no checkpoint (per-call or batch epoch) is open
// (mem.AddressSpace.ReleaseTop). The first block that does not qualify —
// the guest allocated after it, or a batch epoch is open — stops the
// release, and it and the older blocks stay allocated, as they would
// outside a scope. Guest allocations are never released. Without this a
// serving instance's heap grows by every request's arguments, which are
// never freed. Owning goroutine only, between calls.
func (m *Machine) EndRequestArgs() {
	for i := len(m.args) - 1; i >= 0 && m.as.ReleaseTop(m.args[i]); i-- {
	}
	clear(m.args)
	m.args = m.args[:0]
	m.argScope = false
}

// ReadCString reads a NUL-terminated string at p directly from the address
// space (host-side, unchecked), bounded by max bytes.
func (m *Machine) ReadCString(v Value, max int) (string, error) {
	p := v.Ptr
	if p.Addr == 0 {
		return "", fmt.Errorf("null pointer")
	}
	var out []byte
	for i := 0; i < max; i++ {
		var b [1]byte
		if f := m.as.RawRead(p.Addr+uint64(i), b[:]); f != nil {
			return string(out), f
		}
		if b[0] == 0 {
			return string(out), nil
		}
		out = append(out, b[0])
	}
	return string(out), fmt.Errorf("unterminated string after %d bytes", max)
}

// GlobalUnit returns the memory unit of a named global variable.
func (m *Machine) GlobalUnit(name string) (*mem.Unit, bool) {
	for i, g := range m.prog.Globals {
		if g.Name == name {
			return m.globals[i], true
		}
	}
	return nil, false
}

// LiteralPointer returns a char* value for literal table index i.
func (m *Machine) LiteralPointer(i int) Value {
	u := m.literals[i]
	return Value{
		T:   types.PointerTo(types.CharType),
		Ptr: core.Pointer{Addr: u.Base, Prov: u},
	}
}

// Fail aborts execution with err, as if the simulated process faulted. It
// is exported for libc builtins.
func (m *Machine) Fail(err error) { m.fail(err) }

// NoteInvalidFree records a discarded invalid free/realloc in the event log
// (failure-oblivious continuation for allocator misuse).
func (m *Machine) NoteInvalidFree(pos token.Pos, p core.Pointer) {
	m.log.AddExternal(core.Event{
		Pos: pos, Write: true, Addr: p.Addr, Size: 0,
		Unit: "free(invalid)",
	})
}

// LoadPointer performs a checked load of a pointer value at p.
func (m *Machine) LoadPointer(p core.Pointer, pos token.Pos) core.Pointer {
	v := m.loadValue(p, types.PointerTo(types.VoidType), pos, nil)
	return v.Ptr
}

// StorePointer performs a checked store of a pointer value at p.
func (m *Machine) StorePointer(p core.Pointer, v core.Pointer, pos token.Pos) {
	m.storeValue(p, types.PointerTo(types.VoidType),
		Value{T: types.PointerTo(types.VoidType), Ptr: v}, pos)
}

// LoadByte performs a checked single-byte load without allocating.
func (m *Machine) LoadByte(p core.Pointer, pos token.Pos) byte {
	m.chargeAccess(1)
	m.primeSite(-1, nil, 1)
	buf := m.scratch[:1]
	if _, err := m.acc.Load(p, buf, pos); err != nil {
		m.fail(err)
	}
	return buf[0]
}

// StoreByte performs a checked single-byte store without allocating.
func (m *Machine) StoreByte(p core.Pointer, b byte, pos token.Pos) {
	m.chargeAccess(1)
	m.scratch2[0] = b
	if err := m.acc.Store(p, m.scratch2[:1], nil, pos); err != nil {
		m.fail(err)
	}
}

// UnitPointer returns a char* value addressing the start of unit u.
func UnitPointer(u *mem.Unit) Value {
	return Value{
		T:   types.PointerTo(types.CharType),
		Ptr: core.Pointer{Addr: u.Base, Prov: u},
	}
}

// HostState returns a per-machine bag for host-side builtin state (libc's
// rand seed, driver caches). Lazily allocated.
func (m *Machine) HostState() map[string]any {
	if m.hostState == nil {
		m.hostState = map[string]any{}
	}
	return m.hostState
}
