// Package fo is the public API of focc, a reproduction of failure-oblivious
// computing (Rinard et al., OSDI 2004). It compiles programs written in the
// focc C dialect and executes them under one of five memory-access policies:
//
//	fo.Standard          unsafe C semantics (crashes, corruption)
//	fo.BoundsCheck       CRED safe-C: terminate at the first memory error
//	fo.FailureOblivious  discard invalid writes, manufacture invalid reads
//	fo.Boundless         store invalid writes in a side hash table (§5.1)
//	fo.Redirect          wrap out-of-bounds offsets into the unit (§5.1)
//	fo.ModeRewind        checkpoint per request; roll back on memory error
//	fo.ModeFOContext     failure-oblivious with per-site manufactured values
//
// Quickstart:
//
//	prog, err := fo.Compile("demo.c", src)
//	m, err := prog.NewMachine(fo.MachineConfig{Mode: fo.FailureOblivious})
//	res := m.Run()
package fo

import (
	"errors"
	"fmt"
	"strings"

	"focc/internal/cc/cpp"
	"focc/internal/cc/parser"
	"focc/internal/cc/sema"
	"focc/internal/core"
	"focc/internal/interp"
	"focc/internal/libc"
	"focc/internal/mem"
)

// Mode selects the compilation/execution policy.
type Mode = core.Mode

// Execution modes (see package comment).
const (
	Standard         = core.Standard
	BoundsCheck      = core.BoundsCheck
	FailureOblivious = core.FailureOblivious
	Boundless        = core.Boundless
	Redirect         = core.Redirect
	// TxTerm is the transactional-function-termination comparison policy
	// from the paper's §5.2 related-work discussion.
	TxTerm = core.TxTerm
	// ModeRewind is the rewind-and-discard policy: checkpoint the address
	// space at each request boundary and, when a memory error is detected,
	// roll the request back (OutcomeRewound) instead of manufacturing a
	// value or terminating — FO-grade availability with zero corrupted
	// output.
	ModeRewind = core.ModeRewind
	// ModeFOContext is failure-oblivious computing with context-aware
	// manufactured values: each load site classified by its static
	// context (string scan, pointer read, reload) manufactures through
	// its own strategy instead of the one global sequence. Same decision
	// points and simulated-cycle cost as FailureOblivious; configure via
	// MachineConfig.Strategy (nil provisions the per-program default
	// engine). See internal/strategy and DESIGN.md §17.
	ModeFOContext = core.ModeFOContext
)

// ParseMode parses a mode name ("standard", "bounds", "oblivious",
// "boundless", "redirect", "txterm", "rewind", "fo-context").
func ParseMode(s string) (Mode, error) { return core.ParseMode(s) }

// Re-exported execution types; see the internal packages for details.
type (
	// Machine is one running program instance (a simulated process).
	// Run/Call execute C functions; RunContext/CallContext are the
	// context-aware variants that cancel mid-execution (OutcomeDeadline)
	// without killing the machine.
	Machine = interp.Machine
	// Result is the outcome of a Run or Call.
	Result = interp.Result
	// Value is a C runtime value.
	Value = interp.Value
	// Outcome classifies how an execution ended.
	Outcome = interp.Outcome
	// EventLog is the memory-error log (paper §3). All EventLog methods
	// are safe for concurrent use; see internal/core for the guarantee.
	EventLog = core.EventLog
	// Event is one logged memory-error event.
	Event = core.Event
	// LogSnapshot is a point-in-time copy of an EventLog's aggregate
	// counters and histograms (a plain mergeable value).
	LogSnapshot = core.Snapshot
	// LogCursor marks a position in an EventLog; pair with Since for
	// per-request event attribution.
	LogCursor = core.Cursor
	// LogDelta is the events recorded between a LogCursor and Since —
	// the per-request attribution carried on servers.Response.
	LogDelta = core.Delta
	// ValueGenerator supplies manufactured values for invalid reads.
	ValueGenerator = core.ValueGenerator
	// ContextGenerator is the context-aware manufactured-value interface
	// ModeFOContext consults: primed with (load-site id, static type,
	// access width) before every checked load. internal/strategy provides
	// the site-table implementation; set it via MachineConfig.Strategy.
	ContextGenerator = core.ContextGenerator
)

// Engine names an execution engine; see MachineConfig.Engine.
type Engine = interp.Engine

// Execution engines. Both produce identical results, event logs and
// simulated cycles; they differ in wall-clock dispatch cost only.
const (
	// EngineAuto runs the generated engine when one is registered for
	// the program, else the tree-walk evaluator (Program.NewMachine).
	EngineAuto = interp.EngineAuto
	// EngineTreeWalk is the AST-walking reference evaluator: the oracle
	// the generated engine is diffed against, and the engine of every
	// program with no generated code (focc, hot-swapped sources).
	EngineTreeWalk = interp.EngineTreeWalk
	// EngineGenerated is the ahead-of-time generated Go code
	// (focc -emit-go), linked in by importing its package.
	EngineGenerated = interp.EngineGenerated
)

// Outcome values.
const (
	OutcomeOK                  = interp.OutcomeOK
	OutcomeSegfault            = interp.OutcomeSegfault
	OutcomeHeapCorruption      = interp.OutcomeHeapCorruption
	OutcomeStackSmash          = interp.OutcomeStackSmash
	OutcomeBadFree             = interp.OutcomeBadFree
	OutcomeMemErrorTermination = interp.OutcomeMemErrorTermination
	OutcomeHang                = interp.OutcomeHang
	OutcomeExit                = interp.OutcomeExit
	OutcomeStackOverflow       = interp.OutcomeStackOverflow
	OutcomeOOM                 = interp.OutcomeOOM
	OutcomeRuntimeError        = interp.OutcomeRuntimeError
	// OutcomeDeadline is a call canceled by its context (see
	// Machine.CallContext); the machine survives it.
	OutcomeDeadline = interp.OutcomeDeadline
	// OutcomeRewound is a call rolled back by the ModeRewind policy after
	// a detected memory error; the machine survives with no surviving
	// mutations from the failed request.
	OutcomeRewound = interp.OutcomeRewound
)

// NewSmallIntGenerator returns the paper's manufactured-value sequence
// (0, 1, 2, 0, 1, 3, …).
func NewSmallIntGenerator() ValueGenerator { return core.NewSmallIntGenerator() }

// NewZeroGenerator returns the naive all-zeros generator (ablation only; it
// can hang programs, as the paper's Midnight Commander anecdote shows).
func NewZeroGenerator() ValueGenerator { return core.ZeroGenerator{} }

// NewEventLog returns a memory-error log retaining up to limit events
// (0 = default).
func NewEventLog(limit int) *EventLog { return core.NewEventLog(limit) }

// Int builds an int argument value for Machine.Call.
func Int(v int64) Value { return interp.Int(v) }

// MachineConfig configures program instances. The zero value runs in
// Standard mode with no output.
type MachineConfig = interp.Config

// Program is a compiled focc program; machines (instances) are cheap to
// create from it.
type Program struct {
	sema *sema.Program
	name string
	hash string
}

// CompileError aggregates compilation diagnostics.
type CompileError struct {
	Stage string // "preprocess", "parse", "analyze"
	Errs  []error
}

func (e *CompileError) Error() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s failed with %d error(s):", e.Stage, len(e.Errs))
	for i, err := range e.Errs {
		if i == 8 {
			fmt.Fprintf(&sb, "\n\t... and %d more", len(e.Errs)-i)
			break
		}
		sb.WriteString("\n\t")
		sb.WriteString(err.Error())
	}
	return sb.String()
}

// Unwrap exposes the individual diagnostics.
func (e *CompileError) Unwrap() []error { return e.Errs }

// StandardHeaders returns the virtual header filesystem available to
// #include. All the usual names map to a tiny prelude; libc prototypes are
// injected by the analyzer, not the headers.
func StandardHeaders() map[string]string {
	const stddef = `#ifndef _FOCC_STDDEF_H
#define _FOCC_STDDEF_H
#define NULL ((void*)0)
typedef unsigned long size_t;
typedef long ssize_t;
typedef long ptrdiff_t;
#endif
`
	alias := "#include <stddef.h>\n"
	return map[string]string{
		"stddef.h": stddef,
		"stdlib.h": alias,
		"string.h": alias,
		"stdio.h":  alias,
		"ctype.h":  alias,
		"limits.h": `#ifndef _FOCC_LIMITS_H
#define _FOCC_LIMITS_H
#define CHAR_BIT 8
#define CHAR_MAX 127
#define CHAR_MIN (-128)
#define INT_MAX 2147483647
#define INT_MIN (-2147483647-1)
#define UINT_MAX 4294967295U
#define LONG_MAX 9223372036854775807L
#endif
`,
	}
}

// CompileOptions tunes compilation.
type CompileOptions struct {
	// Includes adds or overrides virtual headers for #include.
	Includes map[string]string
	// Defines predefines object-like macros.
	Defines map[string]string
}

// Compile preprocesses, parses, and analyzes one focc C source file.
func Compile(filename, src string) (*Program, error) {
	return CompileWith(filename, src, CompileOptions{})
}

// CompileWith compiles with explicit options.
func CompileWith(filename, src string, opt CompileOptions) (*Program, error) {
	includes := StandardHeaders()
	for k, v := range opt.Includes {
		includes[k] = v
	}
	lines, errs := cpp.Preprocess(filename, src, cpp.Options{
		Includes: includes,
		Defines:  opt.Defines,
	})
	if len(errs) > 0 {
		return nil, &CompileError{Stage: "preprocess", Errs: errs}
	}
	file, errs := parser.Parse(filename, lines)
	if len(errs) > 0 {
		return nil, &CompileError{Stage: "parse", Errs: errs}
	}
	prog, errs := sema.Analyze(file, libc.Prototypes())
	if len(errs) > 0 {
		return nil, &CompileError{Stage: "analyze", Errs: errs}
	}
	return &Program{sema: prog, name: filename, hash: interp.SourceHash(filename, src)}, nil
}

// Name returns the source file name the program was compiled from.
func (p *Program) Name() string { return p.name }

// Sema exposes the analyzed program (for tools and tests).
func (p *Program) Sema() *sema.Program { return p.sema }

// SourceHash is the identity under which ahead-of-time generated code for
// this program registers itself (see focc -emit-go and cmd/gencorpus): a
// hash of the exact (filename, source) pair.
func (p *Program) SourceHash() string { return p.hash }

// Generated returns the registered ahead-of-time generated engine for
// this program's source, if its generated package is linked in.
func (p *Program) Generated() (*interp.GenProgram, bool) {
	return interp.GeneratedFor(p.hash)
}

// Compiled returns the registered generated engine, like Generated, or
// nil when none is linked in. It does no work.
//
// Deprecated: Compiled exists only for the serving benchmark (perfbench),
// which times it as its "lower" setup layer; no engine lowers a program.
// Use Generated.
func (p *Program) Compiled() *interp.GenProgram {
	gp, _ := interp.GeneratedFor(p.hash)
	return gp
}

// NewMachine creates a fresh program instance ("process") under cfg. The
// libc builtins are installed automatically; cfg.Builtins entries override
// or extend them. cfg.Engine picks the execution engine. Left unset
// (EngineAuto, with no explicit Generated program), the instance runs the
// program's ahead-of-time generated engine when its generated package is
// linked in (registered by source hash), and otherwise the tree-walk
// evaluator. EngineGenerated fails with a regeneration hint when no
// generated engine is registered; EngineTreeWalk always starts.
func (p *Program) NewMachine(cfg MachineConfig) (*Machine, error) {
	builtins := libc.Builtins()
	for name, impl := range cfg.Builtins {
		builtins[name] = impl
	}
	cfg.Builtins = builtins
	if cfg.Engine != EngineTreeWalk && cfg.Generated == nil {
		gp, ok := interp.GeneratedFor(p.hash)
		if !ok && cfg.Engine == EngineGenerated {
			return nil, fmt.Errorf("program startup: no generated code registered for %s (source hash %.12s); regenerate with `go generate ./...` or `focc -emit-go`", p.name, p.hash)
		}
		cfg.Generated = gp
	}
	m, err := interp.New(p.sema, cfg)
	if err != nil {
		return nil, fmt.Errorf("program startup: %w", err)
	}
	return m, nil
}

// Run compiles src and runs main() under mode — the one-call convenience
// used by the quickstart example.
func Run(filename, src string, mode Mode, cfg MachineConfig) (Result, error) {
	prog, err := Compile(filename, src)
	if err != nil {
		return Result{}, err
	}
	cfg.Mode = mode
	m, err := prog.NewMachine(cfg)
	if err != nil {
		return Result{}, err
	}
	return m.Run(), nil
}

// ErrIsMemError reports whether err (possibly wrapped) is a BoundsCheck
// memory-error termination.
func ErrIsMemError(err error) bool {
	var me *core.MemError
	return errors.As(err, &me)
}

// Unit is a data unit in the simulated address space (a global, heap block,
// string literal, or stack variable).
type Unit = mem.Unit

// UnitPointer returns a char* value addressing the start of unit u —
// typically obtained from Machine.GlobalUnit.
func UnitPointer(u *Unit) Value { return interp.UnitPointer(u) }
