package interp

// Runtime support for the generated-code engine: the registry of
// ahead-of-time generated programs (focc -emit-go / cmd/gencorpus) and the
// exported Gen* helpers the emitted Go source calls. Every helper is a
// thin wrapper over the exact machinery the tree-walk engine executes —
// step budget, cycle charging, policy accessors, frame protocol — so
// outcomes, event logs, and simulated cycles stay bit-identical between
// the two engines by construction. The generated code wins wall-clock
// time purely by eliminating per-node dispatch (AST type switches), never
// by changing a decision point.

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"

	"focc/internal/cc/token"
	"focc/internal/cc/types"
	"focc/internal/core"
	"focc/internal/mem"
)

// GenLive is always true. Emitted code wraps unconditional control
// transfers (return, goto, break) in `if interp.GenLive { ... }` so the
// generated source never contains statically unreachable statements —
// `go vet`'s unreachable check gates CI, and straight-line emission after
// a transfer would otherwise trip it.
var GenLive = true

// GenFn is a generated function: the ahead-of-time analogue of
// callFunction for one C function. The wrapper emitted by
// internal/gen performs the full call protocol (step, arity check, frame
// push, parameter binding, body, frame pop, return conversion).
type GenFn func(m *Machine, args []Value, pos token.Pos) Value

// GenProgram is the generated engine for one program: the product of
// `focc -emit-go`, registered by the generated package's init function
// and matched to its source by hash.
type GenProgram struct {
	// Hash identifies the exact (filename, source) pair the code was
	// generated from; see SourceHash.
	Hash string
	// NumSites is the number of provenance-recovery access sites; each
	// machine allocates one LookupCache per site (Machine.csite).
	NumSites int
	// Builtins maps builtin-slot id -> builtin name (Machine.builtinSlots).
	Builtins []string
	// Funcs maps C function names to their generated wrappers.
	Funcs map[string]GenFn
}

var (
	genMu  sync.RWMutex
	genReg = map[string]*GenProgram{}
)

// RegisterGenerated publishes a generated program, keyed by its source
// hash. Generated packages call it from init; later registrations for the
// same hash replace earlier ones (regeneration in tests).
func RegisterGenerated(p *GenProgram) {
	genMu.Lock()
	genReg[p.Hash] = p
	genMu.Unlock()
}

// GeneratedFor returns the registered generated program for a source hash.
func GeneratedFor(hash string) (*GenProgram, bool) {
	genMu.RLock()
	p, ok := genReg[hash]
	genMu.RUnlock()
	return p, ok
}

// SourceHash is the identity under which generated code is registered: it
// covers both the file name and the exact source text, because positions
// baked into the generated code (event-log attribution) depend on both.
func SourceHash(filename, src string) string {
	h := sha256.Sum256([]byte(filename + "\x00" + src))
	return hex.EncodeToString(h[:])
}

// --- Call protocol ---

// GenStep consumes one interpreter step (budget, cycles, cancellation).
func (m *Machine) GenStep() { m.step() }

// GenFailf aborts with a runtime error, like the evaluator's failf.
func (m *Machine) GenFailf(pos token.Pos, format string, args ...any) {
	m.failf(pos, format, args...)
}

// GenPushFrame pushes a stack frame, failing the call on a stack fault.
func (m *Machine) GenPushFrame(spec *mem.FrameSpec) *mem.Frame {
	frame, fault := m.as.PushFrame(spec)
	if fault != nil {
		m.fail(fault)
	}
	return frame
}

// GenPopFrame pops the frame, detecting canary smashes at return.
func (m *Machine) GenPopFrame(f *mem.Frame) {
	if fault := m.as.PopFrame(f); fault != nil {
		m.fail(fault)
	}
}

// GenExec runs a generated function body with the engine's frame/return
// bookkeeping and the TxTerm policy's function-boundary recovery. A body
// returns its C return value; a zero Value (nil T) means the function fell
// off the end (or was aborted by TxTerm), exactly like retVal in the
// other engines.
func (m *Machine) GenExec(f *mem.Frame, body func(*Machine, *mem.Frame) Value) Value {
	savedRet, savedFrame := m.retVal, m.frame
	m.retVal = Value{}
	m.frame = f
	ret := m.execGenBody(f, body)
	m.retVal, m.frame = savedRet, savedFrame
	return ret
}

func (m *Machine) execGenBody(f *mem.Frame, body func(*Machine, *mem.Frame) Value) (ret Value) {
	if m.acc.Mode() != core.TxTerm {
		return body(m, f)
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
			// Transactional function termination: zero return value, caller
			// continues (see execBody).
			ret = Value{}
			return
		}
		panic(r)
	}()
	return body(m, f)
}

// GenArgs takes an argument slice from the freelist; GenPutArgs returns it.
func (m *Machine) GenArgs(n int) []Value { return m.getArgs(n) }
func (m *Machine) GenPutArgs(s []Value)  { m.putArgs(s) }

// GenBuiltin resolves the builtin for a generated call-site slot.
func (m *Machine) GenBuiltin(slot int, name string, pos token.Pos) BuiltinFunc {
	return m.builtinAt(slot, name, pos)
}

// findUnitSite resolves addr through the generated site's lookup cache —
// the slice-indexed analogue of findUnitAt's map keyed by AST node. A
// negative site id means "no dedicated cache" (machine-wide cache only).
func (m *Machine) findUnitSite(sid int32, addr uint64) *mem.Unit {
	if sid < 0 {
		return m.FindUnit(addr)
	}
	c := &m.csite[sid]
	if u := m.as.Probe(c, addr); u != nil {
		return u
	}
	u := m.FindUnit(addr)
	m.as.FillCache(c, u)
	return u
}

// builtinAt resolves the builtin for a generation-time call-site slot,
// memoizing per machine so repeated calls skip the map lookup.
func (m *Machine) builtinAt(slot int, name string, pos token.Pos) BuiltinFunc {
	if impl := m.builtinSlots[slot]; impl != nil {
		return impl
	}
	impl, ok := m.builtins[name]
	if !ok {
		m.failf(pos, "builtin %q has no host implementation", name)
	}
	m.builtinSlots[slot] = impl
	return impl
}

// --- Memory access ---

// GenChargeAccess charges one trusted direct access (loadRaw's flat cost);
// the emitted scalar fast paths inline the decode and charge through here.
func (m *Machine) GenChargeAccess() { m.simCycles += AccessCycles }

// GenLocal resolves a frame local by offset with the tree-walk engine's
// nil-slot diagnostic; emitted code uses Frame.LocalAt when the slot index
// is known at generation time and falls back here otherwise.
func (m *Machine) GenLocal(off uint64, name string, pos token.Pos) *mem.Unit {
	u := m.frame.Local(off)
	if u == nil {
		m.failf(pos, "internal: no frame slot for %q", name)
	}
	return u
}

// GenGlobal returns the unit of global index i.
func (m *Machine) GenGlobal(i int) *mem.Unit { return m.globals[i] }

// GenLiteral returns the unit of string-literal index i.
func (m *Machine) GenLiteral(i int) *mem.Unit { return m.literals[i] }

// GenLoadRaw reads a typed value directly from a unit (trusted access),
// with the generated engine's slice-indexed provenance-recovery cache.
func (m *Machine) GenLoadRaw(u *mem.Unit, off uint64, t *types.Type, sid int32) Value {
	m.simCycles += AccessCycles
	size := t.Size()
	switch {
	case t.IsPointer():
		addr := uint64(decodeLE(u.Data[off:off+8], false))
		prov := u.GetShadow(off)
		if prov == nil && addr != 0 {
			prov = m.findUnitSite(sid, addr)
		}
		return Value{T: t, Ptr: core.Pointer{Addr: addr, Prov: prov}}
	case t.Kind == types.Struct:
		b := make([]byte, size)
		copy(b, u.Data[off:off+size])
		return Value{T: t, Bytes: b}
	default:
		return Value{T: t, I: decodeLE(u.Data[off:off+size], t.IsSigned())}
	}
}

// GenLoadValue reads a typed value through the policy (checked access);
// the generated analogue of loadValue with a compile-time provenance site
// id (sid) and the canonical load-site id (lsid) that primes the
// context-aware value strategy.
func (m *Machine) GenLoadValue(p core.Pointer, t *types.Type, pos token.Pos, sid, lsid int32) Value {
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
	m.primeSite(lsid, t, int(size))
	buf := m.scratch[:size]
	prov, err := m.acc.Load(p, buf, pos)
	if err != nil {
		m.fail(err)
	}
	if t.IsPointer() {
		addr := uint64(decodeLE(buf, false))
		if prov == nil && addr != 0 {
			prov = m.findUnitSite(sid, addr)
		}
		return Value{T: t, Ptr: core.Pointer{Addr: addr, Prov: prov}}
	}
	return Value{T: t, I: decodeLE(buf, t.IsSigned())}
}

// GenStoreRaw writes a value directly into a unit (trusted store).
func (m *Machine) GenStoreRaw(u *mem.Unit, off uint64, t *types.Type, v Value) {
	m.storeRaw(u, off, t, v)
}

// GenStoreValue writes a typed value through the policy (checked store).
func (m *Machine) GenStoreValue(p core.Pointer, t *types.Type, v Value, pos token.Pos) {
	m.storeValue(p, t, v, pos)
}

// GenZeroFill zeroes a local's storage for aggregate initialization.
func (m *Machine) GenZeroFill(u *mem.Unit, off, n uint64) { m.zeroFill(u, off, n) }

// --- Operators ---

// GenConvert coerces a value to type t with C conversion semantics.
func (m *Machine) GenConvert(v Value, t *types.Type, pos token.Pos) Value {
	return m.convert(v, t, pos)
}

// GenBinaryOp computes a non-short-circuit binary operation; the emitted
// guarded fast paths fall back here whenever an operand's runtime type is
// not the statically annotated one.
func (m *Machine) GenBinaryOp(op token.Kind, x, y Value, rt *types.Type, pos token.Pos) Value {
	return m.binaryOp(op, x, y, rt, pos)
}

// GenAddDelta implements ++/-- stepping for integers and pointers.
func (m *Machine) GenAddDelta(v Value, delta int64, pos token.Pos) Value {
	return m.addDelta(v, delta, pos)
}

// GenPromote applies the integer promotions (non-integers promote to long,
// matching the evaluator's promoteType).
func GenPromote(t *types.Type) *types.Type { return promoteType(t) }
