// Package gen is the ahead-of-time code generator: it translates a
// sema-analyzed program into Go source that executes as the second
// engine, next to the tree-walk evaluator it is diffed against.
//
// The emitted code is a statement-by-statement transliteration of the
// tree-walk evaluator (internal/interp/eval.go): every statement charges
// its step at the same point, every access charges the same cycles
// through the same accessor machinery (interp.Gen* helpers wrap loadRaw/
// loadValue/storeRaw/storeValue/convert/binaryOp verbatim), and every
// runtime diagnostic reproduces the evaluator's message and position.
// Outcomes, event logs, and simulated cycles are therefore bit-identical
// across both engines by construction; the generated code wins
// wall-clock time purely by eliminating interpretation dispatch —
// AST type switches become straight-line Go with
// guarded fast paths for integer arithmetic, comparisons, pointer
// stepping, and trusted scalar loads. Each guard checks the operand's
// runtime type against the statically annotated one and falls back to
// the shared interpreter helper on any mismatch, so the fast paths can
// never change a decision point.
//
// Two Go-specific constraints shape the emitted source:
//
//   - `go vet`'s unreachable check gates CI, so unconditional transfers
//     (return/goto/break) are wrapped in `if interp.GenLive { ... }`
//     (GenLive is the constant-true variable exported by interp).
//   - Go forbids jumping over variable declarations and unused labels,
//     so every statement's temporaries live inside that statement's own
//     { } block, labels are emitted at statement-list level only, and a
//     label is emitted only when the pre-pass proved a goto targets it.
package gen

import (
	"fmt"
	"go/format"
	"sort"
	"strings"

	"focc/internal/cc/ast"
	"focc/internal/cc/sema"
	"focc/internal/cc/token"
	"focc/internal/cc/types"
	"focc/internal/interp"
)

// Options configures one Emit call.
type Options struct {
	// Package is the emitted package name. Required.
	Package string
	// Prefix namespaces every emitted identifier so several generated
	// programs can share a package. Defaults to "g<hash[:8]>_".
	Prefix string
	// Hash is the interp.SourceHash identity of the (filename, source)
	// pair the program was compiled from; it keys registration.
	Hash string
	// Register emits an init-time interp.RegisterGenerated call.
	Register bool
}

// Emit generates the Go source for prog.
func Emit(prog *sema.Program, opt Options) ([]byte, error) {
	if opt.Package == "" {
		return nil, fmt.Errorf("gen: Options.Package is required")
	}
	pfx := opt.Prefix
	if pfx == "" {
		if len(opt.Hash) >= 8 {
			pfx = "g" + opt.Hash[:8] + "_"
		} else {
			pfx = "gen_"
		}
	}
	e := &emitter{
		prog:       prog,
		opt:        opt,
		pfx:        pfx,
		posIdx:     map[token.Pos]int{},
		typeIdx:    map[*types.Type]string{},
		builtinIdx: map[string]int{},
	}
	var funcs strings.Builder
	e.out = &funcs
	for _, fd := range prog.Funcs {
		e.emitFunc(fd)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "// Code generated by focc -emit-go; DO NOT EDIT.\n")
	fmt.Fprintf(&b, "//\n// Generated-Go execution engine for source hash %s.\n", opt.Hash)
	fmt.Fprintf(&b, "package %s\n\n", opt.Package)
	b.WriteString("import (\n")
	if e.needBinary {
		b.WriteString("\t\"encoding/binary\"\n\n")
	}
	if len(prog.Funcs) > 0 {
		b.WriteString("\t\"focc/internal/cc/token\"\n")
		b.WriteString("\t\"focc/internal/cc/types\"\n")
	}
	if e.needCore {
		b.WriteString("\t\"focc/internal/core\"\n")
	}
	b.WriteString("\t\"focc/internal/interp\"\n")
	if len(prog.Funcs) > 0 {
		b.WriteString("\t\"focc/internal/mem\"\n")
	}
	b.WriteString(")\n\n")

	if len(prog.Funcs) > 0 {
		fmt.Fprintf(&b, "var %spos = []token.Pos{\n", pfx)
		for _, p := range e.posList {
			fmt.Fprintf(&b, "\t{File: %q, Line: %d, Col: %d},\n", p.File, p.Line, p.Col)
		}
		b.WriteString("}\n\n")
	}
	for _, d := range e.typeVars {
		b.WriteString(d)
		b.WriteString("\n")
	}
	b.WriteString("\n")
	for _, d := range e.specVars {
		b.WriteString(d)
		b.WriteString("\n")
	}
	b.WriteString("\n")

	fmt.Fprintf(&b, "var %sprog *interp.GenProgram\n\n", pfx)
	b.WriteString("func init() {\n")
	for _, l := range e.typeInitA {
		b.WriteString("\t" + l + "\n")
	}
	for _, l := range e.typeInitB {
		b.WriteString("\t" + l + "\n")
	}
	fmt.Fprintf(&b, "\t%sprog = &interp.GenProgram{\n", pfx)
	fmt.Fprintf(&b, "\t\tHash:     %q,\n", opt.Hash)
	fmt.Fprintf(&b, "\t\tNumSites: %d,\n", e.numSites)
	if len(e.builtinNames) > 0 {
		fmt.Fprintf(&b, "\t\tBuiltins: []string{")
		for i, n := range e.builtinNames {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%q", n)
		}
		b.WriteString("},\n")
	}
	b.WriteString("\t\tFuncs: map[string]interp.GenFn{\n")
	for _, fd := range prog.Funcs {
		fmt.Fprintf(&b, "\t\t\t%q: %sf_%s,\n", fd.Name, pfx, fd.Name)
	}
	b.WriteString("\t\t},\n")
	b.WriteString("\t}\n")
	if opt.Register {
		fmt.Fprintf(&b, "\tinterp.RegisterGenerated(%sprog)\n", pfx)
	}
	b.WriteString("}\n\n")

	b.WriteString(funcs.String())

	src := b.String()
	out, err := format.Source([]byte(src))
	if err != nil {
		return nil, fmt.Errorf("gen: emitted source does not parse: %v", err)
	}
	return out, nil
}

// singletonRef names the shared scalar type singletons; derived types are
// reconstructed in the generated package (see typeRef).
var singletonRef = map[*types.Type]string{
	types.VoidType:   "types.VoidType",
	types.CharType:   "types.CharType",
	types.SCharType:  "types.SCharType",
	types.UCharType:  "types.UCharType",
	types.ShortType:  "types.ShortType",
	types.UShortType: "types.UShortType",
	types.IntType:    "types.IntType",
	types.UIntType:   "types.UIntType",
	types.LongType:   "types.LongType",
	types.ULongType:  "types.ULongType",
}

// tokName maps the operator kinds the evaluator supports to their token
// package identifiers, for GenBinaryOp fallback calls.
var tokName = map[token.Kind]string{
	token.Plus:    "Plus",
	token.Minus:   "Minus",
	token.Star:    "Star",
	token.Slash:   "Slash",
	token.Percent: "Percent",
	token.Amp:     "Amp",
	token.Pipe:    "Pipe",
	token.Caret:   "Caret",
	token.Shl:     "Shl",
	token.Shr:     "Shr",
	token.Lt:      "Lt",
	token.Gt:      "Gt",
	token.Le:      "Le",
	token.Ge:      "Ge",
	token.EqEq:    "EqEq",
	token.NotEq:   "NotEq",
}

var cmpOp = map[token.Kind]string{
	token.Lt:    "<",
	token.Gt:    ">",
	token.Le:    "<=",
	token.Ge:    ">=",
	token.EqEq:  "==",
	token.NotEq: "!=",
}

var arithOp = map[token.Kind]string{
	token.Plus:  "+",
	token.Minus: "-",
	token.Star:  "*",
	token.Amp:   "&",
	token.Pipe:  "|",
	token.Caret: "^",
}

type emitter struct {
	prog *sema.Program
	opt  Options
	pfx  string
	out  *strings.Builder

	posList []token.Pos
	posIdx  map[token.Pos]int

	typeVars  []string // package-level shell/placeholder var decls
	typeInitA []string // init(): type construction (PointerTo/ArrayOf)
	typeInitB []string // init(): struct field population + layout
	typeIdx   map[*types.Type]string
	typeN     int

	specVars []string // package-level frame-spec vars

	builtinIdx   map[string]int
	builtinNames []string
	numSites     int

	needBinary bool
	needCore   bool

	// Per-function state.
	fd       *ast.FuncDecl
	localIdx map[uint64]int
	tmpN     int
	lblN     int
	swN      int
	breakStk []string
	contStk  []contTarget
	headLbl  map[ast.Stmt]string
	gotoOf   map[*ast.Goto]string
	usedLbl  map[string]bool
	// consts records the integer constants (literals, and conversions
	// and operations folded at generation time) by their emitted
	// expression: their runtime type is exactly the recorded one.
	consts map[string]constVal
}

// contTarget is one enclosing loop's continue emission; used tracks
// whether the loop must emit its continue label.
type contTarget struct {
	code string
	used *bool
}

func (e *emitter) w(format string, a ...any) {
	fmt.Fprintf(e.out, format, a...)
	e.out.WriteString("\n")
}

func (e *emitter) nv() string {
	v := fmt.Sprintf("v%d", e.tmpN)
	e.tmpN++
	return v
}

func (e *emitter) posRef(p token.Pos) string {
	idx, ok := e.posIdx[p]
	if !ok {
		idx = len(e.posList)
		e.posIdx[p] = idx
		e.posList = append(e.posList, p)
	}
	return fmt.Sprintf("%spos[%d]", e.pfx, idx)
}

// sidFor assigns a provenance-recovery site id for pointer loads: the
// slice index of the load's cache in Machine.csite.
func (e *emitter) sidFor(t *types.Type) int32 {
	if t == nil || !t.IsPointer() {
		return -1
	}
	id := e.numSites
	e.numSites++
	return int32(id)
}

// builtinSlot assigns (or reuses) the memoization slot for a builtin
// name: the index into Machine.builtinSlots.
func (e *emitter) builtinSlot(name string) int {
	if id, ok := e.builtinIdx[name]; ok {
		return id
	}
	id := len(e.builtinNames)
	e.builtinIdx[name] = id
	e.builtinNames = append(e.builtinNames, name)
	return id
}

// typeRef returns a Go expression for t in the generated package. Scalar
// singletons are shared with the types package (pointer identity is
// preserved cross-package); derived types are reconstructed once in init
// in dependency order, with struct shells as package vars so recursive
// types resolve.
func (e *emitter) typeRef(t *types.Type) string {
	if t == nil {
		return "nil"
	}
	if s, ok := singletonRef[t]; ok {
		return s
	}
	if s, ok := e.typeIdx[t]; ok {
		return s
	}
	name := fmt.Sprintf("%st%d", e.pfx, e.typeN)
	e.typeN++
	e.typeIdx[t] = name
	switch t.Kind {
	case types.Ptr:
		elem := e.typeRef(t.Elem)
		e.typeVars = append(e.typeVars, fmt.Sprintf("var %s *types.Type", name))
		e.typeInitA = append(e.typeInitA, fmt.Sprintf("%s = types.PointerTo(%s)", name, elem))
	case types.Array:
		elem := e.typeRef(t.Elem)
		e.typeVars = append(e.typeVars, fmt.Sprintf("var %s *types.Type", name))
		e.typeInitA = append(e.typeInitA, fmt.Sprintf("%s = types.ArrayOf(%s, %d)", name, elem, t.Len))
	case types.Struct:
		e.typeVars = append(e.typeVars, fmt.Sprintf(
			"var %s = &types.Type{Kind: types.Struct, Rec: &types.StructInfo{Name: %q}}", name, t.Rec.Name))
		for _, fl := range t.Rec.Fields {
			fref := e.typeRef(fl.Type)
			e.typeInitB = append(e.typeInitB, fmt.Sprintf(
				"%s.Rec.Fields = append(%s.Rec.Fields, types.Field{Name: %q, Type: %s, Offset: %d})",
				name, name, fl.Name, fref, fl.Offset))
		}
		if t.Rec.Complete {
			e.typeInitB = append(e.typeInitB, fmt.Sprintf("%s.Rec.Layout()", name))
		}
	case types.Enum:
		e.typeVars = append(e.typeVars, fmt.Sprintf(
			"var %s = &types.Type{Kind: types.Enum, En: &types.EnumInfo{Name: %q}}", name, t.En.Name))
	case types.Func:
		// Function types are never operated on at runtime; a bare shell
		// keeps references compilable.
		e.typeVars = append(e.typeVars, fmt.Sprintf("var %s = &types.Type{Kind: types.Func}", name))
	default:
		e.typeVars = append(e.typeVars, fmt.Sprintf("var %s = &types.Type{Kind: types.Invalid}", name))
	}
	return name
}

func ptrish(t *types.Type) bool {
	return t != nil && (t.Kind == types.Ptr || t.Kind == types.Array)
}

func elemSize(t *types.Type) int64 {
	es := int64(t.Elem.Size())
	if es == 0 {
		es = 1
	}
	return es
}

// truncCast wraps expr in the Go casts equivalent to types.Truncate(t, ·).
func truncCast(t *types.Type, expr string) string {
	switch t.Size() {
	case 1:
		if t.IsSigned() {
			return fmt.Sprintf("int64(int8(%s))", expr)
		}
		return fmt.Sprintf("int64(uint8(%s))", expr)
	case 2:
		if t.IsSigned() {
			return fmt.Sprintf("int64(int16(%s))", expr)
		}
		return fmt.Sprintf("int64(uint16(%s))", expr)
	case 4:
		if t.IsSigned() {
			return fmt.Sprintf("int64(int32(%s))", expr)
		}
		return fmt.Sprintf("int64(uint32(%s))", expr)
	}
	return expr
}

// decodeExpr is the inline little-endian load equivalent to the
// evaluator's decodeLE for scalar sizes.
func (e *emitter) decodeExpr(unit string, off uint64, t *types.Type) (string, bool) {
	switch t.Size() {
	case 1:
		if t.IsSigned() {
			return fmt.Sprintf("int64(int8(%s.Data[%d]))", unit, off), true
		}
		return fmt.Sprintf("int64(%s.Data[%d])", unit, off), true
	case 2:
		e.needBinary = true
		if t.IsSigned() {
			return fmt.Sprintf("int64(int16(binary.LittleEndian.Uint16(%s.Data[%d:])))", unit, off), true
		}
		return fmt.Sprintf("int64(binary.LittleEndian.Uint16(%s.Data[%d:]))", unit, off), true
	case 4:
		e.needBinary = true
		if t.IsSigned() {
			return fmt.Sprintf("int64(int32(binary.LittleEndian.Uint32(%s.Data[%d:])))", unit, off), true
		}
		return fmt.Sprintf("int64(binary.LittleEndian.Uint32(%s.Data[%d:]))", unit, off), true
	case 8:
		e.needBinary = true
		return fmt.Sprintf("int64(binary.LittleEndian.Uint64(%s.Data[%d:]))", unit, off), true
	}
	return "", false
}

// --- Functions ---

func (e *emitter) emitFunc(fd *ast.FuncDecl) {
	e.fd = fd
	e.tmpN, e.lblN, e.swN = 0, 0, 0
	e.consts = map[string]constVal{}
	e.breakStk, e.contStk = nil, nil
	e.headLbl = map[ast.Stmt]string{}
	e.gotoOf = map[*ast.Goto]string{}
	e.usedLbl = map[string]bool{}

	// The tree-walk engine's frame spec as a static table, and the
	// offset → spec-index table (Frame.LocalAt takes the spec index).
	fs := interp.NewFrameSpec(fd)
	specRef := fmt.Sprintf("%sspec_%s", e.pfx, fd.Name)
	var spec strings.Builder
	fmt.Fprintf(&spec, "var %s = &mem.FrameSpec{Canary: %q, Size: %d, Reusable: %t", specRef, fs.Canary, fs.Size, fs.Reusable)
	e.localIdx = make(map[uint64]int, len(fs.Locals))
	if len(fs.Locals) > 0 {
		spec.WriteString(", Locals: []mem.LocalSpec{\n")
		for i, l := range fs.Locals {
			fmt.Fprintf(&spec, "\t{Name: %q, Off: %d, Size: %d},\n", l.Name, l.Off, l.Size)
			e.localIdx[l.Off] = i
		}
		spec.WriteString("}")
	}
	spec.WriteString("}")
	e.specVars = append(e.specVars, spec.String())

	if fd.Body != nil {
		e.prescan(fd)
	}

	// Wrapper: the generated analogue of callFunction.
	retT := fd.T.Fn.Ret
	e.w("func %sf_%s(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {", e.pfx, fd.Name)
	e.w("m.GenStep()")
	e.w("if len(args) != %d {", len(fd.Params))
	e.w("m.GenFailf(pos, %q, %q, len(args), %d)", "call of %q with %d args (want %d)", fd.Name, len(fd.Params))
	e.w("}")
	e.w("f := m.GenPushFrame(%s)", specRef)
	for i, p := range fd.Params {
		v := e.nv()
		e.w("var %s interp.Value", v)
		e.convertAssign(v, fmt.Sprintf("args[%d]", i), p.Type, "pos")
		if idx, ok := e.localIdx[p.FrameOff]; ok {
			e.w("m.GenStoreRaw(f.LocalAt(%d), 0, %s, %s)", idx, e.typeRef(p.Type), v)
		} else {
			e.w("m.GenStoreRaw(f.Local(%d), 0, %s, %s)", p.FrameOff, e.typeRef(p.Type), v)
		}
	}
	e.w("ret := m.GenExec(f, %sb_%s)", e.pfx, fd.Name)
	e.w("m.GenPopFrame(f)")
	if retT.IsVoid() {
		e.w("_ = ret")
		e.w("return interp.Value{T: types.VoidType}")
	} else {
		e.w("if ret.T == nil {")
		e.w("return interp.Value{T: %s}", e.typeRef(retT))
		e.w("}")
		e.w("var r interp.Value")
		e.convertAssign("r", "ret", retT, "pos")
		e.w("return r")
	}
	e.w("}")
	e.w("")

	// Body: the statement sequence of fd.Body (no entry step — execBody
	// runs execBlock directly). A zero return value means the function
	// fell off the end.
	e.w("func %sb_%s(m *interp.Machine, f *mem.Frame) (ret interp.Value) {", e.pfx, fd.Name)
	if fd.Body == nil {
		e.w("m.GenFailf(%s, %q, %q)", e.posRef(fd.Pos()), "function %q has no body", fd.Name)
	} else {
		e.w("_ = f")
		e.stmtList(fd.Body.Stmts)
	}
	e.w("return")
	e.w("}")
	e.w("")
}

// prescan resolves gotos the way the evaluator's dynamic propagation
// does: a goto unwinds through enclosing blocks (and switch bodies) and
// lands at the first one whose label table knows the name — which is
// exactly the innermost syntactically-enclosing statement list declaring
// it. Chained labels (`a: b: stmt`) share one Go label at the chain head,
// like sema's LabelIdx mapping every chained name to the head index.
func (e *emitter) prescan(fd *ast.FuncDecl) {
	var scopes []map[string]string
	var walkList func(stmts []ast.Stmt)
	var walk func(s ast.Stmt)
	walkList = func(stmts []ast.Stmt) {
		scope := map[string]string{}
		for _, s := range stmts {
			lab, ok := s.(*ast.Labeled)
			if !ok {
				continue
			}
			gl := fmt.Sprintf("l%d_%s", e.lblN, lab.Name)
			e.lblN++
			e.headLbl[lab] = gl
			for l := lab; ; {
				if _, dup := scope[l.Name]; !dup {
					scope[l.Name] = gl
				}
				nxt, ok := l.Stmt.(*ast.Labeled)
				if !ok {
					break
				}
				l = nxt
			}
		}
		scopes = append(scopes, scope)
		for _, s := range stmts {
			walk(s)
		}
		scopes = scopes[:len(scopes)-1]
	}
	walk = func(s ast.Stmt) {
		switch n := s.(type) {
		case *ast.Block:
			walkList(n.Stmts)
		case *ast.If:
			walk(n.Then)
			if n.Else != nil {
				walk(n.Else)
			}
		case *ast.While:
			walk(n.Body)
		case *ast.DoWhile:
			walk(n.Body)
		case *ast.For:
			if n.Init != nil {
				walk(n.Init)
			}
			walk(n.Body)
		case *ast.Switch:
			walkList(n.Body.Stmts)
		case *ast.Labeled:
			walk(n.Stmt)
		case *ast.Goto:
			for i := len(scopes) - 1; i >= 0; i-- {
				if gl, ok := scopes[i][n.Label]; ok {
					e.gotoOf[n] = gl
					e.usedLbl[gl] = true
					return
				}
			}
			e.gotoOf[n] = ""
		}
	}
	walkList(fd.Body.Stmts)
}

// --- Statements ---

func (e *emitter) stmtList(stmts []ast.Stmt) {
	for _, s := range stmts {
		if gl, ok := e.headLbl[s]; ok && e.usedLbl[gl] {
			e.w("%s:", gl)
			e.w(";")
		}
		e.stmt(s)
	}
}

func (e *emitter) stmt(s ast.Stmt) {
	switch n := s.(type) {
	case *ast.Empty:
		e.w("{")
		e.w("m.GenStep()")
		e.w("}")
	case *ast.CaseLabel:
		e.w("{")
		e.w("m.GenStep()")
		e.w("}")
	case *ast.Block:
		e.w("{")
		e.w("m.GenStep()")
		e.stmtList(n.Stmts)
		e.w("}")
	case *ast.ExprStmt:
		e.w("{")
		e.w("m.GenStep()")
		v := e.expr(n.X)
		e.w("_ = %s", v)
		e.w("}")
	case *ast.DeclStmt:
		e.w("{")
		e.w("m.GenStep()")
		for _, vd := range n.Decls {
			e.localDecl(vd)
		}
		e.w("}")
	case *ast.If:
		e.w("{")
		e.w("m.GenStep()")
		v := e.expr(n.Cond)
		e.w("if %s.Truthy() {", v)
		e.stmt(n.Then)
		if n.Else != nil {
			e.w("} else {")
			e.stmt(n.Else)
		}
		e.w("}")
		e.w("}")
	case *ast.While:
		e.w("{")
		e.w("m.GenStep()")
		e.w("for {")
		v := e.expr(n.Cond)
		e.w("if !%s.Truthy() {", v)
		e.w("break")
		e.w("}")
		e.w("m.GenStep()")
		e.breakStk = append(e.breakStk, "break")
		e.contStk = append(e.contStk, contTarget{code: "continue"})
		e.stmt(n.Body)
		e.breakStk = e.breakStk[:len(e.breakStk)-1]
		e.contStk = e.contStk[:len(e.contStk)-1]
		e.w("}")
		e.w("}")
	case *ast.DoWhile:
		e.w("{")
		e.w("m.GenStep()")
		cl := fmt.Sprintf("c%d_cont", e.lblN)
		e.lblN++
		used := new(bool)
		e.w("for {")
		e.w("m.GenStep()")
		e.breakStk = append(e.breakStk, "break")
		e.contStk = append(e.contStk, contTarget{code: "goto " + cl, used: used})
		e.stmt(n.Body)
		e.breakStk = e.breakStk[:len(e.breakStk)-1]
		e.contStk = e.contStk[:len(e.contStk)-1]
		if *used {
			e.w("%s:", cl)
			e.w(";")
		}
		v := e.expr(n.Cond)
		e.w("if !%s.Truthy() {", v)
		e.w("break")
		e.w("}")
		e.w("}")
		e.w("}")
	case *ast.For:
		e.w("{")
		e.w("m.GenStep()")
		if n.Init != nil {
			e.stmt(n.Init)
		}
		e.w("for {")
		if n.Cond != nil {
			v := e.expr(n.Cond)
			e.w("if !%s.Truthy() {", v)
			e.w("break")
			e.w("}")
		} else {
			// Never taken (GenLive is constant true); gives `go vet`'s
			// unreachable check a break path out of a C for(;;) loop whose
			// only exits are returns, so the code after the loop is not
			// flagged.
			e.w("if !interp.GenLive {")
			e.w("break")
			e.w("}")
		}
		e.w("m.GenStep()")
		cl := fmt.Sprintf("c%d_cont", e.lblN)
		e.lblN++
		used := new(bool)
		cont := contTarget{code: "continue"}
		if n.Post != nil {
			cont = contTarget{code: "goto " + cl, used: used}
		}
		e.breakStk = append(e.breakStk, "break")
		e.contStk = append(e.contStk, cont)
		e.stmt(n.Body)
		e.breakStk = e.breakStk[:len(e.breakStk)-1]
		e.contStk = e.contStk[:len(e.contStk)-1]
		if n.Post != nil {
			if *used {
				e.w("%s:", cl)
				e.w(";")
			}
			v := e.expr(n.Post)
			e.w("_ = %s", v)
		}
		e.w("}")
		e.w("}")
	case *ast.Switch:
		e.emitSwitch(n)
	case *ast.Break:
		e.w("{")
		e.w("m.GenStep()")
		if len(e.breakStk) > 0 {
			e.w("if interp.GenLive {")
			e.w("%s", e.breakStk[len(e.breakStk)-1])
			e.w("}")
		} else {
			// A stray break unwinds to the function boundary (the
			// evaluator propagates ctrlBreak out of the body, which the
			// caller treats like falling off the end).
			e.w("if interp.GenLive {")
			e.w("return")
			e.w("}")
		}
		e.w("}")
	case *ast.Continue:
		e.w("{")
		e.w("m.GenStep()")
		if len(e.contStk) > 0 {
			ct := e.contStk[len(e.contStk)-1]
			if ct.used != nil {
				*ct.used = true
			}
			e.w("if interp.GenLive {")
			e.w("%s", ct.code)
			e.w("}")
		} else {
			e.w("if interp.GenLive {")
			e.w("return")
			e.w("}")
		}
		e.w("}")
	case *ast.Return:
		e.w("{")
		e.w("m.GenStep()")
		if n.X != nil {
			v := e.expr(n.X)
			e.w("ret = %s", v)
		} else {
			e.w("ret = interp.Value{}")
		}
		e.w("if interp.GenLive {")
		e.w("return")
		e.w("}")
		e.w("}")
	case *ast.Goto:
		e.w("{")
		e.w("m.GenStep()")
		if gl := e.gotoOf[n]; gl != "" {
			e.w("if interp.GenLive {")
			e.w("goto %s", gl)
			e.w("}")
		} else {
			e.w("m.GenFailf(%s, %q, %q)", e.posRef(e.fd.Body.Pos()),
				"goto label %q not found on execution path", n.Label)
		}
		e.w("}")
	case *ast.Labeled:
		e.w("{")
		e.w("m.GenStep()")
		e.stmt(n.Stmt)
		e.w("}")
	default:
		e.w("{")
		e.w("m.GenStep()")
		e.w("m.GenFailf(%s, \"%%s\", %q)", e.posRef(s.Pos()), fmt.Sprintf("unsupported statement %T", s))
		e.w("}")
	}
}

func (e *emitter) emitSwitch(n *ast.Switch) {
	sw := e.swN
	e.swN++
	e.w("{")
	e.w("m.GenStep()")
	v := e.expr(n.Cond)
	targets := map[int]bool{}
	keys := make([]int64, 0, len(n.CaseIdx))
	for k := range n.CaseIdx {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	e.w("switch %s.I {", v)
	for _, k := range keys {
		idx := n.CaseIdx[k]
		targets[idx] = true
		e.w("case %d:", k)
		e.w("if interp.GenLive {")
		e.w("goto sw%d_s%d", sw, idx)
		e.w("}")
	}
	if n.DefaultIdx >= 0 {
		targets[n.DefaultIdx] = true
		e.w("default:")
		e.w("if interp.GenLive {")
		e.w("goto sw%d_s%d", sw, n.DefaultIdx)
		e.w("}")
	}
	e.w("}")
	e.w("if interp.GenLive {")
	e.w("goto sw%d_end", sw)
	e.w("}")
	e.breakStk = append(e.breakStk, fmt.Sprintf("goto sw%d_end", sw))
	for i, s := range n.Body.Stmts {
		if targets[i] {
			e.w("sw%d_s%d:", sw, i)
			e.w(";")
		}
		if gl, ok := e.headLbl[s]; ok && e.usedLbl[gl] {
			e.w("%s:", gl)
			e.w(";")
		}
		e.stmt(s)
	}
	e.breakStk = e.breakStk[:len(e.breakStk)-1]
	e.w("sw%d_end:", sw)
	e.w(";")
	e.w("}")
}

// localDecl mirrors execLocalDecl.
func (e *emitter) localDecl(vd *ast.VarDecl) {
	sym := vd.Sym
	u := e.nv()
	if idx, ok := e.localIdx[sym.FrameOff]; ok {
		e.w("%s := f.LocalAt(%d)", u, idx)
	} else {
		e.w("%s := m.GenLocal(%d, %q, %s)", u, sym.FrameOff, sym.Name, e.posRef(vd.Pos()))
	}
	switch init := vd.Init.(type) {
	case nil:
		// Uninitialized locals keep whatever bytes the stack arena holds.
		e.w("_ = %s", u)
	case *ast.InitList:
		e.w("m.GenZeroFill(%s, 0, %d)", u, sym.Type.Size())
		e.initAggregate(u, 0, sym.Type, init)
	case *ast.StringLit:
		if sym.Type.Kind == types.Array {
			e.w("m.GenZeroFill(%s, 0, %d)", u, sym.Type.Size())
			e.copyLiteral(u, 0, sym.Type.Size(), init.LitIndex)
			return
		}
		v := e.expr(init)
		cv := e.convertTo(v, sym.Type, vd.Pos())
		e.w("m.GenStoreRaw(%s, 0, %s, %s)", u, e.typeRef(sym.Type), cv)
	default:
		v := e.expr(vd.Init)
		cv := e.convertTo(v, sym.Type, vd.Pos())
		e.w("m.GenStoreRaw(%s, 0, %s, %s)", u, e.typeRef(sym.Type), cv)
	}
}

// copyLiteral emits the raw literal-to-local copy of string-literal
// array initialization (no charging, exactly like the evaluator's copy).
func (e *emitter) copyLiteral(u string, off, max uint64, litIndex int) {
	lu := e.nv()
	e.w("%s := m.GenLiteral(%d)", lu, litIndex)
	ln := e.nv()
	e.w("%s := uint64(len(%s.Data))", ln, lu)
	e.w("if %s > %d {", ln, max)
	e.w("%s = %d", ln, max)
	e.w("}")
	e.w("copy(%s.Data[%d:%d+%s], %s.Data[:%s])", u, off, off, ln, lu, ln)
}

func (e *emitter) initAggregate(u string, off uint64, t *types.Type, il *ast.InitList) {
	switch t.Kind {
	case types.Array:
		es := t.Elem.Size()
		for i, el := range il.Elems {
			e.initElem(u, off+uint64(i)*es, t.Elem, el)
		}
	case types.Struct:
		for i, el := range il.Elems {
			if i >= len(t.Rec.Fields) {
				break
			}
			fl := t.Rec.Fields[i]
			e.initElem(u, off+fl.Offset, fl.Type, el)
		}
	default:
		if len(il.Elems) == 1 {
			e.initElem(u, off, t, il.Elems[0])
		}
	}
}

func (e *emitter) initElem(u string, off uint64, t *types.Type, x ast.Expr) {
	if nested, ok := x.(*ast.InitList); ok {
		e.initAggregate(u, off, t, nested)
		return
	}
	if s, ok := x.(*ast.StringLit); ok && t.Kind == types.Array {
		e.copyLiteral(u, off, t.Size(), s.LitIndex)
		return
	}
	v := e.expr(x)
	cv := e.convertTo(v, t, x.Pos())
	e.w("m.GenStoreRaw(%s, %d, %s, %s)", u, off, e.typeRef(t), cv)
}

// --- Expressions ---

// genLval is the emit-time shape of the evaluator's lval: trusted
// lvalues carry a unit expression and constant offset; untrusted ones a
// core.Pointer temporary.
type genLval struct {
	trusted bool
	unit    string
	off     uint64
	ptr     string
	t       *types.Type
	// lsid is the canonical load-site id of the lvalue's AST node
	// (sema.LoadSiteOf), emitted as the strategy-priming argument of
	// GenLoadValue. -1 when the node is not a load-site kind.
	lsid int32
}

// ptrExpr materializes the lvalue's pointer (for & and array decay).
func (e *emitter) ptrExpr(lv genLval) string {
	if !lv.trusted {
		return lv.ptr
	}
	e.needCore = true
	if lv.off == 0 {
		return fmt.Sprintf("core.Pointer{Addr: %s.Base, Prov: %s}", lv.unit, lv.unit)
	}
	return fmt.Sprintf("core.Pointer{Addr: %s.Base + %d, Prov: %s}", lv.unit, lv.off, lv.unit)
}

// expr emits code evaluating x and returns the interp.Value temporary.
func (e *emitter) expr(x ast.Expr) string {
	switch n := x.(type) {
	case *ast.IntLit:
		if n.Type().IsInteger() {
			return e.constant(n.Type(), n.Val)
		}
		v := e.nv()
		e.w("%s := interp.Value{T: %s, I: %d}", v, e.typeRef(n.Type()), n.Val)
		return v
	case *ast.StringLit:
		e.needCore = true
		u := e.nv()
		e.w("%s := m.GenLiteral(%d)", u, n.LitIndex)
		v := e.nv()
		e.w("%s := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: %s.Base, Prov: %s}}", v, u, u)
		return v
	case *ast.Ident:
		return e.identValue(n)
	case *ast.Unary:
		return e.unary(n)
	case *ast.Postfix:
		lv := e.lvalue(n.X)
		old := e.loadLval(lv, n.Pos())
		delta := int64(1)
		if n.Op == token.Dec {
			delta = -1
		}
		nv := e.addDelta(old, lv.t, delta, n.Pos())
		e.store(lv, nv, n.Pos())
		return old
	case *ast.Binary:
		return e.binary(n)
	case *ast.Assign:
		return e.assign(n)
	case *ast.Cond:
		vc := e.expr(n.C)
		v := e.nv()
		e.w("var %s interp.Value", v)
		e.w("if %s.Truthy() {", vc)
		a := e.expr(n.Then)
		e.convertAssign(v, a, n.Type(), e.posRef(n.Pos()))
		e.w("} else {")
		b := e.expr(n.Else)
		e.convertAssign(v, b, n.Type(), e.posRef(n.Pos()))
		e.w("}")
		return v
	case *ast.Call:
		return e.call(n)
	case *ast.Index, *ast.Member:
		lv := e.lvalue(x)
		if lv.t.IsArray() {
			v := e.nv()
			e.w("%s := interp.Value{T: types.PointerTo(%s), Ptr: %s}", v, e.typeRef(lv.t.Elem), e.ptrExpr(lv))
			return v
		}
		return e.loadLval(lv, x.Pos())
	case *ast.Cast:
		v := e.expr(n.X)
		return e.convertTo(v, n.To, n.Pos())
	case *ast.Comma:
		v := e.expr(n.X)
		e.w("_ = %s", v)
		return e.expr(n.Y)
	}
	v := e.nv()
	e.w("m.GenFailf(%s, \"%%s\", %q)", e.posRef(x.Pos()), fmt.Sprintf("unsupported expression %T", x))
	e.w("%s := interp.Value{}", v)
	return v
}

// identValue mirrors evalIdent (trusted direct load of a named variable).
func (e *emitter) identValue(n *ast.Ident) string {
	sym := n.Sym
	if sym == nil {
		v := e.nv()
		e.w("m.GenFailf(%s, %q, %q)", e.posRef(n.Pos()), "unresolved identifier %q", n.Name)
		e.w("%s := interp.Value{}", v)
		return v
	}
	u, ok := e.symUnit(sym, n.Pos())
	if !ok {
		v := e.nv()
		e.w("m.GenFailf(%s, %q, %q)", e.posRef(n.Pos()), "symbol %q is not addressable", sym.Name)
		e.w("%s := interp.Value{}", v)
		return v
	}
	t := sym.Type
	if t.IsArray() {
		e.needCore = true
		v := e.nv()
		e.w("%s := interp.Value{T: types.PointerTo(%s), Ptr: core.Pointer{Addr: %s.Base, Prov: %s}}", v, e.typeRef(t.Elem), u, u)
		return v
	}
	if t.Kind == types.Func {
		v := e.nv()
		e.w("m.GenFailf(%s, %q, %q)", e.posRef(n.Pos()),
			"function %q used as a value (function pointers are unsupported)", n.Name)
		e.w("%s := interp.Value{}", v)
		return v
	}
	return e.trustedLoad(u, 0, t)
}

// symUnit emits the unit lookup for a named variable; reports false for
// non-addressable storage classes.
func (e *emitter) symUnit(sym *ast.Symbol, pos token.Pos) (string, bool) {
	u := e.nv()
	switch sym.Storage {
	case ast.StorageLocal, ast.StorageParam:
		if idx, ok := e.localIdx[sym.FrameOff]; ok {
			e.w("%s := f.LocalAt(%d)", u, idx)
		} else {
			e.w("%s := m.GenLocal(%d, %q, %s)", u, sym.FrameOff, sym.Name, e.posRef(pos))
		}
	case ast.StorageGlobal:
		e.w("%s := m.GenGlobal(%d)", u, sym.GlobalIdx)
	default:
		return "", false
	}
	return u, true
}

// trustedLoad mirrors loadRaw on a known unit: inline decode for scalar
// integers, GenLoadRaw for pointers (site-cached provenance recovery)
// and structs.
func (e *emitter) trustedLoad(u string, off uint64, t *types.Type) string {
	v := e.nv()
	if t.IsInteger() && !t.IsPointer() {
		if dec, ok := e.decodeExpr(u, off, t); ok {
			e.w("m.GenChargeAccess()")
			e.w("%s := interp.Value{T: %s, I: %s}", v, e.typeRef(t), dec)
			return v
		}
	}
	e.w("%s := m.GenLoadRaw(%s, %d, %s, %d)", v, u, off, e.typeRef(t), e.sidFor(t))
	return v
}

// lvalue mirrors evalLvalue.
func (e *emitter) lvalue(x ast.Expr) genLval {
	lv := e.lvalue1(x)
	// Stamp the canonical load-site id here so every construction below
	// carries it.
	lv.lsid = sema.LoadSiteOf(x)
	return lv
}

func (e *emitter) lvalue1(x ast.Expr) genLval {
	switch n := x.(type) {
	case *ast.Ident:
		if n.Sym == nil {
			e.w("m.GenFailf(%s, %q, %q)", e.posRef(n.Pos()), "unresolved identifier %q", n.Name)
			return e.dummyLval(n.Type())
		}
		u, ok := e.symUnit(n.Sym, n.Pos())
		if !ok {
			e.w("m.GenFailf(%s, %q, %q)", e.posRef(n.Pos()), "symbol %q is not addressable", n.Sym.Name)
			return e.dummyLval(n.Sym.Type)
		}
		return genLval{trusted: true, unit: u, off: 0, t: n.Sym.Type}
	case *ast.Unary:
		if n.Op != token.Star {
			e.w("m.GenFailf(%s, %q)", e.posRef(n.Pos()), "expression is not an lvalue")
			return e.dummyLval(n.Type())
		}
		v := e.expr(n.X)
		e.needCore = true
		p := e.nv()
		e.w("%s := %s.Ptr", p, v)
		return genLval{ptr: p, t: n.Type()}
	case *ast.Index:
		base := e.expr(n.X) // arrays decay here
		idx := e.expr(n.Idx)
		e.needCore = true
		p := e.nv()
		e.w("%s := core.Pointer{Addr: %s.Ptr.Addr + uint64(%s.I)*%d, Prov: %s.Ptr.Prov}", p, base, idx, n.Type().Size(), base)
		return genLval{ptr: p, t: n.Type()}
	case *ast.Member:
		if n.Arrow {
			v := e.expr(n.X)
			e.needCore = true
			p := e.nv()
			e.w("%s := core.Pointer{Addr: %s.Ptr.Addr + %d, Prov: %s.Ptr.Prov}", p, v, n.Field.Offset, v)
			return genLval{ptr: p, t: n.Field.Type}
		}
		base := e.lvalue(n.X)
		if base.trusted {
			return genLval{trusted: true, unit: base.unit, off: base.off + n.Field.Offset, t: n.Field.Type}
		}
		e.needCore = true
		p := e.nv()
		e.w("%s := core.Pointer{Addr: %s.Addr + %d, Prov: %s.Prov}", p, base.ptr, n.Field.Offset, base.ptr)
		return genLval{ptr: p, t: n.Field.Type}
	case *ast.StringLit:
		e.needCore = true
		u := e.nv()
		e.w("%s := m.GenLiteral(%d)", u, n.LitIndex)
		p := e.nv()
		e.w("%s := core.Pointer{Addr: %s.Base, Prov: %s}", p, u, u)
		return genLval{ptr: p, t: n.Type()}
	}
	e.w("m.GenFailf(%s, \"%%s\", %q)", e.posRef(x.Pos()), fmt.Sprintf("expression is not an lvalue (%T)", x))
	return e.dummyLval(x.Type())
}

// dummyLval keeps emission compiling after an unconditional GenFailf
// (which panics at runtime, so the dummy is never dereferenced).
func (e *emitter) dummyLval(t *types.Type) genLval {
	e.needCore = true
	p := e.nv()
	e.w("var %s core.Pointer", p)
	return genLval{ptr: p, t: t}
}

// loadLval mirrors loadLval: trusted accesses go straight to the unit,
// untrusted ones through the policy.
func (e *emitter) loadLval(lv genLval, pos token.Pos) string {
	if lv.trusted {
		return e.trustedLoad(lv.unit, lv.off, lv.t)
	}
	v := e.nv()
	e.w("%s := m.GenLoadValue(%s, %s, %s, %d, %d)", v, lv.ptr, e.typeRef(lv.t), e.posRef(pos), e.sidFor(lv.t), lv.lsid)
	return v
}

// store mirrors storeLvalConverted (v must already be converted to lv.t).
func (e *emitter) store(lv genLval, v string, pos token.Pos) {
	if lv.trusted {
		e.w("m.GenStoreRaw(%s, %d, %s, %s)", lv.unit, lv.off, e.typeRef(lv.t), v)
		return
	}
	e.w("m.GenStoreValue(%s, %s, %s, %s)", lv.ptr, e.typeRef(lv.t), v, e.posRef(pos))
}

// constVal is an integer constant temporary's value and type.
type constVal struct {
	t *types.Type
	c int64
}

// constant is an integer constant of type t: a parenthesized Value
// literal (valid in if conditions), so a constant folded into another
// leaves no unused temporary behind.
func (e *emitter) constant(t *types.Type, c int64) string {
	v := fmt.Sprintf("(interp.Value{T: %s, I: %d})", e.typeRef(t), c)
	e.consts[v] = constVal{t: t, c: c}
	return v
}

// convertAssign emits dst = convert(src, t). A constant source converts
// at generation time (convertConst). Integer and pointer targets inline
// convert's identity test and convertSlow's common case behind a runtime
// type test (Go truncation or sign extension, or a retype); anything
// else, integer-to-pointer provenance recovery included, falls back to
// the interpreter's convert. pos is a Go token.Pos expression.
func (e *emitter) convertAssign(dst, src string, t *types.Type, pos string) {
	if c, ok := e.convertConst(src, t); ok {
		e.w("%s = %s", dst, c)
		return
	}
	tref := e.typeRef(t)
	e.w("if %s.T == %s {", src, tref)
	e.w("%s = %s", dst, src)
	switch {
	case t.IsInteger():
		e.w("} else if %s.T != nil && %s.T.IsInteger() {", src, src)
		e.w("%s = interp.Value{T: %s, I: %s}", dst, tref, truncCast(t, src+".I"))
	case t.IsPointer():
		e.w("} else if %s.T != nil && %s.T.IsPointer() {", src, src)
		e.w("%s = interp.Value{T: %s, Ptr: %s.Ptr}", dst, tref, src)
	}
	e.w("} else {")
	e.w("%s = m.GenConvert(%s, %s, %s)", dst, src, tref, pos)
	e.w("}")
}

// convertConst is convert(src, t) computed at generation time when src
// is a constant: to an integer type by truncation, and 0 to a pointer
// type as the null pointer (convertSlow's integer-to-pointer path at
// address 0 looks nothing up). ok is false otherwise.
func (e *emitter) convertConst(src string, t *types.Type) (string, bool) {
	k, ok := e.consts[src]
	switch {
	case !ok:
	case k.t == t:
		return src, true
	case t.IsInteger():
		return e.constant(t, types.Truncate(t, k.c)), true
	case t.IsPointer() && k.c == 0:
		return fmt.Sprintf("(interp.Value{T: %s})", e.typeRef(t)), true
	}
	return "", false
}

// convertTo emits convert(src, t) into a fresh temporary, or returns the
// converted constant.
func (e *emitter) convertTo(src string, t *types.Type, pos token.Pos) string {
	if c, ok := e.convertConst(src, t); ok {
		return c
	}
	v := e.nv()
	e.w("var %s interp.Value", v)
	e.convertAssign(v, src, t, e.posRef(pos))
	return v
}

// addDelta mirrors addDelta with the statically known operand type; the
// loaded value's runtime type always equals the lvalue's type, so the
// pointer/integer split is decided at generation time.
func (e *emitter) addDelta(old string, t *types.Type, delta int64, pos token.Pos) string {
	v := e.nv()
	switch {
	case t != nil && t.IsPointer():
		e.needCore = true
		step := delta * elemSize(t)
		sign := "+"
		if step < 0 {
			sign, step = "-", -step
		}
		e.w("%s := interp.Value{T: %s.T, Ptr: core.Pointer{Addr: %s.Ptr.Addr %s %d, Prov: %s.Ptr.Prov}}", v, old, old, sign, step, old)
	case t != nil && t.IsInteger():
		sign := "+"
		d := delta
		if d < 0 {
			sign, d = "-", -d
		}
		e.w("%s := interp.Value{T: %s.T, I: %s}", v, old, truncCast(t, fmt.Sprintf("%s.I %s %d", old, sign, d)))
	default:
		e.w("%s := m.GenAddDelta(%s, %d, %s)", v, old, delta, e.posRef(pos))
	}
	return v
}

func (e *emitter) unary(n *ast.Unary) string {
	switch n.Op {
	case token.Minus, token.Plus, token.Tilde:
		v := e.expr(n.X)
		if k, ok := e.consts[v]; ok && n.Type().IsInteger() {
			c := k.c
			switch n.Op {
			case token.Minus:
				c = -c
			case token.Tilde:
				c = ^c
			}
			return e.constant(n.Type(), types.Truncate(n.Type(), c))
		}
		op := map[token.Kind]string{token.Minus: "-", token.Plus: "", token.Tilde: "^"}[n.Op]
		r := e.nv()
		e.w("%s := interp.Value{T: %s, I: %s}", r, e.typeRef(n.Type()), truncCast(n.Type(), op+v+".I"))
		return r
	case token.Bang:
		v := e.expr(n.X)
		r := e.nv()
		e.w("var %s interp.Value", r)
		e.w("if %s.Truthy() {", v)
		e.w("%s = interp.Value{T: types.IntType, I: 0}", r)
		e.w("} else {")
		e.w("%s = interp.Value{T: types.IntType, I: 1}", r)
		e.w("}")
		return r
	case token.Star:
		v := e.expr(n.X)
		r := e.nv()
		if n.Type().IsArray() {
			e.w("%s := interp.Value{T: types.PointerTo(%s), Ptr: %s.Ptr}", r, e.typeRef(n.Type().Elem), v)
			return r
		}
		e.w("%s := m.GenLoadValue(%s.Ptr, %s, %s, %d, %d)", r, v, e.typeRef(n.Type()), e.posRef(n.Pos()), e.sidFor(n.Type()), sema.LoadSiteOf(n))
		return r
	case token.Amp:
		lv := e.lvalue(n.X)
		r := e.nv()
		e.w("%s := interp.Value{T: %s, Ptr: %s}", r, e.typeRef(n.Type()), e.ptrExpr(lv))
		return r
	case token.Inc, token.Dec:
		lv := e.lvalue(n.X)
		old := e.loadLval(lv, n.Pos())
		delta := int64(1)
		if n.Op == token.Dec {
			delta = -1
		}
		nv := e.addDelta(old, lv.t, delta, n.Pos())
		e.store(lv, nv, n.Pos())
		return nv
	}
	r := e.nv()
	e.w("m.GenFailf(%s, \"%%s\", %q)", e.posRef(n.Pos()), fmt.Sprintf("unsupported unary operator %s", n.Op))
	e.w("%s := interp.Value{}", r)
	return r
}

func (e *emitter) binary(n *ast.Binary) string {
	switch n.Op {
	case token.AndAnd:
		r := e.nv()
		e.w("var %s interp.Value", r)
		vx := e.expr(n.X)
		e.w("if !%s.Truthy() {", vx)
		e.w("%s = interp.Value{T: types.IntType, I: 0}", r)
		e.w("} else {")
		vy := e.expr(n.Y)
		e.w("if %s.Truthy() {", vy)
		e.w("%s = interp.Value{T: types.IntType, I: 1}", r)
		e.w("} else {")
		e.w("%s = interp.Value{T: types.IntType, I: 0}", r)
		e.w("}")
		e.w("}")
		return r
	case token.OrOr:
		r := e.nv()
		e.w("var %s interp.Value", r)
		vx := e.expr(n.X)
		e.w("if %s.Truthy() {", vx)
		e.w("%s = interp.Value{T: types.IntType, I: 1}", r)
		e.w("} else {")
		vy := e.expr(n.Y)
		e.w("if %s.Truthy() {", vy)
		e.w("%s = interp.Value{T: types.IntType, I: 1}", r)
		e.w("} else {")
		e.w("%s = interp.Value{T: types.IntType, I: 0}", r)
		e.w("}")
		e.w("}")
		return r
	}
	vx := e.expr(n.X)
	vy := e.expr(n.Y)
	return e.binOp(n.Op, vx, vy, n.X.Type(), n.Y.Type(), n.Type(), n.Pos())
}

// binOp emits a non-short-circuit binary operation. Operations on two
// constants fold at generation time. Fast paths are guarded on the
// operands' runtime types matching the static annotation and fall back to
// the interpreter's binaryOp on any mismatch; integer operands of
// different types convert inline to the usual arithmetic type.
func (e *emitter) binOp(op token.Kind, vx, vy string, xt, yt, rt *types.Type, pos token.Pos) string {
	tok, known := tokName[op]
	if !known {
		r := e.nv()
		e.w("m.GenFailf(%s, \"%%s\", %q)", e.posRef(pos), fmt.Sprintf("unsupported binary operator %s", op))
		e.w("%s := interp.Value{}", r)
		return r
	}
	kx, xConst := e.consts[vx]
	ky, yConst := e.consts[vy]
	if xConst && yConst {
		if cmpOp[op] != "" {
			return e.constant(types.IntType, boolInt(foldCompare(op, kx, ky)))
		}
		if isInt(rt) {
			if c, ok := foldArith(op, kx, ky, rt); ok {
				return e.constant(rt, c)
			}
		}
	}
	r := e.nv()
	fallback := func() {
		e.w("%s = m.GenBinaryOp(token.%s, %s, %s, %s, %s)", r, tok, vx, vy, e.typeRef(rt), e.posRef(pos))
	}
	switch {
	case op == token.Plus && ptrish(xt) && !ptrish(yt):
		e.needCore = true
		e.w("var %s interp.Value", r)
		e.w("if %s.T != nil && %s.T.IsPointer() {", vx, vx)
		e.w("%s = interp.Value{T: %s.T, Ptr: core.Pointer{Addr: %s.Ptr.Addr + uint64(%s.I*%d), Prov: %s.Ptr.Prov}}",
			r, vx, vx, vy, elemSize(xt), vx)
		e.w("} else {")
		fallback()
		e.w("}")
	case op == token.Plus && !ptrish(xt) && ptrish(yt):
		e.needCore = true
		e.w("var %s interp.Value", r)
		e.w("if %s.T != nil && %s.T.IsPointer() {", vy, vy)
		e.w("%s = interp.Value{T: %s.T, Ptr: core.Pointer{Addr: %s.Ptr.Addr + uint64(%s.I*%d), Prov: %s.Ptr.Prov}}",
			r, vy, vy, vx, elemSize(yt), vy)
		e.w("} else {")
		fallback()
		e.w("}")
	case op == token.Minus && ptrish(xt) && ptrish(yt):
		e.w("var %s interp.Value", r)
		e.w("if %s.T != nil && %s.T.IsPointer() && %s.T != nil && %s.T.IsPointer() {", vx, vx, vy, vy)
		e.w("%s = interp.Value{T: types.LongType, I: (int64(%s.Ptr.Addr) - int64(%s.Ptr.Addr)) / %d}", r, vx, vy, elemSize(xt))
		e.w("} else {")
		fallback()
		e.w("}")
	case op == token.Minus && ptrish(xt) && !ptrish(yt):
		e.needCore = true
		e.w("var %s interp.Value", r)
		e.w("if %s.T != nil && %s.T.IsPointer() {", vx, vx)
		e.w("%s = interp.Value{T: %s.T, Ptr: core.Pointer{Addr: %s.Ptr.Addr + uint64(-%s.I*%d), Prov: %s.Ptr.Prov}}",
			r, vx, vx, vy, elemSize(xt), vx)
		e.w("} else {")
		fallback()
		e.w("}")
	case cmpOp[op] != "" && isInt(xt) && isInt(yt):
		// compare: one type compares directly with its signedness,
		// different types after the usual arithmetic conversions.
		ct := xt
		if xt != yt {
			ct = types.UsualArith(promoteStatic(xt), promoteStatic(yt))
		}
		lhs, gx := e.intOperand(vx, xt, ct, !ct.IsSigned())
		rhs, gy := e.intOperand(vy, yt, ct, !ct.IsSigned())
		e.w("var %s interp.Value", r)
		e.w("if %s {", andGuards(gx, gy))
		e.w("if %s %s %s {", lhs, cmpOp[op], rhs)
		e.w("%s = interp.Value{T: types.IntType, I: 1}", r)
		e.w("} else {")
		e.w("%s = interp.Value{T: types.IntType, I: 0}", r)
		e.w("}")
		e.w("} else {")
		fallback()
		e.w("}")
	case cmpOp[op] != "" && (ptrish(xt) || ptrish(yt)):
		var guards []string
		xa, ya := "uint64("+vx+".I)", "uint64("+vy+".I)"
		if ptrish(xt) {
			guards = append(guards, fmt.Sprintf("%s.T != nil && %s.T.IsPointer()", vx, vx))
			xa = vx + ".Ptr.Addr"
		}
		if ptrish(yt) {
			guards = append(guards, fmt.Sprintf("%s.T != nil && %s.T.IsPointer()", vy, vy))
			ya = vy + ".Ptr.Addr"
		}
		e.w("var %s interp.Value", r)
		e.w("if %s {", strings.Join(guards, " && "))
		e.w("if %s %s %s {", xa, cmpOp[op], ya)
		e.w("%s = interp.Value{T: types.IntType, I: 1}", r)
		e.w("} else {")
		e.w("%s = interp.Value{T: types.IntType, I: 0}", r)
		e.w("}")
		e.w("} else {")
		fallback()
		e.w("}")
	case arithOp[op] != "" && isInt(xt) && isInt(yt) && isInt(rt):
		// binaryOp: each operand converts to rt unless it already has
		// that type; the result truncates to rt.
		lhs, gx := e.intOperand(vx, xt, rt, false)
		rhs, gy := e.intOperand(vy, yt, rt, false)
		tref := e.typeRef(rt)
		e.w("var %s interp.Value", r)
		e.w("if %s {", andGuards(gx, gy))
		e.w("%s = interp.Value{T: %s, I: %s}", r, tref, truncCast(rt, fmt.Sprintf("%s %s %s", lhs, arithOp[op], rhs)))
		e.w("} else {")
		fallback()
		e.w("}")
	default:
		e.w("var %s interp.Value", r)
		fallback()
	}
	return r
}

func isInt(t *types.Type) bool { return t != nil && t.IsInteger() }

// intOperand is the Go expression of the integer operand v (static type
// t) converted to ct, as a uint64 when unsigned is set, and the runtime
// guard that v has type t. A constant becomes a literal of its converted
// value and needs no guard.
func (e *emitter) intOperand(v string, t, ct *types.Type, unsigned bool) (expr, guard string) {
	if k, ok := e.consts[v]; ok {
		c := types.Truncate(ct, k.c)
		if unsigned {
			return fmt.Sprintf("%d", uint64(c)), ""
		}
		return fmt.Sprintf("%d", c), ""
	}
	expr = v + ".I"
	if t != ct {
		expr = truncCast(ct, expr)
	}
	if unsigned {
		expr = "uint64(" + expr + ")"
	}
	return expr, fmt.Sprintf("%s.T == %s", v, e.typeRef(t))
}

// andGuards joins the non-empty runtime guards of a fast path. Two
// constant operands fold before any guard is needed, so one is set.
func andGuards(gx, gy string) string {
	switch {
	case gx == "":
		return gy
	case gy == "":
		return gx
	}
	return gx + " && " + gy
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// foldCompare evaluates compare on two integer constants.
func foldCompare(op token.Kind, x, y constVal) bool {
	signed := x.t.IsSigned()
	a, b := x.c, y.c
	if x.t != y.t {
		ct := types.UsualArith(promoteStatic(x.t), promoteStatic(y.t))
		a, b, signed = types.Truncate(ct, a), types.Truncate(ct, b), ct.IsSigned()
	}
	if !signed {
		ua, ub := uint64(a), uint64(b)
		switch op {
		case token.Lt:
			return ua < ub
		case token.Gt:
			return ua > ub
		case token.Le:
			return ua <= ub
		case token.Ge:
			return ua >= ub
		}
	}
	switch op {
	case token.Lt:
		return a < b
	case token.Gt:
		return a > b
	case token.Le:
		return a <= b
	case token.Ge:
		return a >= b
	case token.EqEq:
		return a == b
	}
	return a != b
}

// foldArith evaluates binaryOp's integer arithmetic on two constants in
// the common type rt. It refuses a zero divisor, which must fail at run
// time.
func foldArith(op token.Kind, x, y constVal, rt *types.Type) (int64, bool) {
	xv, yv := x.c, y.c
	if x.t != rt {
		xv = types.Truncate(rt, xv)
	}
	if y.t != rt {
		yv = types.Truncate(rt, yv)
	}
	var r int64
	switch op {
	case token.Plus:
		r = xv + yv
	case token.Minus:
		r = xv - yv
	case token.Star:
		r = xv * yv
	case token.Slash, token.Percent:
		if yv == 0 {
			return 0, false
		}
		switch {
		case op == token.Slash && rt.IsSigned():
			r = xv / yv
		case op == token.Slash:
			r = int64(uint64(xv) / uint64(yv))
		case rt.IsSigned():
			r = xv % yv
		default:
			r = int64(uint64(xv) % uint64(yv))
		}
	case token.Amp:
		r = xv & yv
	case token.Pipe:
		r = xv | yv
	case token.Caret:
		r = xv ^ yv
	case token.Shl:
		r = xv << uint64(y.c&63)
	case token.Shr:
		if rt.IsSigned() {
			r = xv >> uint64(y.c&63)
		} else {
			r = int64(uint64(xv) & (^uint64(0) >> (64 - rt.Size()*8)) >> uint64(y.c&63))
		}
	default:
		return 0, false
	}
	return types.Truncate(rt, r), true
}

// promoteStatic mirrors promoteType at generation time.
func promoteStatic(t *types.Type) *types.Type {
	if t == nil || !t.IsInteger() {
		return types.LongType
	}
	return types.Promote(t)
}

func compoundOp(k token.Kind) (token.Kind, bool) {
	switch k {
	case token.PlusEq:
		return token.Plus, true
	case token.MinusEq:
		return token.Minus, true
	case token.StarEq:
		return token.Star, true
	case token.SlashEq:
		return token.Slash, true
	case token.PercentEq:
		return token.Percent, true
	case token.AmpEq:
		return token.Amp, true
	case token.PipeEq:
		return token.Pipe, true
	case token.CaretEq:
		return token.Caret, true
	case token.ShlEq:
		return token.Shl, true
	case token.ShrEq:
		return token.Shr, true
	}
	return k, false
}

func (e *emitter) assign(n *ast.Assign) string {
	if n.Op == token.Assign {
		v := e.expr(n.RHS)
		lv := e.lvalue(n.LHS)
		cv := e.convertTo(v, lv.t, n.Pos())
		e.store(lv, cv, n.Pos())
		return cv
	}
	op, ok := compoundOp(n.Op)
	if !ok {
		r := e.nv()
		e.w("m.GenFailf(%s, \"%%s\", %q)", e.posRef(n.Pos()), fmt.Sprintf("unsupported assignment operator %s", n.Op))
		e.w("%s := interp.Value{}", r)
		return r
	}
	lv := e.lvalue(n.LHS)
	cur := e.loadLval(lv, n.Pos())
	rhs := e.expr(n.RHS)
	// The usual-arithmetic result type, resolved at generation time from
	// the static operand types (the runtime types always match them).
	var rt *types.Type
	switch {
	case lv.t.IsPointer():
		rt = lv.t
	case op == token.Shl || op == token.Shr:
		rt = types.Promote(lv.t)
	default:
		pa, pb := promoteStatic(lv.t), promoteStatic(n.RHS.Type())
		if pa == pb {
			rt = pa
		} else {
			rt = types.UsualArith(pa, pb)
		}
	}
	res := e.binOp(op, cur, rhs, lv.t, n.RHS.Type(), rt, n.Pos())
	res2 := e.convertTo(res, lv.t, n.Pos())
	e.store(lv, res2, n.Pos())
	return res2
}

func (e *emitter) call(n *ast.Call) string {
	e.w("m.GenStep()")
	sym := n.Fun.Sym
	if sym == nil {
		r := e.nv()
		e.w("m.GenFailf(%s, %q, %q)", e.posRef(n.Pos()), "unresolved function %q", n.Fun.Name)
		e.w("%s := interp.Value{}", r)
		return r
	}
	av := e.nv()
	e.w("%s := m.GenArgs(%d)", av, len(n.Args))
	for i, a := range n.Args {
		v := e.expr(a)
		e.w("%s[%d] = %s", av, i, v)
	}
	if sym.Builtin {
		slot := e.builtinSlot(sym.Name)
		rv := e.nv()
		e.w("%s := m.GenBuiltin(%d, %q, %s)(m, %s, %s)", rv, slot, sym.Name, e.posRef(n.Pos()), e.posRef(n.Pos()), av)
		e.w("m.GenPutArgs(%s)", av)
		ret := sym.Type.Fn.Ret
		if ret.IsVoid() {
			e.w("_ = %s", rv)
			r := e.nv()
			e.w("%s := interp.Value{T: types.VoidType}", r)
			return r
		}
		return e.convertTo(rv, ret, n.Pos())
	}
	if sym.FuncIdx < 0 || sym.FuncIdx >= len(e.prog.Funcs) {
		r := e.nv()
		e.w("m.GenFailf(%s, %q, %q)", e.posRef(n.Pos()), "function %q has no body", sym.Name)
		e.w("_ = %s", av)
		e.w("%s := interp.Value{}", r)
		return r
	}
	callee := e.prog.Funcs[sym.FuncIdx]
	rv := e.nv()
	e.w("%s := %sf_%s(m, %s, %s)", rv, e.pfx, callee.Name, av, e.posRef(n.Pos()))
	e.w("m.GenPutArgs(%s)", av)
	return rv
}
