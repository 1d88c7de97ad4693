// Package sema implements semantic analysis for the focc C dialect: symbol
// resolution, type checking with the usual arithmetic conversions, constant
// folding (sizeof, case labels, global initializers), stack frame layout,
// switch-case resolution, and goto-label validation. It annotates the AST
// in place and produces a Program the interpreter executes.
package sema

import (
	"fmt"

	"focc/internal/cc/ast"
	"focc/internal/cc/token"
	"focc/internal/cc/types"
)

// Error is a semantic error with a source position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Program is an analyzed translation unit, ready for execution.
type Program struct {
	File    *ast.File
	Funcs   []*ast.FuncDecl // function definitions, in source order
	FuncMap map[string]*ast.FuncDecl
	Globals []*ast.VarDecl // global variables, in source order
	// Literals is the interned string literal table; StringLit.LitIndex
	// indexes it. Entries include the trailing NUL.
	Literals []string
	// LoadSites counts the canonical load-site ids assigned by
	// assignLoadSites; node LoadSite fields range over [0, LoadSites).
	LoadSites int
}

// Analyzer performs semantic analysis.
type Analyzer struct {
	errs     []error
	prog     *Program
	scopes   []map[string]*ast.Symbol
	litIdx   map[string]int
	builtins map[string]*types.Type // libc prototypes (Kind == Func)

	// current function state
	fn        *ast.FuncDecl
	frameOff  uint64
	addrTaken bool // a & operand in fn is rooted at a local
	loopDepth int
	swDepth   int
	labels    map[string]bool
	gotos     []*ast.Goto
}

// Analyze checks file and returns the executable Program. builtins maps
// host-provided (libc) function names to their function types.
func Analyze(file *ast.File, builtins map[string]*types.Type) (*Program, []error) {
	a := &Analyzer{
		prog: &Program{
			File:    file,
			FuncMap: map[string]*ast.FuncDecl{},
		},
		litIdx:   map[string]int{},
		builtins: builtins,
	}
	a.pushScope()
	a.declareEnums(file)
	a.collectTopLevel(file)
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			a.checkFunc(fd)
		}
	}
	if len(a.errs) > 0 {
		return a.prog, a.errs
	}
	assignLoadSites(a.prog)
	return a.prog, nil
}

func (a *Analyzer) errorf(pos token.Pos, format string, args ...any) {
	a.errs = append(a.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

func (a *Analyzer) pushScope() {
	a.scopes = append(a.scopes, map[string]*ast.Symbol{})
}

func (a *Analyzer) popScope() { a.scopes = a.scopes[:len(a.scopes)-1] }

func (a *Analyzer) declare(sym *ast.Symbol) {
	top := a.scopes[len(a.scopes)-1]
	if _, exists := top[sym.Name]; exists {
		a.errorf(sym.Pos, "redeclaration of %q", sym.Name)
	}
	top[sym.Name] = sym
}

func (a *Analyzer) lookup(name string) *ast.Symbol {
	for i := len(a.scopes) - 1; i >= 0; i-- {
		if s, ok := a.scopes[i][name]; ok {
			return s
		}
	}
	return nil
}

func (a *Analyzer) declareEnums(file *ast.File) {
	for name, val := range file.EnumConsts {
		a.declare(&ast.Symbol{
			Name: name, Type: types.IntType,
			Storage: ast.StorageEnum, EnumVal: val,
		})
	}
}

func (a *Analyzer) collectTopLevel(file *ast.File) {
	for _, d := range file.Decls {
		switch decl := d.(type) {
		case *ast.VarDecl:
			if decl.T.Kind == types.Void {
				a.errorf(decl.Pos(), "variable %q has void type", decl.Name)
				continue
			}
			if decl.T.IsArray() && decl.T.Len < 0 {
				decl.T = a.completeArrayFromInit(decl)
			}
			sym := &ast.Symbol{
				Name: decl.Name, Type: decl.T,
				Storage: ast.StorageGlobal, Pos: decl.Pos(),
				GlobalIdx: len(a.prog.Globals),
			}
			decl.Sym = sym
			a.declare(sym)
			a.prog.Globals = append(a.prog.Globals, decl)
			if decl.Init != nil {
				a.checkGlobalInit(decl)
			}
		case *ast.FuncDecl:
			existing := a.lookup(decl.Name)
			if existing != nil {
				if existing.Storage != ast.StorageFunc {
					a.errorf(decl.Pos(), "%q redeclared as a function", decl.Name)
					continue
				}
				decl.Sym = existing
				if decl.Body != nil {
					if existing.FuncIdx >= 0 {
						a.errorf(decl.Pos(), "function %q redefined", decl.Name)
						continue
					}
					existing.FuncIdx = len(a.prog.Funcs)
					existing.Type = decl.T
					a.prog.Funcs = append(a.prog.Funcs, decl)
					a.prog.FuncMap[decl.Name] = decl
				}
				continue
			}
			sym := &ast.Symbol{
				Name: decl.Name, Type: decl.T,
				Storage: ast.StorageFunc, Pos: decl.Pos(), FuncIdx: -1,
			}
			decl.Sym = sym
			a.declare(sym)
			if decl.Body != nil {
				sym.FuncIdx = len(a.prog.Funcs)
				a.prog.Funcs = append(a.prog.Funcs, decl)
				a.prog.FuncMap[decl.Name] = decl
			}
		}
	}
}

// completeArrayFromInit infers the length of `T x[] = ...` from its
// initializer.
func (a *Analyzer) completeArrayFromInit(decl *ast.VarDecl) *types.Type {
	switch init := decl.Init.(type) {
	case *ast.InitList:
		return types.ArrayOf(decl.T.Elem, len(init.Elems))
	case *ast.StringLit:
		if decl.T.Elem.Size() == 1 {
			return types.ArrayOf(decl.T.Elem, len(init.Val)+1)
		}
	}
	a.errorf(decl.Pos(), "cannot infer length of array %q", decl.Name)
	return types.ArrayOf(decl.T.Elem, 0)
}

// internLit interns a string literal and annotates the node.
func (a *Analyzer) internLit(s *ast.StringLit) {
	key := s.Val + "\x00"
	idx, ok := a.litIdx[key]
	if !ok {
		idx = len(a.prog.Literals)
		a.litIdx[key] = idx
		a.prog.Literals = append(a.prog.Literals, key)
	}
	s.LitIndex = idx
	s.SetType(types.ArrayOf(types.CharType, len(s.Val)+1))
}

// checkGlobalInit validates that a global initializer is constant: folded
// integers, string literals, or init lists thereof.
func (a *Analyzer) checkGlobalInit(decl *ast.VarDecl) {
	decl.Init = a.checkInitializer(decl.Init, decl.T, true)
}

// checkInitializer type-checks an initializer against the declared type.
// constant restricts to compile-time constants (global scope).
func (a *Analyzer) checkInitializer(init ast.Expr, t *types.Type, constant bool) ast.Expr {
	switch iv := init.(type) {
	case *ast.InitList:
		switch t.Kind {
		case types.Array:
			if t.Len >= 0 && len(iv.Elems) > t.Len {
				a.errorf(iv.Pos(), "too many initializers for %s", t)
			}
			for i := range iv.Elems {
				iv.Elems[i] = a.checkInitializer(iv.Elems[i], t.Elem, constant)
			}
		case types.Struct:
			if len(iv.Elems) > len(t.Rec.Fields) {
				a.errorf(iv.Pos(), "too many initializers for %s", t)
			}
			for i := range iv.Elems {
				if i < len(t.Rec.Fields) {
					iv.Elems[i] = a.checkInitializer(iv.Elems[i], t.Rec.Fields[i].Type, constant)
				}
			}
		default:
			// Scalar in braces: { 0 }.
			if len(iv.Elems) != 1 {
				a.errorf(iv.Pos(), "scalar initializer with %d elements", len(iv.Elems))
			} else {
				iv.Elems[0] = a.checkInitializer(iv.Elems[0], t, constant)
			}
		}
		iv.SetType(t)
		return iv
	case *ast.StringLit:
		a.internLit(iv)
		if t.Kind == types.Array && t.Elem.Size() == 1 {
			if t.Len >= 0 && len(iv.Val)+1 > t.Len+1 {
				a.errorf(iv.Pos(), "string literal does not fit in %s", t)
			}
			return iv
		}
		if t.IsPointer() {
			return iv
		}
		a.errorf(iv.Pos(), "string literal initializing %s", t)
		return iv
	default:
		e := a.checkExpr(init)
		if constant {
			if v, ok := a.evalConst(e); ok {
				lit := &ast.IntLit{Val: v}
				lit.P = e.Pos()
				lit.SetType(t)
				return lit
			}
			if _, isStr := e.(*ast.StringLit); !isStr {
				a.errorf(e.Pos(), "global initializer must be a constant expression")
			}
		}
		return e
	}
}

// --- Function bodies ---

func (a *Analyzer) checkFunc(fd *ast.FuncDecl) {
	a.fn = fd
	a.frameOff = 0
	a.addrTaken = false
	a.labels = map[string]bool{}
	a.gotos = nil
	a.loopDepth, a.swDepth = 0, 0
	a.pushScope()

	for _, p := range fd.T.Fn.Params {
		if p.Name == "" {
			a.errorf(fd.Pos(), "function %q parameter missing a name", fd.Name)
			continue
		}
		sym := a.newFrameSym(p.Name, p.Type, ast.StorageParam, fd.Pos())
		fd.Params = append(fd.Params, sym)
	}
	a.collectLabels(fd.Body)
	a.checkBlock(fd.Body)
	a.popScope()

	for _, g := range a.gotos {
		if !a.labels[g.Label] {
			a.errorf(g.Pos(), "goto undefined label %q", g.Label)
		}
	}
	fd.Labels = a.labels
	fd.FrameSize = a.frameOff
	fd.FrameNoEscape = !a.addrTaken
	for _, sym := range fd.Locals {
		if k := sym.Type.Kind; k == types.Array || k == types.Struct {
			fd.FrameNoEscape = false
		}
	}
	a.fn = nil
}

// rootedAtLocal reports whether the lvalue e designates storage of a
// local or parameter, looking through '.', '[]' and casts. It is
// conservative: p[i] with a local pointer p counts as rooted too.
func rootedAtLocal(e ast.Expr) bool {
	for {
		switch n := e.(type) {
		case *ast.Ident:
			return n.Sym != nil && (n.Sym.Storage == ast.StorageLocal || n.Sym.Storage == ast.StorageParam)
		case *ast.Member:
			if n.Arrow {
				return false
			}
			e = n.X
		case *ast.Index:
			e = n.X
		case *ast.Cast:
			e = n.X
		default:
			return false
		}
	}
}

func (a *Analyzer) newFrameSym(name string, t *types.Type, st ast.StorageClass, pos token.Pos) *ast.Symbol {
	align := t.Align()
	a.frameOff = (a.frameOff + align - 1) / align * align
	sym := &ast.Symbol{
		Name: name, Type: t, Storage: st, Pos: pos, FrameOff: a.frameOff,
	}
	size := t.Size()
	if size == 0 {
		size = 1
	}
	a.frameOff += size
	a.declare(sym)
	a.fn.Locals = append(a.fn.Locals, sym)
	return sym
}

// collectLabels records every label name in the function (labels have
// function scope in C, so goto can jump forward).
func (a *Analyzer) collectLabels(s ast.Stmt) {
	switch n := s.(type) {
	case *ast.Block:
		for i, st := range n.Stmts {
			// Record the top-level label index table the interpreter uses
			// for goto dispatch (chained `a: b: stmt` labels all resolve to
			// the same statement index, like the runtime scan they replace).
			l, ok := st.(*ast.Labeled)
			for ok {
				if n.LabelIdx == nil {
					n.LabelIdx = map[string]int{}
				}
				if _, dup := n.LabelIdx[l.Name]; !dup {
					n.LabelIdx[l.Name] = i
				}
				l, ok = l.Stmt.(*ast.Labeled)
			}
			a.collectLabels(st)
		}
	case *ast.Labeled:
		if a.labels[n.Name] {
			a.errorf(n.Pos(), "duplicate label %q", n.Name)
		}
		a.labels[n.Name] = true
		a.collectLabels(n.Stmt)
	case *ast.If:
		a.collectLabels(n.Then)
		if n.Else != nil {
			a.collectLabels(n.Else)
		}
	case *ast.While:
		a.collectLabels(n.Body)
	case *ast.DoWhile:
		a.collectLabels(n.Body)
	case *ast.For:
		a.collectLabels(n.Body)
	case *ast.Switch:
		a.collectLabels(n.Body)
	}
}

func (a *Analyzer) checkBlock(b *ast.Block) {
	a.pushScope()
	for _, s := range b.Stmts {
		a.checkStmt(s)
	}
	a.popScope()
}

func (a *Analyzer) checkStmt(s ast.Stmt) {
	switch n := s.(type) {
	case *ast.Block:
		a.checkBlock(n)
	case *ast.Empty:
	case *ast.ExprStmt:
		n.X = a.checkExpr(n.X)
	case *ast.DeclStmt:
		for _, vd := range n.Decls {
			a.checkLocalDecl(vd)
		}
	case *ast.If:
		n.Cond = a.checkCond(n.Cond)
		a.checkStmt(n.Then)
		if n.Else != nil {
			a.checkStmt(n.Else)
		}
	case *ast.While:
		n.Cond = a.checkCond(n.Cond)
		a.loopDepth++
		a.checkStmt(n.Body)
		a.loopDepth--
	case *ast.DoWhile:
		a.loopDepth++
		a.checkStmt(n.Body)
		a.loopDepth--
		n.Cond = a.checkCond(n.Cond)
	case *ast.For:
		a.pushScope()
		if n.Init != nil {
			a.checkStmt(n.Init)
		}
		if n.Cond != nil {
			n.Cond = a.checkCond(n.Cond)
		}
		if n.Post != nil {
			n.Post = a.checkExpr(n.Post)
		}
		a.loopDepth++
		a.checkStmt(n.Body)
		a.loopDepth--
		a.popScope()
	case *ast.Switch:
		n.Cond = a.checkExpr(n.Cond)
		if !n.Cond.Type().Decay().IsInteger() {
			a.errorf(n.Cond.Pos(), "switch condition must be an integer, have %s", n.Cond.Type())
		}
		a.swDepth++
		a.resolveSwitch(n)
		a.pushScope()
		for _, st := range n.Body.Stmts {
			if _, isCase := st.(*ast.CaseLabel); isCase {
				continue // resolved by resolveSwitch
			}
			a.checkStmt(st)
		}
		a.popScope()
		a.swDepth--
	case *ast.CaseLabel:
		a.errorf(n.Pos(), "case/default label outside the top level of a switch body")
	case *ast.Break:
		if a.loopDepth == 0 && a.swDepth == 0 {
			a.errorf(n.Pos(), "break outside loop or switch")
		}
	case *ast.Continue:
		if a.loopDepth == 0 {
			a.errorf(n.Pos(), "continue outside loop")
		}
	case *ast.Return:
		ret := a.fn.T.Fn.Ret
		if n.X != nil {
			n.X = a.checkExpr(n.X)
			if ret.IsVoid() {
				a.errorf(n.Pos(), "return with a value in void function %q", a.fn.Name)
			}
		}
	case *ast.Goto:
		a.gotos = append(a.gotos, n)
	case *ast.Labeled:
		a.checkStmt(n.Stmt)
	default:
		a.errorf(s.Pos(), "unsupported statement %T", s)
	}
}

// resolveSwitch folds case labels at the top level of the switch body.
func (a *Analyzer) resolveSwitch(sw *ast.Switch) {
	seen := map[int64]bool{}
	for i, st := range sw.Body.Stmts {
		cl, ok := st.(*ast.CaseLabel)
		if !ok {
			continue
		}
		if cl.IsDefault {
			if sw.DefaultIdx >= 0 {
				a.errorf(cl.Pos(), "duplicate default label")
			}
			sw.DefaultIdx = i
			continue
		}
		cl.Val = a.checkExpr(cl.Val)
		v, okc := a.evalConst(cl.Val)
		if !okc {
			a.errorf(cl.Pos(), "case label must be a constant expression")
			continue
		}
		if seen[v] {
			a.errorf(cl.Pos(), "duplicate case value %d", v)
		}
		seen[v] = true
		cl.FoldedVal = v
		sw.Cases = append(sw.Cases, ast.SwitchCase{Val: v, Idx: i})
		if sw.CaseIdx == nil {
			sw.CaseIdx = map[int64]int{}
		}
		sw.CaseIdx[v] = i
	}
}

func (a *Analyzer) checkLocalDecl(vd *ast.VarDecl) {
	if vd.T.Kind == types.Void {
		a.errorf(vd.Pos(), "variable %q has void type", vd.Name)
		return
	}
	if vd.T.IsArray() && vd.T.Len < 0 {
		vd.T = a.completeArrayFromInit(vd)
	}
	if vd.T.Kind == types.Struct && !vd.T.Rec.Complete {
		a.errorf(vd.Pos(), "variable %q has incomplete struct type %s", vd.Name, vd.T)
	}
	sym := a.newFrameSym(vd.Name, vd.T, ast.StorageLocal, vd.Pos())
	vd.Sym = sym
	if vd.Init != nil {
		vd.Init = a.checkInitializer(vd.Init, vd.T, false)
	}
}

// checkCond checks an expression used as a condition.
func (a *Analyzer) checkCond(e ast.Expr) ast.Expr {
	e = a.checkExpr(e)
	if t := e.Type(); t != nil && !t.Decay().IsScalar() {
		a.errorf(e.Pos(), "condition must be scalar, have %s", t)
	}
	return e
}

// --- Expressions ---

// errType marks expressions whose type could not be determined; downstream
// checks go quiet on it.
var errType = &types.Type{Kind: types.Invalid}

func (a *Analyzer) checkExpr(e ast.Expr) ast.Expr {
	switch n := e.(type) {
	case *ast.IntLit:
		if n.Type() == nil {
			if n.Val > 0x7fffffff || n.Val < -0x80000000 {
				n.SetType(types.LongType)
			} else {
				n.SetType(types.IntType)
			}
		}
		return n
	case *ast.StringLit:
		a.internLit(n)
		return n
	case *ast.Ident:
		sym := a.lookup(n.Name)
		if sym == nil {
			a.errorf(n.Pos(), "undeclared identifier %q", n.Name)
			n.SetType(errType)
			return n
		}
		n.Sym = sym
		if sym.Storage == ast.StorageEnum {
			lit := &ast.IntLit{Val: sym.EnumVal}
			lit.P = n.Pos()
			lit.SetType(types.IntType)
			return lit
		}
		n.SetType(sym.Type)
		return n
	case *ast.Unary:
		return a.checkUnary(n)
	case *ast.Postfix:
		n.X = a.checkExpr(n.X)
		a.requireLvalue(n.X)
		t := n.X.Type()
		if !t.IsInteger() && !t.IsPointer() {
			a.errorf(n.Pos(), "invalid operand %s to %s", t, n.Op)
		}
		n.SetType(t)
		return n
	case *ast.Binary:
		return a.checkBinary(n)
	case *ast.Assign:
		n.LHS = a.checkExpr(n.LHS)
		n.RHS = a.checkExpr(n.RHS)
		a.requireLvalue(n.LHS)
		lt := n.LHS.Type()
		if lt.IsArray() {
			a.errorf(n.Pos(), "cannot assign to an array")
		}
		if lt.Kind == types.Struct {
			if n.Op != token.Assign {
				a.errorf(n.Pos(), "compound assignment on struct")
			} else if !types.Same(lt, n.RHS.Type()) {
				a.errorf(n.Pos(), "assigning %s to %s", n.RHS.Type(), lt)
			}
		}
		n.SetType(lt)
		return n
	case *ast.Cond:
		n.C = a.checkCond(n.C)
		n.Then = a.checkExpr(n.Then)
		n.Else = a.checkExpr(n.Else)
		tt, et := n.Then.Type().Decay(), n.Else.Type().Decay()
		switch {
		case tt.IsInteger() && et.IsInteger():
			n.SetType(types.UsualArith(tt, et))
		case tt.IsPointer():
			n.SetType(tt)
		case et.IsPointer():
			n.SetType(et)
		case types.Same(tt, et):
			n.SetType(tt)
		default:
			a.errorf(n.Pos(), "mismatched ?: operand types %s and %s", tt, et)
			n.SetType(errType)
		}
		return n
	case *ast.Call:
		return a.checkCall(n)
	case *ast.Index:
		n.X = a.checkExpr(n.X)
		n.Idx = a.checkExpr(n.Idx)
		xt := n.X.Type().Decay()
		if !xt.IsPointer() {
			// C also allows i[p]; support it by swapping.
			it := n.Idx.Type().Decay()
			if it.IsPointer() {
				n.X, n.Idx = n.Idx, n.X
				xt = it
			} else {
				a.errorf(n.Pos(), "indexing non-pointer type %s", n.X.Type())
				n.SetType(errType)
				return n
			}
		}
		if !n.Idx.Type().Decay().IsInteger() {
			a.errorf(n.Idx.Pos(), "array index must be an integer, have %s", n.Idx.Type())
		}
		n.SetType(xt.Elem)
		return n
	case *ast.Member:
		n.X = a.checkExpr(n.X)
		xt := n.X.Type()
		if n.Arrow {
			xt = xt.Decay()
			if !xt.IsPointer() || xt.Elem.Kind != types.Struct {
				a.errorf(n.Pos(), "-> on non-struct-pointer type %s", n.X.Type())
				n.SetType(errType)
				return n
			}
			xt = xt.Elem
		} else if xt.Kind != types.Struct {
			a.errorf(n.Pos(), ". on non-struct type %s", xt)
			n.SetType(errType)
			return n
		}
		f, ok := xt.Rec.FieldByName(n.Name)
		if !ok {
			a.errorf(n.Pos(), "%s has no field %q", xt, n.Name)
			n.SetType(errType)
			return n
		}
		n.Field = f
		n.SetType(f.Type)
		return n
	case *ast.SizeofExpr:
		n.X = a.checkExpr(n.X)
		lit := &ast.IntLit{Val: int64(n.X.Type().Size())}
		lit.P = n.Pos()
		lit.SetType(types.ULongType)
		return lit
	case *ast.SizeofType:
		lit := &ast.IntLit{Val: int64(n.Of.Size())}
		lit.P = n.Pos()
		lit.SetType(types.ULongType)
		return lit
	case *ast.Cast:
		n.X = a.checkExpr(n.X)
		xt := n.X.Type().Decay()
		to := n.To
		ok := to.IsVoid() ||
			(to.IsScalar() && xt.IsScalar()) ||
			(to.Kind == types.Struct && types.Same(to, xt))
		if !ok && xt.Kind != types.Invalid {
			a.errorf(n.Pos(), "invalid cast from %s to %s", n.X.Type(), to)
		}
		n.SetType(to)
		return n
	case *ast.Comma:
		n.X = a.checkExpr(n.X)
		n.Y = a.checkExpr(n.Y)
		n.SetType(n.Y.Type())
		return n
	case *ast.InitList:
		a.errorf(n.Pos(), "initializer list used outside a declaration")
		n.SetType(errType)
		return n
	}
	a.errorf(e.Pos(), "unsupported expression %T", e)
	return e
}

func (a *Analyzer) checkUnary(n *ast.Unary) ast.Expr {
	n.X = a.checkExpr(n.X)
	t := n.X.Type()
	switch n.Op {
	case token.Minus, token.Plus:
		if !t.Decay().IsInteger() {
			a.errorf(n.Pos(), "invalid operand %s to unary %s", t, n.Op)
		}
		n.SetType(types.Promote(t))
	case token.Tilde:
		if !t.IsInteger() {
			a.errorf(n.Pos(), "invalid operand %s to ~", t)
		}
		n.SetType(types.Promote(t))
	case token.Bang:
		if !t.Decay().IsScalar() {
			a.errorf(n.Pos(), "invalid operand %s to !", t)
		}
		n.SetType(types.IntType)
	case token.Star:
		dt := t.Decay()
		if !dt.IsPointer() {
			a.errorf(n.Pos(), "dereferencing non-pointer type %s", t)
			n.SetType(errType)
			return n
		}
		if dt.Elem.IsVoid() {
			a.errorf(n.Pos(), "dereferencing void pointer")
			n.SetType(errType)
			return n
		}
		n.SetType(dt.Elem)
	case token.Amp:
		a.requireLvalue(n.X)
		if rootedAtLocal(n.X) {
			a.addrTaken = true
		}
		n.SetType(types.PointerTo(t))
	case token.Inc, token.Dec:
		a.requireLvalue(n.X)
		if !t.IsInteger() && !t.IsPointer() {
			a.errorf(n.Pos(), "invalid operand %s to %s", t, n.Op)
		}
		n.SetType(t)
	default:
		a.errorf(n.Pos(), "unsupported unary operator %s", n.Op)
		n.SetType(errType)
	}
	return n
}

func (a *Analyzer) checkBinary(n *ast.Binary) ast.Expr {
	n.X = a.checkExpr(n.X)
	n.Y = a.checkExpr(n.Y)
	xt, yt := n.X.Type().Decay(), n.Y.Type().Decay()
	if xt.Kind == types.Invalid || yt.Kind == types.Invalid {
		n.SetType(errType)
		return n
	}
	switch n.Op {
	case token.Plus:
		switch {
		case xt.IsPointer() && yt.IsInteger():
			n.SetType(xt)
		case xt.IsInteger() && yt.IsPointer():
			n.SetType(yt)
		case xt.IsInteger() && yt.IsInteger():
			n.SetType(types.UsualArith(xt, yt))
		default:
			a.errorf(n.Pos(), "invalid operands %s and %s to +", xt, yt)
			n.SetType(errType)
		}
	case token.Minus:
		switch {
		case xt.IsPointer() && yt.IsPointer():
			n.SetType(types.LongType) // ptrdiff_t
		case xt.IsPointer() && yt.IsInteger():
			n.SetType(xt)
		case xt.IsInteger() && yt.IsInteger():
			n.SetType(types.UsualArith(xt, yt))
		default:
			a.errorf(n.Pos(), "invalid operands %s and %s to -", xt, yt)
			n.SetType(errType)
		}
	case token.Star, token.Slash, token.Percent, token.Amp, token.Pipe,
		token.Caret:
		if !xt.IsInteger() || !yt.IsInteger() {
			a.errorf(n.Pos(), "invalid operands %s and %s to %s", xt, yt, n.Op)
			n.SetType(errType)
			return n
		}
		n.SetType(types.UsualArith(xt, yt))
	case token.Shl, token.Shr:
		if !xt.IsInteger() || !yt.IsInteger() {
			a.errorf(n.Pos(), "invalid operands %s and %s to %s", xt, yt, n.Op)
			n.SetType(errType)
			return n
		}
		n.SetType(types.Promote(xt))
	case token.Lt, token.Gt, token.Le, token.Ge, token.EqEq, token.NotEq:
		okCmp := (xt.IsInteger() && yt.IsInteger()) ||
			(xt.IsPointer() && yt.IsPointer()) ||
			(xt.IsPointer() && yt.IsInteger()) ||
			(xt.IsInteger() && yt.IsPointer())
		if !okCmp {
			a.errorf(n.Pos(), "invalid comparison between %s and %s", xt, yt)
		}
		n.SetType(types.IntType)
	case token.AndAnd, token.OrOr:
		if !xt.IsScalar() || !yt.IsScalar() {
			a.errorf(n.Pos(), "invalid operands %s and %s to %s", xt, yt, n.Op)
		}
		n.SetType(types.IntType)
	default:
		a.errorf(n.Pos(), "unsupported binary operator %s", n.Op)
		n.SetType(errType)
	}
	return n
}

func (a *Analyzer) checkCall(n *ast.Call) ast.Expr {
	name := n.Fun.Name
	sym := a.lookup(name)
	if sym == nil {
		if bt, ok := a.builtins[name]; ok {
			sym = &ast.Symbol{
				Name: name, Type: bt, Storage: ast.StorageFunc,
				FuncIdx: -1, Builtin: true,
			}
			a.scopes[0][name] = sym
		} else {
			a.errorf(n.Pos(), "call to undeclared function %q", name)
			n.SetType(errType)
			return n
		}
	}
	if sym.Storage != ast.StorageFunc || sym.Type.Kind != types.Func {
		a.errorf(n.Pos(), "%q is not a function", name)
		n.SetType(errType)
		return n
	}
	// A C-source prototype without a definition binds to a host-provided
	// builtin (libc or a driver "syscall"); if the host supplies no
	// implementation the call fails at run time, like an unresolved
	// symbol at load time.
	if sym.FuncIdx < 0 {
		sym.Builtin = true
	}
	n.Fun.Sym = sym
	n.Fun.SetType(sym.Type)
	fn := sym.Type.Fn
	if len(n.Args) < len(fn.Params) ||
		(!fn.Variadic && len(n.Args) > len(fn.Params)) {
		a.errorf(n.Pos(), "function %q expects %d argument(s), got %d",
			name, len(fn.Params), len(n.Args))
	}
	for i := range n.Args {
		n.Args[i] = a.checkExpr(n.Args[i])
		if i < len(fn.Params) {
			at := n.Args[i].Type().Decay()
			pt := fn.Params[i].Type
			if !argCompatible(pt, at) {
				a.errorf(n.Args[i].Pos(), "argument %d of %q: cannot pass %s as %s",
					i+1, name, n.Args[i].Type(), pt)
			}
		}
	}
	n.SetType(fn.Ret)
	return n
}

// argCompatible is the permissive C argument compatibility relation.
func argCompatible(param, arg *types.Type) bool {
	if param.Kind == types.Invalid || arg.Kind == types.Invalid {
		return true
	}
	switch {
	case param.IsInteger() && arg.IsInteger():
		return true
	case param.IsPointer() && arg.IsPointer():
		return true // any pointer converts (classic C laxity + void*)
	case param.IsPointer() && arg.IsInteger():
		return true // 0 and int-as-pointer idioms
	case param.IsInteger() && arg.IsPointer():
		return true
	case param.Kind == types.Struct:
		return types.Same(param, arg)
	}
	return false
}

// requireLvalue validates that e designates an object.
func (a *Analyzer) requireLvalue(e ast.Expr) {
	switch n := e.(type) {
	case *ast.Ident:
		if n.Sym != nil && n.Sym.Storage == ast.StorageFunc {
			a.errorf(e.Pos(), "function used as lvalue")
		}
	case *ast.Index, *ast.Member:
	case *ast.Unary:
		if n.Op != token.Star {
			a.errorf(e.Pos(), "expression is not an lvalue")
		}
	case *ast.StringLit:
		// Writable in C only nominally; treat as lvalue (checks catch
		// writes at runtime).
	default:
		a.errorf(e.Pos(), "expression is not an lvalue")
	}
}

// evalConst folds an analyzed expression to an integer constant.
func (a *Analyzer) evalConst(e ast.Expr) (int64, bool) {
	switch n := e.(type) {
	case *ast.IntLit:
		return n.Val, true
	case *ast.Unary:
		v, ok := a.evalConst(n.X)
		if !ok {
			return 0, false
		}
		switch n.Op {
		case token.Minus:
			return -v, true
		case token.Plus:
			return v, true
		case token.Tilde:
			return ^v, true
		case token.Bang:
			if v == 0 {
				return 1, true
			}
			return 0, true
		}
	case *ast.Cast:
		if v, ok := a.evalConst(n.X); ok && n.To.IsInteger() {
			return types.Truncate(n.To, v), true
		}
	case *ast.Cond:
		if c, ok := a.evalConst(n.C); ok {
			if c != 0 {
				return a.evalConst(n.Then)
			}
			return a.evalConst(n.Else)
		}
	case *ast.Binary:
		x, ok1 := a.evalConst(n.X)
		y, ok2 := a.evalConst(n.Y)
		if ok1 && ok2 {
			return foldBinary(n.Op, x, y)
		}
	}
	return 0, false
}

func foldBinary(op token.Kind, x, y int64) (int64, bool) {
	b2i := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	switch op {
	case token.Plus:
		return x + y, true
	case token.Minus:
		return x - y, true
	case token.Star:
		return x * y, true
	case token.Slash:
		if y == 0 {
			return 0, false
		}
		return x / y, true
	case token.Percent:
		if y == 0 {
			return 0, false
		}
		return x % y, true
	case token.Shl:
		return x << uint64(y&63), true
	case token.Shr:
		return x >> uint64(y&63), true
	case token.Amp:
		return x & y, true
	case token.Pipe:
		return x | y, true
	case token.Caret:
		return x ^ y, true
	case token.Lt:
		return b2i(x < y), true
	case token.Gt:
		return b2i(x > y), true
	case token.Le:
		return b2i(x <= y), true
	case token.Ge:
		return b2i(x >= y), true
	case token.EqEq:
		return b2i(x == y), true
	case token.NotEq:
		return b2i(x != y), true
	case token.AndAnd:
		return b2i(x != 0 && y != 0), true
	case token.OrOr:
		return b2i(x != 0 || y != 0), true
	}
	return 0, false
}
