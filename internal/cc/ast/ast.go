// Package ast defines the abstract syntax tree of the focc C dialect. The
// parser produces it; the semantic analyzer annotates it in place (symbol
// references, expression types, frame offsets); the interpreter executes it.
package ast

import (
	"focc/internal/cc/token"
	"focc/internal/cc/types"
)

// Node is implemented by every AST node.
type Node interface {
	Pos() token.Pos
}

// Expr is an expression node.
type Expr interface {
	Node
	// Type returns the type annotated by the semantic analyzer.
	Type() *types.Type
	exprNode()
}

// Stmt is a statement node.
type Stmt interface {
	Node
	stmtNode()
}

// StorageClass describes where a variable lives.
type StorageClass int

const (
	StorageGlobal StorageClass = iota
	StorageLocal               // in the current stack frame
	StorageParam               // function parameter (also in the frame)
	StorageFunc                // function symbol
	StorageEnum                // enum constant (value, no storage)
)

// Symbol is a resolved named entity. The semantic analyzer creates one per
// declared variable, parameter, or function and links every Ident to it.
type Symbol struct {
	Name    string
	Type    *types.Type
	Storage StorageClass
	Pos     token.Pos

	// FrameOff is the byte offset of a local/param within its frame.
	FrameOff uint64
	// GlobalIdx indexes the program's global layout table.
	GlobalIdx int
	// EnumVal is the value of an enum constant.
	EnumVal int64
	// FuncIdx indexes the program's function table; -1 for externals
	// provided by the libc host.
	FuncIdx int
	// Builtin marks functions supplied by the host (libc) rather than
	// defined in C source.
	Builtin bool
}

type exprBase struct {
	P token.Pos
	T *types.Type
}

func (e *exprBase) Pos() token.Pos        { return e.P }
func (e *exprBase) Type() *types.Type     { return e.T }
func (e *exprBase) SetType(t *types.Type) { e.T = t }
func (e *exprBase) exprNode()             {}

// IntLit is an integer or character literal.
type IntLit struct {
	exprBase
	Val int64
}

// StringLit is a string literal; the semantic analyzer interns it and
// records its index in the program literal table.
type StringLit struct {
	exprBase
	Val      string
	LitIndex int
}

// Ident is a use of a named entity.
type Ident struct {
	exprBase
	Name string
	Sym  *Symbol
}

// Unary is a prefix operator: - + ! ~ * & ++ --.
type Unary struct {
	exprBase
	Op token.Kind
	X  Expr
	// LoadSite is the canonical load-site id assigned by the semantic
	// analyzer when Op is Star (see sema.assignLoadSites). Engine-
	// independent: both execution engines prime the context-aware
	// value strategy with this id before a checked load.
	LoadSite int32
}

// Postfix is x++ or x--.
type Postfix struct {
	exprBase
	Op token.Kind
	X  Expr
}

// Binary is a binary operator (arithmetic, comparison, logical, bitwise).
type Binary struct {
	exprBase
	Op   token.Kind
	X, Y Expr
}

// Assign is simple or compound assignment.
type Assign struct {
	exprBase
	Op  token.Kind // token.Assign or a compound-assign kind
	LHS Expr
	RHS Expr
}

// Cond is the ternary ?: operator.
type Cond struct {
	exprBase
	C, Then, Else Expr
}

// Call is a direct function call.
type Call struct {
	exprBase
	Fun  *Ident
	Args []Expr
}

// Index is x[i].
type Index struct {
	exprBase
	X, Idx Expr
	// LoadSite is the canonical load-site id assigned by the semantic
	// analyzer (see sema.assignLoadSites).
	LoadSite int32
}

// Member is x.f or x->f.
type Member struct {
	exprBase
	X     Expr
	Name  string
	Arrow bool
	Field types.Field // resolved by sema
	// LoadSite is the canonical load-site id assigned by the semantic
	// analyzer (see sema.assignLoadSites).
	LoadSite int32
}

// SizeofExpr is sizeof(expr); SizeofType is sizeof(type-name). Both are
// folded to constants by the semantic analyzer.
type SizeofExpr struct {
	exprBase
	X Expr
}

// SizeofType is sizeof(type-name).
type SizeofType struct {
	exprBase
	Of *types.Type
}

// Cast is (type)x.
type Cast struct {
	exprBase
	To *types.Type
	X  Expr
}

// Comma is the comma operator x, y.
type Comma struct {
	exprBase
	X, Y Expr
}

// InitList is a braced initializer { a, b, ... }; elements are Expr or
// nested *InitList.
type InitList struct {
	exprBase
	Elems []Expr
}

// --- Statements ---

type stmtBase struct{ P token.Pos }

func (s *stmtBase) Pos() token.Pos { return s.P }
func (s *stmtBase) stmtNode()      {}

// ExprStmt is an expression used as a statement.
type ExprStmt struct {
	stmtBase
	X Expr
}

// Block is { ... }.
type Block struct {
	stmtBase
	Stmts []Stmt
	// LabelIdx maps each label declared at the top level of this block
	// (unwrapping chained `a: b: stmt` labels) to the index of its
	// statement in Stmts. The semantic analyzer fills it so goto
	// resolution is a map lookup at execution time, not a statement scan.
	// Nil when the block declares no labels.
	LabelIdx map[string]int
}

// If is if/else.
type If struct {
	stmtBase
	Cond       Expr
	Then, Else Stmt // Else may be nil
}

// While is a while loop.
type While struct {
	stmtBase
	Cond Expr
	Body Stmt
}

// DoWhile is a do { } while loop.
type DoWhile struct {
	stmtBase
	Body Stmt
	Cond Expr
}

// For is a for loop. Init may be a declaration or an expression statement;
// any of the three clauses may be nil.
type For struct {
	stmtBase
	Init Stmt // *DeclStmt or *ExprStmt or nil
	Cond Expr // nil means true
	Post Expr // nil
	Body Stmt
}

// Switch is a switch statement; Cases are resolved by sema to indexes into
// Body.Stmts.
type Switch struct {
	stmtBase
	Cond Expr
	Body *Block
	// Cases lists (value, statement-index) pairs; DefaultIdx is -1 when
	// there is no default label.
	Cases      []SwitchCase
	DefaultIdx int
	// CaseIdx maps each case value to its statement index in Body.Stmts —
	// the dispatch table the semantic analyzer derives from Cases so case
	// selection is a map lookup at execution time, not a linear scan. Nil
	// when the switch has no value cases.
	CaseIdx map[int64]int
}

// SwitchCase is one resolved case label.
type SwitchCase struct {
	Val int64
	Idx int // index into Switch.Body.Stmts
}

// CaseLabel is `case N:` or `default:` attached before a statement; it only
// appears at the top level of a switch body block.
type CaseLabel struct {
	stmtBase
	IsDefault bool
	Val       Expr // folded constant; nil for default
	FoldedVal int64
}

// Break exits the innermost loop or switch.
type Break struct{ stmtBase }

// Continue continues the innermost loop.
type Continue struct{ stmtBase }

// Return returns from the current function; X may be nil.
type Return struct {
	stmtBase
	X Expr
}

// Goto jumps to a label in the current function.
type Goto struct {
	stmtBase
	Label string
}

// Labeled is `name: stmt`.
type Labeled struct {
	stmtBase
	Name string
	Stmt Stmt
}

// DeclStmt declares one or more local variables.
type DeclStmt struct {
	stmtBase
	Decls []*VarDecl
}

// Empty is a lone semicolon.
type Empty struct{ stmtBase }

// --- Declarations ---

// Decl is a top-level declaration.
type Decl interface {
	Node
	declNode()
}

type declBase struct{ P token.Pos }

func (d *declBase) Pos() token.Pos { return d.P }
func (d *declBase) declNode()      {}

// VarDecl declares a variable (global or local).
type VarDecl struct {
	declBase
	Name string
	T    *types.Type
	Init Expr // may be nil; *InitList for aggregates
	Sym  *Symbol
}

// FuncDecl declares or defines a function.
type FuncDecl struct {
	declBase
	Name string
	T    *types.Type // Kind == Func
	Body *Block      // nil for a prototype
	Sym  *Symbol
	// Params are the parameter symbols in order (filled by sema for
	// definitions).
	Params []*Symbol
	// Locals are all block-scoped variable symbols (for frame layout).
	Locals []*Symbol
	// FrameSize is the total frame byte size (params + locals), computed
	// by sema.
	FrameSize uint64
	// Labels maps label names to statement paths, validated by sema.
	Labels map[string]bool
}

// File is a parsed translation unit.
type File struct {
	Name  string
	Decls []Decl
	// EnumConsts carries file-scope enum constants from the parser (which
	// needed them for constant folding) to the semantic analyzer (which
	// turns them into symbols).
	EnumConsts map[string]int64
}
