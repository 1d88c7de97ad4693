// Package strategy is the context-aware manufactured-value subsystem
// (fo.ModeFOContext). It classifies every canonical load site of a
// sema-analyzed program by its static context (Rigger et al.,
// "Context-aware Failure-oblivious Computing"), builds a per-site strategy
// table, and provides the core.ContextGenerator engine both execution
// engines consult — at identical decision points — when an invalid read
// needs a value manufactured.
//
// Site identity is the canonical load-site id sema assigns during analysis
// (ast.Index/Member/Unary-star LoadSite fields, see sema.assignLoadSites):
// a pure function of the source text, so the tree-walk evaluator and the
// ahead-of-time Go generator key the same table with the same ids. The campaign-driven loop that searches over
// per-site strategy assignments lives in internal/inject (strategy search
// needs the fault-injection campaign, which depends on fo, which depends
// on this package).
package strategy

import (
	"fmt"

	"focc/internal/cc/ast"
	"focc/internal/cc/sema"
	"focc/internal/cc/token"
)

// Class is the static context of a load site.
type Class uint8

// Load-site classes, in classification precedence order: a pointer-typed
// read is PointerRead even inside a scan loop; a 1-byte read inside a loop
// is StringScan even when its base symbol is also stored to.
const (
	// Other is every load the more specific classes don't claim.
	Other Class = iota
	// StringScan is a 1-byte read lexically inside a loop — the shape of
	// the paper's sentinel scans (Midnight Commander's '/' scan, Sendmail
	// prescan). Manufacturing '\0' terminates the scan immediately.
	StringScan
	// PointerRead is a pointer-typed read; manufacturing a small integer
	// here yields a wild pointer, so the default strategy manufactures a
	// valid unit-local pointer instead.
	PointerRead
	// Reload is a read whose base symbol is also a store target in the
	// same function — a candidate for replaying the last stored value of
	// the location from the discarded-store shadow.
	Reload
)

func (c Class) String() string {
	switch c {
	case StringScan:
		return "string-scan"
	case PointerRead:
		return "pointer-read"
	case Reload:
		return "reload"
	}
	return "other"
}

// Site is one classified load site.
type Site struct {
	ID    int32
	Pos   token.Pos
	Class Class
	// Func names the enclosing function ("" for global initializers).
	Func string
	// Width is the static access width in bytes (0 for aggregate loads,
	// which never manufacture scalar values).
	Width int
}

// Table is the classified load-site table of one program, indexed by
// canonical load-site id.
type Table struct {
	Sites []Site
}

// Classify builds the load-site table for a sema-analyzed program. The
// walk mirrors sema.assignLoadSites: every Index, Member, and Unary-star
// node is a site; classification uses only static information (expression
// type, lexical loop nesting, per-function store-target symbols), so the
// table is a pure function of the source text.
func Classify(prog *sema.Program) *Table {
	t := &Table{Sites: make([]Site, prog.LoadSites)}
	for i := range t.Sites {
		t.Sites[i] = Site{ID: int32(i)}
	}
	c := &classifier{t: t}
	for _, d := range prog.File.Decls {
		switch d := d.(type) {
		case *ast.VarDecl:
			c.expr(d.Init)
		case *ast.FuncDecl:
			if d.Body == nil {
				continue
			}
			c.fn = d.Name
			c.stores = map[*ast.Symbol]bool{}
			collectStores(d.Body, c.stores)
			c.stmt(d.Body)
			c.fn, c.stores = "", nil
		}
	}
	return t
}

type classifier struct {
	t      *Table
	fn     string
	loops  int
	stores map[*ast.Symbol]bool
}

// collectStores records the base symbol of every assignment / increment
// target in the function, the "previously stored location" evidence the
// Reload class keys on.
func collectStores(s ast.Stmt, out map[*ast.Symbol]bool) {
	walkStmt(s, func(e ast.Expr) {
		switch e := e.(type) {
		case *ast.Assign:
			if sym := baseSym(e.LHS); sym != nil {
				out[sym] = true
			}
		case *ast.Postfix:
			if sym := baseSym(e.X); sym != nil {
				out[sym] = true
			}
		case *ast.Unary:
			if e.Op == token.Inc || e.Op == token.Dec {
				if sym := baseSym(e.X); sym != nil {
					out[sym] = true
				}
			}
		}
	})
}

// baseSym resolves the root named symbol of an lvalue-ish expression
// (x, x[i], x.f, x->f, *x, chains thereof), or nil.
func baseSym(e ast.Expr) *ast.Symbol {
	for {
		switch n := e.(type) {
		case *ast.Ident:
			return n.Sym
		case *ast.Index:
			e = n.X
		case *ast.Member:
			e = n.X
		case *ast.Unary:
			if n.Op != token.Star {
				return nil
			}
			e = n.X
		case *ast.Cast:
			e = n.X
		default:
			return nil
		}
	}
}

// classify assigns the class of one load-candidate node; called from the
// walk in the same order sema numbered the sites.
func (c *classifier) classify(e ast.Expr) {
	id := sema.LoadSiteOf(e)
	if id < 0 || int(id) >= len(c.t.Sites) {
		return
	}
	s := &c.t.Sites[id]
	t := e.Type()
	s.Pos, s.Func = e.Pos(), c.fn
	if t != nil {
		s.Width = int(t.Size())
	}
	switch {
	case t != nil && t.IsPointer():
		s.Class = PointerRead
	case t != nil && t.Size() == 1 && c.loops > 0:
		s.Class = StringScan
	case c.stores != nil && c.stores[baseSym(e)]:
		s.Class = Reload
	default:
		s.Class = Other
	}
}

func (c *classifier) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.ExprStmt:
		c.expr(s.X)
	case *ast.Block:
		for _, st := range s.Stmts {
			c.stmt(st)
		}
	case *ast.If:
		c.expr(s.Cond)
		c.stmt(s.Then)
		c.stmt(s.Else)
	case *ast.While:
		c.loops++
		c.expr(s.Cond)
		c.stmt(s.Body)
		c.loops--
	case *ast.DoWhile:
		c.loops++
		c.stmt(s.Body)
		c.expr(s.Cond)
		c.loops--
	case *ast.For:
		c.stmt(s.Init)
		c.loops++
		c.expr(s.Cond)
		c.expr(s.Post)
		c.stmt(s.Body)
		c.loops--
	case *ast.Switch:
		c.expr(s.Cond)
		c.stmt(s.Body)
	case *ast.Return:
		c.expr(s.X)
	case *ast.Labeled:
		c.stmt(s.Stmt)
	case *ast.DeclStmt:
		for _, d := range s.Decls {
			c.expr(d.Init)
		}
	case *ast.CaseLabel:
		c.expr(s.Val)
	}
}

func (c *classifier) expr(e ast.Expr) {
	switch e := e.(type) {
	case nil:
	case *ast.Unary:
		c.expr(e.X)
		if e.Op == token.Star {
			c.classify(e)
		}
	case *ast.Index:
		c.expr(e.X)
		c.expr(e.Idx)
		c.classify(e)
	case *ast.Member:
		c.expr(e.X)
		c.classify(e)
	case *ast.Postfix:
		c.expr(e.X)
	case *ast.Binary:
		c.expr(e.X)
		c.expr(e.Y)
	case *ast.Assign:
		c.expr(e.LHS)
		c.expr(e.RHS)
	case *ast.Cond:
		c.expr(e.C)
		c.expr(e.Then)
		c.expr(e.Else)
	case *ast.Call:
		for _, a := range e.Args {
			c.expr(a)
		}
	case *ast.SizeofExpr:
		c.expr(e.X)
	case *ast.Cast:
		c.expr(e.X)
	case *ast.Comma:
		c.expr(e.X)
		c.expr(e.Y)
	case *ast.InitList:
		for _, el := range e.Elems {
			c.expr(el)
		}
	}
}

// walkStmt applies f to every expression under s.
func walkStmt(s ast.Stmt, f func(ast.Expr)) {
	switch s := s.(type) {
	case nil:
	case *ast.ExprStmt:
		walkExpr(s.X, f)
	case *ast.Block:
		for _, st := range s.Stmts {
			walkStmt(st, f)
		}
	case *ast.If:
		walkExpr(s.Cond, f)
		walkStmt(s.Then, f)
		walkStmt(s.Else, f)
	case *ast.While:
		walkExpr(s.Cond, f)
		walkStmt(s.Body, f)
	case *ast.DoWhile:
		walkStmt(s.Body, f)
		walkExpr(s.Cond, f)
	case *ast.For:
		walkStmt(s.Init, f)
		walkExpr(s.Cond, f)
		walkExpr(s.Post, f)
		walkStmt(s.Body, f)
	case *ast.Switch:
		walkExpr(s.Cond, f)
		walkStmt(s.Body, f)
	case *ast.Return:
		walkExpr(s.X, f)
	case *ast.Labeled:
		walkStmt(s.Stmt, f)
	case *ast.DeclStmt:
		for _, d := range s.Decls {
			walkExpr(d.Init, f)
		}
	case *ast.CaseLabel:
		walkExpr(s.Val, f)
	}
}

func walkExpr(e ast.Expr, f func(ast.Expr)) {
	if e == nil {
		return
	}
	f(e)
	switch e := e.(type) {
	case *ast.Unary:
		walkExpr(e.X, f)
	case *ast.Postfix:
		walkExpr(e.X, f)
	case *ast.Index:
		walkExpr(e.X, f)
		walkExpr(e.Idx, f)
	case *ast.Member:
		walkExpr(e.X, f)
	case *ast.Binary:
		walkExpr(e.X, f)
		walkExpr(e.Y, f)
	case *ast.Assign:
		walkExpr(e.LHS, f)
		walkExpr(e.RHS, f)
	case *ast.Cond:
		walkExpr(e.C, f)
		walkExpr(e.Then, f)
		walkExpr(e.Else, f)
	case *ast.Call:
		for _, a := range e.Args {
			walkExpr(a, f)
		}
	case *ast.SizeofExpr:
		walkExpr(e.X, f)
	case *ast.Cast:
		walkExpr(e.X, f)
	case *ast.Comma:
		walkExpr(e.X, f)
		walkExpr(e.Y, f)
	case *ast.InitList:
		for _, el := range e.Elems {
			walkExpr(el, f)
		}
	}
}

// String renders the table as one "id class func pos width" line per site,
// the format the golden classification tests pin.
func (t *Table) String() string {
	out := ""
	for _, s := range t.Sites {
		out += fmt.Sprintf("site %3d %-12s %-16s w=%d %s\n", s.ID, s.Class, s.Func, s.Width, s.Pos)
	}
	return out
}

// Counts returns the number of sites per class, for reports.
func (t *Table) Counts() map[string]int {
	out := map[string]int{}
	for _, s := range t.Sites {
		out[s.Class.String()]++
	}
	return out
}
