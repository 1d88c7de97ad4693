package sema

import (
	"focc/internal/cc/ast"
	"focc/internal/cc/token"
)

// assignLoadSites numbers every potential checked-load expression in the
// program — Index, Member, and Unary-star nodes — with a dense, canonical
// site id. The walk is a fixed in-order traversal over declarations in
// source order, so the numbering is a pure function of the source text and
// therefore identical no matter which execution engine later runs the
// program: the tree-walk evaluator reads the id off the AST node, and the
// ahead-of-time Go generator emits it as a literal. The ids key the
// context-aware manufactured-value table (internal/strategy); they are
// distinct from the generated engine's provenance-recovery site ids
// (gen.sidFor),
// which are allocation-order cache indices that never need to agree across
// engines.
//
// Every candidate node gets an id whether or not it ever performs a checked
// load (trusted frame accesses become raw loads and simply never consult
// the table), which keeps the assignment independent of engine decisions.
func assignLoadSites(prog *Program) {
	w := &siteWalker{}
	for _, d := range prog.File.Decls {
		switch d := d.(type) {
		case *ast.VarDecl:
			w.expr(d.Init)
		case *ast.FuncDecl:
			if d.Body != nil {
				w.stmt(d.Body)
			}
		}
	}
	prog.LoadSites = int(w.next)
}

type siteWalker struct {
	next int32
}

func (w *siteWalker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.ExprStmt:
		w.expr(s.X)
	case *ast.Block:
		for _, st := range s.Stmts {
			w.stmt(st)
		}
	case *ast.If:
		w.expr(s.Cond)
		w.stmt(s.Then)
		w.stmt(s.Else)
	case *ast.While:
		w.expr(s.Cond)
		w.stmt(s.Body)
	case *ast.DoWhile:
		w.stmt(s.Body)
		w.expr(s.Cond)
	case *ast.For:
		w.stmt(s.Init)
		w.expr(s.Cond)
		w.expr(s.Post)
		w.stmt(s.Body)
	case *ast.Switch:
		w.expr(s.Cond)
		w.stmt(s.Body)
	case *ast.Return:
		w.expr(s.X)
	case *ast.Labeled:
		w.stmt(s.Stmt)
	case *ast.DeclStmt:
		for _, d := range s.Decls {
			w.expr(d.Init)
		}
	case *ast.CaseLabel:
		w.expr(s.Val)
	}
}

func (w *siteWalker) expr(e ast.Expr) {
	switch e := e.(type) {
	case nil:
	case *ast.Unary:
		w.expr(e.X)
		if e.Op == token.Star {
			e.LoadSite = w.next
			w.next++
		}
	case *ast.Index:
		w.expr(e.X)
		w.expr(e.Idx)
		e.LoadSite = w.next
		w.next++
	case *ast.Member:
		w.expr(e.X)
		e.LoadSite = w.next
		w.next++
	case *ast.Postfix:
		w.expr(e.X)
	case *ast.Binary:
		w.expr(e.X)
		w.expr(e.Y)
	case *ast.Assign:
		w.expr(e.LHS)
		w.expr(e.RHS)
	case *ast.Cond:
		w.expr(e.C)
		w.expr(e.Then)
		w.expr(e.Else)
	case *ast.Call:
		for _, a := range e.Args {
			w.expr(a)
		}
	case *ast.SizeofExpr:
		w.expr(e.X)
	case *ast.Cast:
		w.expr(e.X)
	case *ast.Comma:
		w.expr(e.X)
		w.expr(e.Y)
	case *ast.InitList:
		for _, el := range e.Elems {
			w.expr(el)
		}
	}
}

// LoadSiteOf returns the canonical load-site id of e when e is a node kind
// that can be a checked-load site, and -1 otherwise. Engines use it to
// prime the context-aware value strategy; -1 routes manufacture to the
// fallback strategy.
func LoadSiteOf(e ast.Node) int32 {
	switch e := e.(type) {
	case *ast.Index:
		return e.LoadSite
	case *ast.Member:
		return e.LoadSite
	case *ast.Unary:
		if e.Op == token.Star {
			return e.LoadSite
		}
	}
	return -1
}
