package sema

import (
	"strings"
	"testing"

	"focc/internal/cc/ast"
	"focc/internal/cc/parser"
	"focc/internal/cc/types"
)

// testBuiltins mimics a minimal libc prototype set.
func testBuiltins() map[string]*types.Type {
	charP := types.PointerTo(types.CharType)
	return map[string]*types.Type{
		"strlen": {Kind: types.Func, Fn: &types.FuncInfo{
			Ret:    types.ULongType,
			Params: []types.Param{{Name: "s", Type: charP}},
		}},
		"printf": {Kind: types.Func, Fn: &types.FuncInfo{
			Ret:      types.IntType,
			Params:   []types.Param{{Name: "fmt", Type: charP}},
			Variadic: true,
		}},
	}
}

func analyze(t *testing.T, src string) *Program {
	t.Helper()
	f, errs := parser.ParseString("t.c", src)
	if len(errs) > 0 {
		t.Fatalf("parse: %v", errs[0])
	}
	prog, errs := Analyze(f, testBuiltins())
	if len(errs) > 0 {
		t.Fatalf("analyze: %v", errs[0])
	}
	return prog
}

func analyzeErrs(t *testing.T, src string) []error {
	t.Helper()
	f, errs := parser.ParseString("t.c", src)
	if len(errs) > 0 {
		t.Fatalf("parse: %v", errs[0])
	}
	_, errs = Analyze(f, testBuiltins())
	return errs
}

func wantErr(t *testing.T, src, substr string) {
	t.Helper()
	errs := analyzeErrs(t, src)
	if len(errs) == 0 {
		t.Errorf("%q: expected error containing %q", src, substr)
		return
	}
	for _, e := range errs {
		if strings.Contains(e.Error(), substr) {
			return
		}
	}
	t.Errorf("%q: errors %v do not mention %q", src, errs, substr)
}

func TestResolvesGlobalsAndFunctions(t *testing.T) {
	prog := analyze(t, `
int counter;
int bump(int by) { counter = counter + by; return counter; }
int main(void) { return bump(2); }
`)
	if len(prog.Globals) != 1 || prog.Globals[0].Name != "counter" {
		t.Errorf("globals = %+v", prog.Globals)
	}
	if len(prog.Funcs) != 2 {
		t.Errorf("funcs = %d", len(prog.Funcs))
	}
	if _, ok := prog.FuncMap["bump"]; !ok {
		t.Error("bump not in FuncMap")
	}
}

func TestFrameLayout(t *testing.T) {
	prog := analyze(t, `
void f(int a, char b) {
	long x;
	char buf[10];
	int y;
}`)
	fd := prog.FuncMap["f"]
	offs := map[string]uint64{}
	for _, sym := range fd.Locals {
		offs[sym.Name] = sym.FrameOff
	}
	// a@0 (int), b@4 (char), x@8 (long, aligned), buf@16, y@28 (aligned 4).
	want := map[string]uint64{"a": 0, "b": 4, "x": 8, "buf": 16, "y": 28}
	for name, off := range want {
		if offs[name] != off {
			t.Errorf("%s offset = %d, want %d (all: %v)", name, offs[name], off, offs)
		}
	}
	if fd.FrameSize != 32 {
		t.Errorf("frame size = %d, want 32", fd.FrameSize)
	}
}

func TestLiteralInterning(t *testing.T) {
	prog := analyze(t, `
char *a = "dup";
char *b = "dup";
char *c = "other";
`)
	if len(prog.Literals) != 2 {
		t.Errorf("literals = %q, want 2 entries", prog.Literals)
	}
	if prog.Literals[0] != "dup\x00" {
		t.Errorf("literal 0 = %q (NUL must be included)", prog.Literals[0])
	}
}

func TestSizeofIsFolded(t *testing.T) {
	prog := analyze(t, `
struct s { int a; long b; };
int f(void) { return sizeof(struct s) + sizeof(int); }
`)
	fd := prog.FuncMap["f"]
	ret := fd.Body.Stmts[0].(*ast.Return)
	bin := ret.X.(*ast.Binary)
	l, lok := bin.X.(*ast.IntLit)
	r, rok := bin.Y.(*ast.IntLit)
	if !lok || !rok || l.Val != 16 || r.Val != 4 {
		t.Errorf("sizeof not folded: %T(%v) %T(%v)", bin.X, l, bin.Y, r)
	}
}

func TestEnumConstantsBecomeLiterals(t *testing.T) {
	prog := analyze(t, `
enum { A = 3, B };
int f(void) { return B; }
`)
	ret := prog.FuncMap["f"].Body.Stmts[0].(*ast.Return)
	lit, ok := ret.X.(*ast.IntLit)
	if !ok || lit.Val != 4 {
		t.Errorf("B resolved to %T %v", ret.X, lit)
	}
}

func TestSwitchCaseResolution(t *testing.T) {
	prog := analyze(t, `
enum { X = 10 };
int f(int v) {
	switch (v) {
	case 1: return 1;
	case X: return 2;
	default: return 3;
	}
}`)
	sw := prog.FuncMap["f"].Body.Stmts[0].(*ast.Switch)
	if len(sw.Cases) != 2 {
		t.Fatalf("cases = %+v", sw.Cases)
	}
	if sw.Cases[1].Val != 10 {
		t.Errorf("case X folded to %d", sw.Cases[1].Val)
	}
	if sw.DefaultIdx < 0 {
		t.Error("default not found")
	}
}

func TestPointerArithmeticTypes(t *testing.T) {
	prog := analyze(t, `
long f(char *p, char *q) { return q - p; }
char *g(char *p) { return p + 3; }
`)
	ret := prog.FuncMap["f"].Body.Stmts[0].(*ast.Return)
	if ret.X.Type().Kind != types.Long {
		t.Errorf("ptr-ptr type = %s", ret.X.Type())
	}
	ret = prog.FuncMap["g"].Body.Stmts[0].(*ast.Return)
	if ret.X.Type().String() != "char*" {
		t.Errorf("ptr+int type = %s", ret.X.Type())
	}
}

func TestArrayDecaysInCall(t *testing.T) {
	analyze(t, `
unsigned long f(void) {
	char buf[10];
	return strlen(buf);
}`)
}

func TestGlobalInitMustBeConstant(t *testing.T) {
	wantErr(t, "int g(void); int x = g();", "constant")
}

func TestGlobalInitFolding(t *testing.T) {
	prog := analyze(t, "int x = 2 * 3 + 1;")
	lit, ok := prog.Globals[0].Init.(*ast.IntLit)
	if !ok || lit.Val != 7 {
		t.Errorf("init = %T %v", prog.Globals[0].Init, lit)
	}
}

func TestInferArrayLenFromInit(t *testing.T) {
	prog := analyze(t, `char s[] = "hello"; int a[] = {1, 2, 3};`)
	if prog.Globals[0].T.Len != 6 {
		t.Errorf("s len = %d, want 6", prog.Globals[0].T.Len)
	}
	if prog.Globals[1].T.Len != 3 {
		t.Errorf("a len = %d, want 3", prog.Globals[1].T.Len)
	}
}

func TestDiagnostics(t *testing.T) {
	cases := []struct{ src, substr string }{
		{"int f(void) { return undeclared_name; }", "undeclared"},
		{"int f(void) { ghost(); return 0; }", "undeclared function"},
		{"int x; int x;", "redeclaration"},
		{"int f(void) { return 1; } int f(void) { return 2; }", "redefined"},
		{"void f(void) { break; }", "break outside"},
		{"void f(void) { continue; }", "continue outside"},
		{"void f(void) { goto nowhere; }", "undefined label"},
		{"void f(void) { case 3: ; }", "case"},
		{"void f(void) { 3 = 4; }", "lvalue"},
		{"void f(void) { int a; a.x = 1; }", "non-struct"},
		{"struct s { int v; }; void f(void) { struct s q; q.nope = 1; }", "no field"},
		{"void f(int a) { a(); }", "not a function"},
		{"int g(int a); void f(void) { g(1, 2); }", "argument"},
		{"void f(void) { int *p; p * 3; }", "invalid operand"},
		{"void v; ", "void type"},
		{"void f(void) { return 3; }", "void function"},
		{"int f(void) { int x; switch (x) { default: ; default: ; } return 0; }", "duplicate default"},
		{"int f(int v) { switch (v) { case 1: ; case 1: ; } return 0; }", "duplicate case"},
		{"void f(void) { l: ; l: ; }", "duplicate label"},
		{"struct s; void f(void) { struct s x; }", "incomplete"},
	}
	for _, c := range cases {
		wantErr(t, c.src, c.substr)
	}
}

func TestPrototypeThenDefinition(t *testing.T) {
	prog := analyze(t, `
int helper(int x);
int main(void) { return helper(1); }
int helper(int x) { return x + 1; }
`)
	sym := prog.FuncMap["helper"].Sym
	if sym.FuncIdx < 0 || sym.Builtin {
		t.Errorf("helper sym = %+v", sym)
	}
}

func TestUndefinedPrototypeBecomesBuiltin(t *testing.T) {
	prog := analyze(t, `
int external_thing(int x);
int main(void) { return external_thing(1); }
`)
	// The call site forces builtin resolution.
	main := prog.FuncMap["main"]
	ret := main.Body.Stmts[0].(*ast.Return)
	call := ret.X.(*ast.Call)
	if !call.Fun.Sym.Builtin {
		t.Error("undefined prototype should resolve as a host builtin")
	}
}

func TestVariadicBuiltinCall(t *testing.T) {
	analyze(t, `int f(void) { return printf("%d %s", 1, "x"); }`)
	wantErr(t, `int f(void) { return printf(); }`, "argument")
}

func TestLocalShadowing(t *testing.T) {
	prog := analyze(t, `
int x;
int f(void) {
	int x = 1;
	{
		int x = 2;
	}
	return x;
}`)
	fd := prog.FuncMap["f"]
	// Two locals named x with distinct offsets.
	var offs []uint64
	for _, sym := range fd.Locals {
		if sym.Name == "x" {
			offs = append(offs, sym.FrameOff)
		}
	}
	if len(offs) != 2 || offs[0] == offs[1] {
		t.Errorf("shadowed locals = %v", offs)
	}
}

func TestStringInitForCharArray(t *testing.T) {
	analyze(t, `void f(void) { char buf[8] = "hi"; }`)
	wantErr(t, `void f(void) { int x = "hi"; }`, "string literal")
}

func TestCondTypeMerging(t *testing.T) {
	prog := analyze(t, `
char *f(int c, char *a, char *b) { return c ? a : b; }
long g(int c) { return c ? 1 : 2L; }
`)
	ret := prog.FuncMap["f"].Body.Stmts[0].(*ast.Return)
	if ret.X.Type().String() != "char*" {
		t.Errorf("cond type = %s", ret.X.Type())
	}
	ret = prog.FuncMap["g"].Body.Stmts[0].(*ast.Return)
	if ret.X.Type().Kind != types.Long {
		t.Errorf("cond int type = %s", ret.X.Type())
	}
}

func TestMoreDiagnostics(t *testing.T) {
	cases := []struct{ src, substr string }{
		{"int f(void) { return sizeof(void); }", ""}, // sizeof(void) folds to 0; no error required
		{"int arr[] ;", "cannot infer"},
		{"int x = 1; int f(void) { return x(); }", "not a function"},
		{"struct s { int a; }; struct s v = { 1, 2 };", "too many initializers"},
		{"int a[2] = { 1, 2, 3 };", "too many initializers"},
		{"int f(void); int x = f;", "constant"},
		{"void f(void) { int x = { 1, 2 }; }", "scalar initializer"},
		{"void f(void) { struct nope *p; p->q = 1; }", ""},
	}
	for _, c := range cases {
		if c.substr == "" {
			continue
		}
		wantErr(t, c.src, c.substr)
	}
}

func TestVoidFunctionReturnsNothing(t *testing.T) {
	analyze(t, "void f(void) { return; }")
}

func TestStructAssignTypeChecked(t *testing.T) {
	wantErr(t, `
struct a { int x; };
struct b { int y; };
void f(void) { struct a va; struct b vb; va = vb; }`, "assigning")
	wantErr(t, `
struct a { int x; };
void f(void) { struct a v; v += v; }`, "compound assignment on struct")
}

func TestCannotAssignToArray(t *testing.T) {
	wantErr(t, "void f(void) { int a[3]; int b[3]; a = b; }", "array")
}

func TestConditionMustBeScalar(t *testing.T) {
	wantErr(t, `
struct s { int x; };
void f(void) { struct s v; if (v) {} }`, "scalar")
}

func TestMismatchedCondBranches(t *testing.T) {
	wantErr(t, `
struct s { int x; };
void f(int c) { struct s v; int i; c ? v : i; }`, "mismatched")
}

func TestDerefVoidPointerRejected(t *testing.T) {
	wantErr(t, "void f(void *p) { *p; }", "void pointer")
}

func TestDerefNonPointerRejected(t *testing.T) {
	wantErr(t, "void f(int x) { *x; }", "non-pointer")
}

func TestCaseMustBeConstant(t *testing.T) {
	wantErr(t, `
int f(int v, int w) {
	switch (v) { case 0: return 0; }
	switch (v) {
	case 1: return 1;
	}
	return 0;
}
int g(int v, int w) {
	switch (v) { case 1 + 2: return 3; }
	switch (v) { case 1: break; }
	switch (v) {
	}
	return 0;
}
int h(int v, int w) {
	switch (v) { case 1: ; }
	switch (v) { case 2: ; }
	switch (w) { case 3: ; }
	return 0;
}
int bad(int v, int w) {
	switch (v) { case 1: ; }
	switch (v) { case 2: ; }
	switch (w) { case 3: ; }
	switch (v) { case 1 ? 2 : 3: ; }  /* still constant: fine */
	switch (v) { case 9: ; }
	return 0;
}
int worst(int v, int w) {
	switch (v) {
	case 1: return 1;
	}
	switch (w) {
	case 2: return 2;
	}
	return 0;
}
int reallybad(int v, int w) {
	switch (v) { case 1: ; }
	switch (v) { case w: ; }   /* not constant */
	return 0;
}`, "constant expression")
}

// FrameNoEscape holds exactly when no param or local is an aggregate and
// no & operand is rooted at a local.
func TestFrameNoEscape(t *testing.T) {
	prog := analyze(t, `
struct s { int a; int b[2]; };
int g;
int gs[4];
struct s gst;
int scalars(int a, char *p, long n) { int t = a; p[n] = 0; return t + *p; }
int globals(int *q, struct s *sp) { int *p = &g; p = &gs[1]; p = &gst.b[0]; p = &*q; p = &sp->a; return *p; }
int addr(int a) { int *p = &a; return *p; }
int addrCast(long a) { char *p = (char *)&a; return *p; }
int addrIndex(int *q) { int **pp = &q; return **pp; }
int ptrIndex(int *q) { int *p = &q[2]; return *p; } /* conservative */
int array(void) { char buf[4]; buf[0] = 1; return buf[0]; }
int member(void) { struct s v; v.a = 1; return v.a; }
int structParam(struct s v) { return v.a; }
int nested(int a) { if (a) { int x[2]; x[0] = a; return x[0]; } return 0; }
`)
	want := map[string]bool{
		"scalars": true, "globals": true,
		"addr": false, "addrCast": false, "addrIndex": false, "ptrIndex": false,
		"array": false, "member": false, "structParam": false, "nested": false,
	}
	for name, w := range want {
		if got := prog.FuncMap[name].FrameNoEscape; got != w {
			t.Errorf("%s: FrameNoEscape = %v, want %v", name, got, w)
		}
	}
}
