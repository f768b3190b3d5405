package xq

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// slotNodes holds one value of every expression node type. The test below
// checks the list against the exprNode methods declared in ast.go, so a new
// node type fails here until it is listed — and then until Slots covers it.
var slotNodes = []Expr{
	&Literal{}, &VarRef{}, &ContextItem{}, &ForExpr{}, &LetExpr{}, &IfExpr{},
	&QuantifiedExpr{}, &TypeswitchExpr{}, &CompareExpr{}, &ArithExpr{},
	&UnaryExpr{}, &LogicExpr{}, &SeqExpr{}, &NodeSetExpr{}, &PathExpr{},
	&RootExpr{}, &ElemConstructor{}, &AttrConstructor{}, &TextConstructor{},
	&DocConstructor{}, &FunCall{}, &ExecuteAt{}, &XRPCExpr{},
}

var exprType = reflect.TypeOf((*Expr)(nil)).Elem()

// fillSentinels sets every expression field reachable from the struct v —
// Expr, []Expr, OrderSpec.Key, TSCase.Return, Step.Preds, Call.Args — to
// distinct sentinel references, in field order, appending them to *out in
// that order. Slices get two elements each.
func fillSentinels(v reflect.Value, out *[]Expr) {
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if !f.CanSet() {
			continue
		}
		switch {
		case f.Type() == exprType:
			s := &VarRef{Name: fmt.Sprintf("s%d", len(*out))}
			*out = append(*out, s)
			f.Set(reflect.ValueOf(s))
		case f.Kind() == reflect.String:
			f.SetString(fmt.Sprintf("v%d", i))
		case f.Kind() == reflect.Slice:
			f.Set(reflect.MakeSlice(f.Type(), 2, 2))
			for j := 0; j < 2; j++ {
				fillElem(f.Index(j), out)
			}
		case f.Kind() == reflect.Ptr && f.Type().Elem().Kind() == reflect.Struct:
			fillElem(f, out)
		}
	}
}

func fillElem(e reflect.Value, out *[]Expr) {
	switch {
	case e.Type() == exprType:
		s := &VarRef{Name: fmt.Sprintf("s%d", len(*out))}
		*out = append(*out, s)
		e.Set(reflect.ValueOf(s))
	case e.Kind() == reflect.Ptr:
		e.Set(reflect.New(e.Type().Elem()))
		fillSentinels(e.Elem(), out)
	case e.Kind() == reflect.Struct:
		fillSentinels(e, out)
	}
}

func mustExpr(t *testing.T, src string) Expr {
	t.Helper()
	e, err := parseBody(src)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	return e
}

func slotValues(e Expr) []Expr {
	var got []Expr
	Slots(e, func(s Slot) { got = append(got, *s.Expr) })
	return got
}

func TestSlotsCoverEveryField(t *testing.T) {
	// Every node type declared in ast.go is listed in slotNodes.
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "ast.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var declared, listed []string
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "exprNode" && fd.Recv != nil {
			declared = append(declared, fd.Recv.List[0].Type.(*ast.StarExpr).X.(*ast.Ident).Name)
		}
	}
	for _, n := range slotNodes {
		listed = append(listed, reflect.TypeOf(n).Elem().Name())
	}
	sort.Strings(declared)
	sort.Strings(listed)
	if strings.Join(declared, " ") != strings.Join(listed, " ") {
		t.Fatalf("node types in ast.go:\n %v\nlisted here:\n %v", declared, listed)
	}

	for _, proto := range slotNodes {
		name := reflect.TypeOf(proto).Elem().Name()
		n := reflect.New(reflect.TypeOf(proto).Elem())
		var want []Expr
		fillSentinels(n.Elem(), &want)
		e := n.Interface().(Expr)
		got := slotValues(e)
		if len(got) != len(want) {
			t.Errorf("%s: Slots yields %d children, its fields hold %d", name, len(got), len(want))
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: slot %d is %s, want %s", name, i, printed(got[i]), printed(want[i]))
			}
		}

		// Storing into every slot of a copy leaves e untouched.
		c := Copy(e)
		Slots(c, func(s Slot) { *s.Expr = &ContextItem{} })
		for i, k := range slotValues(e) {
			if k != want[i] {
				t.Errorf("%s: storing into a slot of Copy wrote the original's slot %d", name, i)
			}
		}
		if reflect.TypeOf(c) != reflect.TypeOf(e) {
			t.Errorf("%s: Copy returns %T", name, c)
		}
		if printed(CloneExpr(e)) != printed(e) {
			t.Errorf("%s: clone prints %s, want %s", name, printed(CloneExpr(e)), printed(e))
		}
	}
}

func TestSlotsBinders(t *testing.T) {
	cases := []struct {
		src  string
		vars string // per slot: the bound variable, "-" for none
	}{
		{`for $x in 1 order by $x, 2 return $x`, "- x x x"},
		{`let $y := 1 return $y`, "- y"},
		{`some $q in 1 satisfies $q`, "- q"},
		{`typeswitch (1) case $a as node() return $a case xs:string return 2 default $d return $d`, "- a - d"},
		{`typeswitch (1) case $a as node() return $a default return 3`, "- a -"},
		{`if (1) then 2 else 3`, "- - -"},
	}
	for _, c := range cases {
		e := mustExpr(t, c.src)
		var vars []string
		Slots(e, func(s Slot) {
			if s.Var == nil {
				vars = append(vars, "-")
				return
			}
			vars = append(vars, *s.Var)
			if s.Bind == nil || !s.Binds(*s.Var) {
				t.Errorf("%s: slot binding $%s names no bound expression", c.src, *s.Var)
			}
		})
		if got := strings.Join(vars, " "); got != c.vars {
			t.Errorf("%s: slot variables %q, want %q", c.src, got, c.vars)
		}
	}
	x := &XRPCExpr{Target: &Literal{}, Body: &VarRef{Name: "a"},
		Params: []*XRPCParam{{Name: "a", Ref: "outer"}}}
	var remote []bool
	Slots(x, func(s Slot) { remote = append(remote, s.Remote == x && s.Binds("a") && !s.Binds("outer")) })
	if fmt.Sprint(remote) != "[false true]" {
		t.Errorf("XRPCExpr slots: shipped-body flags %v, want [false true]", remote)
	}
}

func TestSlotsAllocateNothing(t *testing.T) {
	e := mustExpr(t, `for $x in doc("d.xml")//a[b = 2] order by $x return
		typeswitch ($x) case $n as node() return ($n, <w at="1">{$x}</w>) default return f($x, 1)`)
	n := 0
	allocs := testing.AllocsPerRun(100, func() {
		Walk(e, func(Expr) bool { n++; return true })
	})
	if allocs != 0 {
		t.Errorf("Walk over Slots allocates %.0f times per tree", allocs)
	}
}

func TestNormalizeCaptureFreeParams(t *testing.T) {
	// The generated parameter skips $p_1, which the inlined body binds: named
	// $p_1 itself, $n's value would be captured and f(1) would return 10.
	q := mustParseQuery(`
	declare function f($n as xs:integer) as item()* { let $p_1 := 5 return $n + $p_1 };
	execute at {"p"} { f(1) }`)
	if err := Normalize(q); err != nil {
		t.Fatal(err)
	}
	want := `let $arg_3 := 1 return (execute at {"p"} function ($p_2 := $arg_3) {let $p_1 := 5 return ($p_2 + $p_1)})`
	if got := printed(q.Body); got != want {
		t.Errorf("normalized:\n got %s\nwant %s", got, want)
	}
}

func TestNormalizeRejectsRecursiveRemoteThroughExecuteAt(t *testing.T) {
	// f reaches g only through an execute-at's call, which is no slot: the
	// recursion check must still see it.
	q := mustParseQuery(`
	declare function f($n as xs:integer) as item()* { execute at {"p"} { g($n) } };
	declare function g($n as xs:integer) as item()* { f($n) };
	f(1)`)
	err := Normalize(q)
	if err == nil || !strings.Contains(err.Error(), "(mutually) recursive") {
		t.Fatalf("want a (mutually) recursive error, got %v", err)
	}
}
