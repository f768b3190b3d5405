package xq

import (
	"strings"
	"testing"

	"distxq/internal/xdm"
)

// shapeKey is AppendShapeKey into a key of its own.
func shapeKey(src string) (string, []xdm.Atomic) {
	key, args := AppendShapeKey(nil, src)
	return string(key), args
}

// TestShapeKeyHolesLiterals: texts that differ only in the values of
// non-structural literals share a key, and their argument vectors carry the
// values in text order.
func TestShapeKeyHolesLiterals(t *testing.T) {
	a, argsA := shapeKey(`doc("x.xml")//p[age < 40 and name = "ann"]/(1.5, 2e1)`)
	b, argsB := shapeKey(`doc("x.xml")//p[age < 41 and name = 'bob']/(2.5, 3e1)`)
	if a != b {
		t.Fatalf("keys differ:\n%q\n%q", a, b)
	}
	want := []xdm.Atomic{xdm.NewInteger(41), xdm.NewString("bob"), xdm.NewDouble(2.5), xdm.NewDouble(30)}
	if len(argsB) != len(want) || len(argsA) != len(want) {
		t.Fatalf("args %v, want %v", argsB, want)
	}
	for i, w := range want {
		if argsB[i] != w {
			t.Errorf("arg %d = %v, want %v", i, argsB[i], w)
		}
	}
}

// TestShapeKeyStructuralClasses: for every structural class, two texts that
// differ only there get different keys.
func TestShapeKeyStructuralClasses(t *testing.T) {
	for _, c := range []struct{ class, a, b string }{
		{"doc argument", `doc("a.xml")/x`, `doc("b.xml")/x`},
		{"fn:doc argument", `fn:doc("a.xml")/x`, `fn:doc("b.xml")/x`},
		{"collection argument", `collection("a")/x`, `collection("b")/x`},
		{"literal nested in doc's argument", `doc(concat("a", ".xml"))`, `doc(concat("b", ".xml"))`},
		{"execute at target", `execute at {"p1"} { f() }`, `execute at {"p2"} { f() }`},
		{"nested execute at target", `execute at {("p1", "q")[1]} { f() }`, `execute at {("p2", "q")[1]} { f() }`},
		{"positional predicate", `$x[1]`, `$x[2]`},
		{"parenthesized positional predicate", `$x[((1))]`, `$x[((2))]`},
		{"decimal positional predicate", `$x[1.0]`, `$x[2.0]`},
		{"string after namespace", `declare namespace p = "a"; 1`, `declare namespace p = "b"; 1`},
		{"string after module", `module namespace m = "a"; 1`, `module namespace m = "b"; 1`},
		{"string after at", `import module "m" at "a"; 1`, `import module "m" at "b"; 1`},
	} {
		ka, _ := shapeKey(c.a)
		kb, _ := shapeKey(c.b)
		if ka == kb {
			t.Errorf("%s: %q and %q share a key", c.class, c.a, c.b)
		}
	}
	// What is not structural holes: a number beside others in a predicate,
	// and a string alone in one.
	for _, c := range [][2]string{
		{`$x[1 + $y]`, `$x[2 + $y]`},
		{`$x["a"]`, `$x["b"]`},
		{`doc("a.xml")/x[. = "a"]`, `doc("a.xml")/x[. = "b"]`},
		{`for $p in ("p1") return execute at {$p} { f(1) }`, `for $p in ("p2") return execute at {$p} { f(2) }`},
	} {
		ka, _ := shapeKey(c[0])
		kb, _ := shapeKey(c[1])
		if ka != kb {
			t.Errorf("%q and %q differ only in holes but get different keys", c[0], c[1])
		}
	}
}

// TestShapeKeyTypedHoles: a hole keeps its literal's type — "5" and 5, 5
// and 5.0, 5.0 and 5e0 are different shapes.
func TestShapeKeyTypedHoles(t *testing.T) {
	texts := []string{`$x = "5"`, `$x = 5`, `$x = 5.0`, `$x = 5e0`}
	seen := map[string]string{}
	for _, src := range texts {
		k, args := shapeKey(src)
		if len(args) != 1 {
			t.Fatalf("%q: %d args, want 1", src, len(args))
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("%q and %q share a key", prev, src)
		}
		seen[k] = src
	}
}

// TestShapeKeyConstructorKeepsLiterals: where a `<` could open a direct
// constructor, the text is its own key and nothing is holed; a `<` that
// compares keeps holing.
func TestShapeKeyConstructorKeepsLiterals(t *testing.T) {
	a, args := shapeKey(`<a x="1">{1}</a>`)
	b, _ := shapeKey(`<a x="1">{2}</a>`)
	if a == b || args != nil {
		t.Errorf("constructor texts: keys equal %v, args %v; want distinct keys and no holes", a == b, args)
	}
	if k, _ := shapeKey(`(1, <a>it's</a>)`); !strings.Contains(k, "it's") {
		t.Errorf("constructor content does not lex but keys as text: %q", k)
	}
	c, cargs := shapeKey(`$x < 1`)
	d, _ := shapeKey(`$x < 2`)
	if c != d || len(cargs) != 1 {
		t.Errorf("a comparing < stops holing")
	}
	// A literal before the constructor is not marked either.
	if q, exact, err := ParseTemplate(`1, <a/>`, ""); err != nil || !exact || q.Body.(*SeqExpr).Items[0].(*Literal).Hole != 0 {
		t.Errorf("a constructor text's template marks a hole (exact %v, err %v)", exact, err)
	}
	// A text that does not lex keys on itself: parsing reports its error.
	if k, args := shapeKey(`"open`); k != string(keyVerbatim)+`"open` || args != nil {
		t.Errorf("unlexable text keyed %q with %v", k, args)
	}
}

// TestParseTemplateMarksHoles: ParseTemplate marks exactly the holed
// literals, in argument order, and a template printed from the parse
// renders any argument vector as the substituted text's print.
func TestParseTemplateMarksHoles(t *testing.T) {
	src := `declare function f($n) { doc("d.xml")//p[@id = $n][1]/q[. > 4] };
f("a"), "b", 7`
	q, exact, err := ParseTemplate(src, "")
	if err != nil || !exact {
		t.Fatalf("ParseTemplate: exact %v, err %v", exact, err)
	}
	var holes []int
	for _, e := range []Expr{q.Funcs[0].Body, q.Body} {
		Walk(e, func(e Expr) bool {
			if l, ok := e.(*Literal); ok && l.Hole > 0 {
				holes = append(holes, l.Hole)
			}
			return true
		})
	}
	if len(holes) != 4 || holes[0] != 1 || holes[3] != 4 {
		t.Fatalf("holes %v, want 1..4 in order (doc's argument and [1] stay literal)", holes)
	}
	tmpl := FuncDeclTemplate(q.Funcs[0])
	if tmpl.Text != PrintQuery(&Query{Funcs: q.Funcs[:1], Body: &SeqExpr{}})[:len(tmpl.Text)] {
		t.Errorf("template text %q is not the declaration's print", tmpl.Text)
	}
	other := `declare function f($n) { doc("d.xml")//p[@id = $n][1]/q[. > 5] };
f("a"), "b", 7`
	_, args := shapeKey(other)
	want, err := ParseQuery(other)
	if err != nil {
		t.Fatal(err)
	}
	if got := tmpl.Render(args); got != FuncDeclTemplate(want.Funcs[0]).Text {
		t.Errorf("render %q, want %q", got, FuncDeclTemplate(want.Funcs[0]).Text)
	}
	if tmpl.Render(nil) != tmpl.Text {
		t.Error("a nil vector must render the parsed values")
	}
}
