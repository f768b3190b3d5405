package xq

import (
	"strings"
	"testing"
)

// roundTrip parses src, prints it, reparses, reprints and checks fixpoint.
func roundTrip(t *testing.T, src string) string {
	t.Helper()
	e, err := parseBody(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	p1 := printed(e)
	e2, err := parseBody(p1)
	if err != nil {
		t.Fatalf("reparse %q (printed from %q): %v", p1, src, err)
	}
	p2 := printed(e2)
	if p1 != p2 {
		t.Fatalf("print not a fixpoint:\n 1: %s\n 2: %s", p1, p2)
	}
	return p1
}

// literalPrints maps literal sources to their printed forms.
var literalPrints = map[string]string{
	`"hello"`:       `"hello"`,
	`'it''s'`:       `"it's"`,
	`"a""b"`:        `"a""b"`,
	`42`:            `42`,
	`3.25`:          `3.25`,
	`1e3`:           `1000`,
	`"&lt;tag&gt;"`: `"<tag>"`,
}

func TestParseLiterals(t *testing.T) {
	for src, want := range literalPrints {
		got := roundTrip(t, src)
		if got != want {
			t.Errorf("Print(%s) = %s, want %s", src, got, want)
		}
	}
}

// pathPrints maps path sources to their printed forms.
var pathPrints = map[string]string{
	"doc(\"d.xml\")/a/b":      `doc("d.xml")/child::a/child::b`,
	"$x//c":                   "$x/descendant-or-self::node()/child::c",
	"$x/@id":                  "$x/attribute::id",
	"$x/..":                   "$x/parent::node()",
	"$x/parent::a":            "$x/parent::a",
	"$x/ancestor-or-self::*":  "$x/ancestor-or-self::*",
	"$x/preceding-sibling::b": "$x/preceding-sibling::b",
	"$x/following::node()":    "$x/following::node()",
	"$x/text()":               "$x/child::text()",
	"$x/child::comment()":     "$x/child::comment()",
	"a/b":                     "./child::a/child::b",
	"@id":                     "./attribute::id",
	"$x/a[2]":                 "$x/child::a[2]",
	"$x/a[@id = 3]":           "$x/child::a[(./attribute::id) = 3]",
	"($x, $y)/a":              "($x, $y)/child::a",
	"/site/people":            "/child::site/child::people",
	"//person":                "/descendant-or-self::node()/child::person",
	".":                       ".",
	"./a":                     "./child::a",
}

func TestParsePaths(t *testing.T) {
	for src, want := range pathPrints {
		got := roundTrip(t, src)
		if got != want {
			t.Errorf("Print(%s) = %s, want %s", src, got, want)
		}
	}
}

// precedencePrints maps operator expressions to their printed forms.
var precedencePrints = map[string]string{
	"1 + 2 * 3":                "1 + (2 * 3)",
	"1 * 2 + 3":                "(1 * 2) + 3",
	"1 - 2 - 3":                "(1 - 2) - 3",
	"8 div 4 mod 3":            "(8 div 4) mod 3",
	"$a = $b and $c < $d":      "($a = $b) and ($c < $d)",
	"$a and $b or $c":          "($a and $b) or $c",
	"$a is $b":                 "$a is $b",
	"$a << $b":                 "$a << $b",
	"$a >> $b":                 "$a >> $b",
	"$a union $b intersect $c": "$a union ($b intersect $c)",
	"$a | $b":                  "$a union $b",
	"$a except $b":             "$a except $b",
	"-$x + 1":                  "-$x + 1",
	"$a eq $b":                 "$a = $b",
	"count($x) * 2":            "count($x) * 2",
}

func TestParsePrecedence(t *testing.T) {
	for src, want := range precedencePrints {
		got := roundTrip(t, src)
		if got != want {
			t.Errorf("Print(%s) = %s, want %s", src, got, want)
		}
	}
}

func TestParseFLWORDesugar(t *testing.T) {
	e, err := parseBody(`for $x in $s where $x/age < 40 return $x`)
	if err != nil {
		t.Fatal(err)
	}
	fe, ok := e.(*ForExpr)
	if !ok {
		t.Fatalf("want ForExpr, got %T", e)
	}
	ife, ok := fe.Return.(*IfExpr)
	if !ok {
		t.Fatalf("where should desugar to if, got %T", fe.Return)
	}
	if _, ok := ife.Else.(*SeqExpr); !ok {
		t.Fatal("else branch should be empty sequence")
	}
}

func TestParseFLWORMultiClause(t *testing.T) {
	e, err := parseBody(`for $x in $a, $y in $b let $z := $x return ($x, $y, $z)`)
	if err != nil {
		t.Fatal(err)
	}
	f1 := e.(*ForExpr)
	f2, ok := f1.Return.(*ForExpr)
	if !ok {
		t.Fatalf("nested for expected, got %T", f1.Return)
	}
	if _, ok := f2.Return.(*LetExpr); !ok {
		t.Fatalf("let expected under second for, got %T", f2.Return)
	}
}

func TestParseOrderBy(t *testing.T) {
	e, err := parseBody(`for $x in $s order by $x/name descending return $x`)
	if err != nil {
		t.Fatal(err)
	}
	fe := e.(*ForExpr)
	if len(fe.OrderBy) != 1 || !fe.OrderBy[0].Descending {
		t.Fatalf("order by not captured: %+v", fe.OrderBy)
	}
	roundTrip(t, `for $x in $s order by $x/name descending return $x`)
}

func TestParseIfTypeswitchQuantified(t *testing.T) {
	roundTrip(t, `if ($x) then 1 else 2`)
	roundTrip(t, `some $x in $s satisfies $x = 1`)
	roundTrip(t, `every $x in $s satisfies $x = 1`)
	e, err := parseBody(`typeswitch ($x) case $n as node() return $n case xs:string return 2 default $d return $d`)
	if err != nil {
		t.Fatal(err)
	}
	ts := e.(*TypeswitchExpr)
	if len(ts.Cases) != 2 || ts.Cases[0].Var != "n" || ts.Cases[1].Var != "" {
		t.Fatalf("typeswitch cases: %+v", ts.Cases)
	}
	if ts.DefaultVar != "d" {
		t.Fatalf("default var = %q", ts.DefaultVar)
	}
}

func TestParseConstructors(t *testing.T) {
	roundTrip(t, `element a {attribute id {"1"}, text {"hi"}}`)
	roundTrip(t, `element {concat("a","b")} {()}`)
	roundTrip(t, `document {element a {()}}`)

	e, err := parseBody(`<a x="1"><b/>hello<c>{$v}</c></a>`)
	if err != nil {
		t.Fatal(err)
	}
	el := e.(*ElemConstructor)
	if el.Name != "a" {
		t.Fatalf("name = %q", el.Name)
	}
	// content: attr x, element b, text hello... wait text is direct child of a
	if len(el.Content) != 4 {
		t.Fatalf("content len = %d: %#v", len(el.Content), el.Content)
	}
	if _, ok := el.Content[0].(*AttrConstructor); !ok {
		t.Error("first content should be attribute")
	}
	c := el.Content[3].(*ElemConstructor)
	if len(c.Content) != 1 {
		t.Fatalf("c content = %d", len(c.Content))
	}
	if _, ok := c.Content[0].(*VarRef); !ok {
		t.Error("enclosed expr should be VarRef")
	}
}

func TestParseDirectConstructorNested(t *testing.T) {
	e, err := parseBody(`<a><b><c/></b></a>/b`)
	if err != nil {
		t.Fatal(err)
	}
	pe, ok := e.(*PathExpr)
	if !ok {
		t.Fatalf("want path over constructor, got %T", e)
	}
	if _, ok := pe.Input.(*ElemConstructor); !ok {
		t.Fatalf("path input should be constructor, got %T", pe.Input)
	}
}

func TestParseDirectConstructorEntitiesAndEscapes(t *testing.T) {
	e, err := parseBody(`<a>x &amp; y {{z}}</a>`)
	if err != nil {
		t.Fatal(err)
	}
	el := e.(*ElemConstructor)
	txt := el.Content[0].(*TextConstructor).Content.(*Literal).Val.S
	if txt != "x & y {z}" {
		t.Errorf("text = %q", txt)
	}
}

func TestParseExecuteAt(t *testing.T) {
	q, err := ParseQuery(`
		declare function fcn($n as xs:string) as xs:boolean { $n = "x" };
		for $e in doc("e.xml")//emp
		return execute at { "example.org" } { fcn($e/@dept) }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Funcs) != 1 || q.Funcs[0].Name != "fcn" {
		t.Fatalf("funcs = %+v", q.Funcs)
	}
	fe := q.Body.(*ForExpr)
	ea, ok := fe.Return.(*ExecuteAt)
	if !ok {
		t.Fatalf("want ExecuteAt, got %T", fe.Return)
	}
	if ea.Call.Name != "fcn" || len(ea.Call.Args) != 1 {
		t.Fatalf("call = %+v", ea.Call)
	}
}

func TestParseFuncDecl(t *testing.T) {
	q, err := ParseQuery(`
		declare function overlap($l as node(), $r as node()) as boolean()
		{ not(empty($l//* intersect $r//*)) };
		overlap($a, $b)`)
	if err != nil {
		t.Fatal(err)
	}
	f := q.Funcs[0]
	if len(f.Params) != 2 || f.Params[0].Type.Item != "node()" {
		t.Fatalf("params = %+v", f.Params)
	}
}

func TestParseComments(t *testing.T) {
	e, err := parseBody(`1 (: a (: nested :) comment :) + 2`)
	if err != nil {
		t.Fatal(err)
	}
	if printed(e) != "1 + 2" {
		t.Errorf("got %s", printed(e))
	}
}

// parseErrorCases are malformed queries, one per kind of syntax error.
var parseErrorCases = []string{
	`for $x return $x`,           // missing in
	`if ($x) then 1`,             // missing else
	`$x + `,                      // missing operand
	`doc("a.xml"`,                // missing paren
	`<a><b></a></b>`,             // mismatched tags
	`declare function f() { 1 }`, // missing semicolon
	`"unterminated`,
	`(: unterminated`,
	`$`,
	`execute at {1} {2}`, // not a function application
}

func TestParseErrorsHavePositions(t *testing.T) {
	for _, src := range parseErrorCases {
		if _, err := ParseQuery(src); err == nil {
			t.Errorf("ParseQuery(%q): expected error", src)
		} else if !strings.Contains(err.Error(), "line") && !strings.Contains(err.Error(), "xq:") {
			t.Errorf("error should carry position info: %v", err)
		}
	}
}

func TestQ1FromPaperParses(t *testing.T) {
	// Table I of the paper (ASCII operators).
	src := `
	declare function makenodes() as node() { <a><b><c/></b></a>/b };
	declare function overlap($l as node(), $r as node()) as boolean()
	{ not(empty($l//* intersect $r//*)) };
	declare function earlier($l as node(), $r as node()) as node()
	{ if ($l << $r) then $l else $r };
	let $bc := makenodes(),
	    $abc := $bc/parent::a
	return (for $node in ($bc, $abc)
	        let $first := earlier($bc, $abc)
	        where overlap($first, $node)
	        return $node)//c`
	q, err := ParseQuery(src)
	if err != nil {
		t.Fatalf("Q1 parse: %v", err)
	}
	if len(q.Funcs) != 3 {
		t.Fatalf("want 3 functions, got %d", len(q.Funcs))
	}
	// must print and reparse
	p := PrintQuery(q)
	if _, err := ParseQuery(p); err != nil {
		t.Fatalf("Q1 print/reparse: %v\nprinted:\n%s", err, p)
	}
}

func TestQ2FromPaperParses(t *testing.T) {
	src := `
	(let $s := doc("xrpc://A/students.xml")/people/person,
	     $c := doc("xrpc://B/course42.xml"),
	     $t := $s[tutor = $s/name]
	 for $e in $c/enroll/exam
	 where $e/@id = $t/id
	 return $e)/grade`
	// The paper's Q2 mixes let and for in one FLWOR; our dialect needs
	// `return` between them, so use the XCore variant Qc2.
	if _, err := ParseQuery(src); err == nil {
		t.Log("surface Q2 parsed directly")
	}
	xcore := `
	(let $s := doc("xrpc://A/students.xml")/child::people/child::person return
	 let $c := doc("xrpc://B/course42.xml") return
	 let $t := for $x in $s return
	           if ($x/child::tutor = $s/child::name) then $x else ()
	 return for $e in $c/child::enroll/child::exam return
	        if ($e/attribute::id = $t/child::id) then $e else ())/child::grade`
	q, err := ParseQuery(xcore)
	if err != nil {
		t.Fatalf("Qc2 parse: %v", err)
	}
	roundTrip(t, PrintQuery(q))
}

func TestSeqTypeString(t *testing.T) {
	cases := map[string]SeqType{
		"node()*":   {Item: "node()", Occur: OccurStar},
		"xs:string": {Item: "xs:string"},
		"item()?":   {Item: "item()", Occur: OccurOptional},
		"node()+":   {Item: "node()", Occur: OccurPlus},
	}
	for want, st := range cases {
		if st.String() != want {
			t.Errorf("SeqType = %s, want %s", st.String(), want)
		}
	}
}

func TestWalkAndChildren(t *testing.T) {
	e, err := parseBody(`for $x in $s return if ($x/a = 1) then $x else count($s)`)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	Walk(e, func(x Expr) bool {
		switch x.(type) {
		case *ForExpr:
			kinds = append(kinds, "for")
		case *IfExpr:
			kinds = append(kinds, "if")
		case *FunCall:
			kinds = append(kinds, "call")
		case *CompareExpr:
			kinds = append(kinds, "cmp")
		}
		return true
	})
	want := "for if cmp call"
	if got := strings.Join(kinds, " "); got != want {
		t.Errorf("walk order = %q, want %q", got, want)
	}
}
