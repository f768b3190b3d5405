package core

import (
	"strings"
	"testing"

	"distxq/internal/testkit"
	"distxq/internal/xq"
)

// qn2 is the paper's Qn2 (Table III) with the xrpc:// documents of Q2.
const qn2 = `
(let $t := (let $s := doc("xrpc://A/students.xml")/child::people/child::person
            return for $x in $s return
                   if ($x/child::tutor = $s/child::name) then $x else ())
 return for $e in (let $c := doc("xrpc://B/course42.xml")
                   return $c/child::enroll/child::exam)
        return if ($e/attribute::id = $t/child::id) then $e else ())/child::grade`

// qc2 is the un-normalized XCore variant (Table III): lets at the top.
const qc2 = `
(let $s := doc("xrpc://A/students.xml")/child::people/child::person return
 let $c := doc("xrpc://B/course42.xml") return
 let $t := for $x in $s return
           if ($x/child::tutor = $s/child::name) then $x else ()
 return for $e in $c/child::enroll/child::exam return
        if ($e/attribute::id = $t/child::id) then $e else ())/child::grade`

func mustQuery(t *testing.T, src string) *xq.Query {
	t.Helper()
	q, err := xq.ParseQuery(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := xq.Normalize(q); err != nil {
		t.Fatalf("normalize: %v", err)
	}
	return q
}

func TestXRPCHostParsing(t *testing.T) {
	cases := map[string]string{
		"xrpc://A/students.xml":        "A",
		"xrpc://example.org/depts.xml": "example.org",
		"xrpc://h":                     "h",
		"plain.xml":                    "",
		"http://x/y.xml":               "",
		"xrpc://":                      "",
	}
	for uri, want := range cases {
		got, ok := XRPCHost(uri)
		if (want == "") == ok || got != want {
			t.Errorf("XRPCHost(%q) = %q,%v want %q", uri, got, ok, want)
		}
	}
}

func TestDGraphVarrefEdges(t *testing.T) {
	q := mustQuery(t, `let $s := doc("a.xml") return for $x in $s/child::p return ($x, $s)`)
	g := Build(q.Body)
	// Every VarRef must resolve to its binder's expression.
	resolved := 0
	for ref, target := range g.RefTarget {
		if target == nil {
			t.Errorf("unresolved ref $%s", ref.Name)
		}
		resolved++
	}
	if resolved != 3 { // $s (in for-in), $x, $s
		t.Errorf("resolved %d refs, want 3", resolved)
	}
}

func TestDependsOnTransitivity(t *testing.T) {
	q := mustQuery(t, `let $s := doc("a.xml")/child::p return let $t := $s/child::q return count($t)`)
	g := Build(q.Body)
	// Find the doc path (bind of $s).
	outer := q.Body.(*xq.LetExpr)
	docPath := outer.Bind
	dep := g.DependsOn(docPath)
	// count($t) must depend on the doc path through two varref hops.
	inner := outer.Return.(*xq.LetExpr)
	if !dep[inner.Return] {
		t.Error("count($t) should depend on the doc path transitively")
	}
	if !dep[q.Body] {
		t.Error("the root depends on everything inside")
	}
	if dep[inner.Bind.(*xq.PathExpr).Input] == false {
		t.Error("$s reference depends on the doc path")
	}
}

func TestParamUsers(t *testing.T) {
	q := mustQuery(t, `let $out := 1 return let $s := doc("a.xml")/child::p[child::q = $out] return $s`)
	g := Build(q.Body)
	inner := q.Body.(*xq.LetExpr).Return.(*xq.LetExpr)
	rs := inner.Bind
	users := g.ParamUsers(rs)
	found := false
	for n := range users {
		if ref, ok := n.(*xq.VarRef); ok && ref.Name == "out" {
			found = true
		}
	}
	if !found {
		t.Error("ParamUsers must include the $out reference")
	}
	if !users[rs] {
		t.Error("the candidate root itself transitively uses the parameter")
	}
}

func TestSinkLetsTableIII(t *testing.T) {
	// Qc2 must normalize into the Qn2 shape: $c sinks into the for-in
	// clause, $s sinks into $t's binding.
	q := mustQuery(t, qc2)
	AlphaRename(q)
	SinkLets(q)
	got := testkit.Print(q.Body)
	// $c's let must now live inside the for-in expression.
	if !strings.Contains(got, `for $e in (let $c := doc("xrpc://B/course42.xml") return`) {
		t.Errorf("let $c not sunk into for-in:\n%s", got)
	}
	// $s's let must live inside $t's binding.
	if !strings.Contains(got, `let $t := (let $s := (doc("xrpc://A/students.xml")/child::people/child::person) return`) {
		t.Errorf("let $s not sunk into $t's binding:\n%s", got)
	}
	// Result must still parse.
	if _, err := testkit.ParseExpr(got); err != nil {
		t.Fatalf("normalized query does not reparse: %v\n%s", err, got)
	}
}

func TestSinkLetsDropsUnused(t *testing.T) {
	q := mustQuery(t, `let $dead := doc("a.xml") return 42`)
	AlphaRename(q)
	SinkLets(q)
	if testkit.Print(q.Body) != "42" {
		t.Errorf("unused let should drop: %s", testkit.Print(q.Body))
	}
}

func TestSinkLetsStopsAtForReturn(t *testing.T) {
	// A let used only in a for-return must NOT sink into the loop body
	// (it would be re-evaluated per iteration).
	q := mustQuery(t, `let $v := doc("a.xml")/child::p return for $x in (1,2) return ($x, $v)`)
	AlphaRename(q)
	SinkLets(q)
	if _, ok := q.Body.(*xq.LetExpr); !ok {
		t.Errorf("let sank into a for body: %s", testkit.Print(q.Body))
	}
}

func TestSinkLetsAlphaCapture(t *testing.T) {
	// Two binders named $x: renaming must keep them apart while sinking.
	q := mustQuery(t, `let $x := 1 return for $x in (2,3) return $x`)
	AlphaRename(q)
	SinkLets(q)
	// Outer $x unused after resolution → dropped; loop unchanged.
	fe, ok := q.Body.(*xq.ForExpr)
	if !ok {
		t.Fatalf("want for at top, got %s", testkit.Print(q.Body))
	}
	if testkit.Print(fe.Return) != "$"+fe.Var {
		t.Errorf("loop body should reference the loop var: %s", testkit.Print(q.Body))
	}
}

func decompose(t *testing.T, src string, strat Strategy, opts Options) *Plan {
	t.Helper()
	q, err := xq.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Decompose(q, strat, opts)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestDecomposeQ2ByValueTableIV(t *testing.T) {
	// Qv2: under pass-by-value only the A-side doc path ships (fcn1); the
	// B-side stays local because /child::grade sits on top of a for-loop.
	plan := decompose(t, qn2, ByValue, DefaultOptions())
	if len(plan.Remotes) != 1 {
		t.Fatalf("by-value should push exactly 1 subquery, got %d:\n%s",
			len(plan.Remotes), xq.PrintQuery(plan.Query))
	}
	r := plan.Remotes[0]
	if r.Host != "A" {
		t.Errorf("pushed to %q, want A", r.Host)
	}
	body := testkit.Print(r.X.Body)
	want := `doc("xrpc://A/students.xml")/child::people/child::person`
	if body != want {
		t.Errorf("fcn1 body = %s\nwant %s", body, want)
	}
	if len(r.X.Params) != 0 {
		t.Errorf("fcn1 takes no parameters, got %v", r.X.Params)
	}
}

func TestDecomposeQ2ByFragmentTableIV(t *testing.T) {
	// Qf2: both sides ship; fcn2 receives $t as parameter (semijoin).
	plan := decompose(t, qn2, ByFragment, DefaultOptions())
	if len(plan.Remotes) != 2 {
		t.Fatalf("by-fragment should push 2 subqueries, got %d:\n%s",
			len(plan.Remotes), xq.PrintQuery(plan.Query))
	}
	hosts := map[string]*RemoteSite{}
	for i := range plan.Remotes {
		hosts[plan.Remotes[i].Host] = &plan.Remotes[i]
	}
	a, okA := hosts["A"]
	b, okB := hosts["B"]
	if !okA || !okB {
		t.Fatalf("want pushes to A and B, got %v", hosts)
	}
	// fcn1 (A): the whole student-selection including the for-loop.
	if !strings.Contains(testkit.Print(a.X.Body), "for $x") {
		t.Errorf("A-side body should include the selection loop: %s", testkit.Print(a.X.Body))
	}
	if len(a.X.Params) != 0 {
		t.Errorf("A-side takes no params, got %v", a.X.Params)
	}
	// fcn2 (B): the exam loop, parameterized by $t.
	if len(b.X.Params) != 1 {
		t.Fatalf("B-side should take one param ($t), got %v", b.X.Params)
	}
	if b.X.Params[0].Ref != "t" {
		t.Errorf("B-side param ref = %q, want t", b.X.Params[0].Ref)
	}
	if !strings.Contains(testkit.Print(b.X.Body), `doc("xrpc://B/course42.xml")`) {
		t.Errorf("B-side body lost its doc: %s", testkit.Print(b.X.Body))
	}
	// The final /child::grade stays local.
	if !strings.Contains(testkit.Print(plan.Query.Body), "/child::grade") {
		t.Errorf("grade step must remain local:\n%s", testkit.Print(plan.Query.Body))
	}
}

func TestDecomposeQ2ByProjectionRelatives(t *testing.T) {
	plan := decompose(t, qn2, ByProjection, DefaultOptions())
	if len(plan.Remotes) != 2 {
		t.Fatalf("by-projection should push 2 subqueries, got %d", len(plan.Remotes))
	}
	for _, r := range plan.Remotes {
		rel, ok := plan.Relatives[r.X]
		if !ok {
			t.Fatalf("no relative paths for %s", r.Host)
		}
		if r.Host == "B" {
			// Parameter projection: $t/attribute::id is what fcn2 touches.
			joined := ""
			for _, ps := range rel.ParamUsed {
				joined += ps.String()
			}
			for _, ps := range rel.ParamReturned {
				joined += ps.String()
			}
			if !strings.Contains(joined, "child::id") {
				t.Errorf("B param projection should mention child::id: %s", joined)
			}
			// Result projection: /child::grade.
			if !strings.Contains(rel.ResultUsed.String()+rel.ResultReturn.String(), "child::grade") {
				t.Errorf("B result projection should mention child::grade: used=%s ret=%s",
					rel.ResultUsed, rel.ResultReturn)
			}
		}
	}
}

func TestDecomposeCodeMotionTableIV(t *testing.T) {
	// With code motion, fcn2's $para1/child::id moves to the caller: the
	// remote body compares against a new parameter, and the caller binds
	// let $cmN := $t/child::id.
	plan := decompose(t, qn2, ByFragment, Options{CodeMotion: true})
	var b *RemoteSite
	for i := range plan.Remotes {
		if plan.Remotes[i].Host == "B" {
			b = &plan.Remotes[i]
		}
	}
	if b == nil {
		t.Fatal("no B-side push")
	}
	body := testkit.Print(b.X.Body)
	if strings.Contains(body, "/child::id") {
		t.Errorf("code motion should remove the id path from the remote body: %s", body)
	}
	if len(b.X.Params) != 1 {
		t.Fatalf("after motion the original node param is dropped, one string param remains: %v", b.X.Params)
	}
	if !strings.HasPrefix(b.X.Params[0].Name, "para") {
		t.Errorf("moved param name = %s", b.X.Params[0].Name)
	}
	// Caller side must bind the moved path over $t.
	printed := xq.PrintQuery(plan.Query)
	if !strings.Contains(printed, "$t/child::id") {
		t.Errorf("caller must evaluate $t/child::id:\n%s", printed)
	}
}

func TestCodeMotionNestsLetsAboveRemote(t *testing.T) {
	// Two paths of one parameter move: each gets its own caller-side let,
	// the second nested inside the first, directly above the remote call.
	plan := decompose(t, `for $x in doc("xrpc://B/b.xml")//k
		return count(for $y in doc("xrpc://A/a.xml")//item
		             return if ($y/@id = $x/@a and $y/@k = $x/child::b) then $y else ())`,
		ByFragment, Options{CodeMotion: true})
	var a *xq.XRPCExpr
	for _, r := range plan.Remotes {
		if r.Host == "A" {
			a = r.X
		}
	}
	if a == nil {
		t.Fatal("no A-side push")
	}
	var names []string
	for _, p := range a.Params {
		names = append(names, p.Name+":="+p.Ref)
	}
	if got := strings.Join(names, " "); got != "para1:=cm1 para2:=cm2" {
		t.Errorf("params %s, want para1:=cm1 para2:=cm2 (the node parameter dropped)", got)
	}
	outer, ok := plan.Query.Body.(*xq.ForExpr).Return.(*xq.LetExpr)
	if !ok || outer.Var != "cm1" {
		t.Fatalf("for return is not let $cm1:\n%s", xq.PrintQuery(plan.Query))
	}
	inner, ok := outer.Return.(*xq.LetExpr)
	if !ok || inner.Var != "cm2" || inner.Return != xq.Expr(a) {
		t.Fatalf("let $cm1 does not wrap let $cm2 directly above the remote call:\n%s", xq.PrintQuery(plan.Query))
	}
	for _, l := range []*xq.LetExpr{outer, inner} {
		if got := testkit.Print(l.Bind); !strings.HasPrefix(got, "data($x/") {
			t.Errorf("$%s binds %s, want a path over $x", l.Var, got)
		}
	}
}

func TestInsertXRPCCaptureFreeParams(t *testing.T) {
	// The shipped body binds $dot1, so the free $x ships as $dot2: named
	// $dot1, it would be captured by the inner loop.
	plan := decompose(t, `for $x in doc("xrpc://B/b.xml")/child::r/child::k
		return count(for $dot1 in doc("xrpc://A/a.xml")/child::r/child::item
		             return if ($dot1/attribute::id = $x) then $dot1 else ())`,
		ByValue, DefaultOptions())
	for _, r := range plan.Remotes {
		if r.Host != "A" {
			continue
		}
		if len(r.X.Params) != 1 || r.X.Params[0].Name != "dot2" || r.X.Params[0].Ref != "x" {
			t.Fatalf("params %+v, want $dot2 := $x", r.X.Params[0])
		}
		if body := testkit.Print(r.X.Body); !strings.Contains(body, "= $dot2") {
			t.Errorf("shipped body compares against the wrong variable: %s", body)
		}
		return
	}
	t.Fatal("no A-side push")
}

func TestDecomposeDataShippingNoRewrite(t *testing.T) {
	plan := decompose(t, qn2, DataShipping, DefaultOptions())
	if len(plan.Remotes) != 0 {
		t.Errorf("data shipping must not decompose")
	}
}

func TestConditionIBlocksReverseAxisConsumer(t *testing.T) {
	// A reverse step *inside* the candidate is fine: everything executes at
	// the remote peer, no copies are navigated.
	src := `doc("xrpc://A/d.xml")/child::a/child::b/parent::node()`
	plan := decompose(t, src, ByValue, DefaultOptions())
	if len(plan.Remotes) != 1 {
		t.Fatalf("internal reverse step should not block: %d", len(plan.Remotes))
	}
	// With a second host in play the query cannot ship whole; the A-side
	// result is then navigated with parent:: locally, which by-value and
	// by-fragment must refuse (Problem 1) while by-projection ships the
	// ancestors and allows it.
	// count($b) pins the let above the sequence so the parent:: step really
	// consumes a remote result across the boundary.
	src2 := `let $b := doc("xrpc://A/d.xml")/child::a/child::b
	         return (doc("xrpc://B/e.xml")/child::x, count($b), $b/parent::node())`
	for _, tc := range []struct {
		strat Strategy
		want  int // number of pushes that include host A
	}{
		{ByValue, 0}, {ByFragment, 0}, {ByProjection, 1},
	} {
		plan := decompose(t, src2, tc.strat, DefaultOptions())
		gotA := 0
		for _, r := range plan.Remotes {
			if r.Host == "A" {
				gotA++
			}
		}
		if gotA != tc.want {
			t.Errorf("%s: pushed %d A-side subqueries, want %d\n%s",
				tc.strat, gotA, tc.want, xq.PrintQuery(plan.Query))
		}
	}
}

func TestConditionIIBlocksNodeComparison(t *testing.T) {
	// An identity comparison over nodes from two different calls to the
	// same document must never be split across messages — hasMatchingDoc
	// keeps condition ii active even under fragment/projection.
	src := `let $b := doc("xrpc://A/d.xml")/child::a/child::b
	        let $c := doc("xrpc://A/d.xml")/child::a/child::c
	        return (doc("xrpc://B/e.xml")/child::x, count($b), count($c), $b is $c)`
	for _, strat := range []Strategy{ByValue, ByFragment, ByProjection} {
		plan := decompose(t, src, strat, DefaultOptions())
		for _, r := range plan.Remotes {
			if r.Host == "A" {
				t.Errorf("%s: A-side operand of a cross-call identity comparison shipped:\n%s",
					strat, testkit.Print(r.X.Body))
			}
		}
	}
	// With a single host, pushing the comparison whole (both calls execute
	// at A) is legal and preferable.
	whole := `let $b := doc("xrpc://A/d.xml")/child::a/child::b
	          let $c := doc("xrpc://A/d.xml")/child::a/child::c
	          return $b is $c`
	plan := decompose(t, whole, ByFragment, DefaultOptions())
	if len(plan.Remotes) != 1 {
		t.Errorf("single-host identity comparison should push whole, got %d", len(plan.Remotes))
	}
}

func TestConditionIVBlocksRootFunction(t *testing.T) {
	src := `let $b := doc("xrpc://A/d.xml")/child::a/child::b
	        return (doc("xrpc://B/e.xml")/child::x, count($b), count(root($b)))`
	for _, tc := range []struct {
		strat Strategy
		want  int // A-side pushes
	}{
		{ByValue, 0}, {ByFragment, 0}, {ByProjection, 1},
	} {
		plan := decompose(t, src, tc.strat, DefaultOptions())
		gotA := 0
		for _, r := range plan.Remotes {
			if r.Host == "A" {
				gotA++
			}
		}
		if gotA != tc.want {
			t.Errorf("%s: pushed %d A-side, want %d", tc.strat, gotA, tc.want)
		}
	}
}

func TestHasMatchingDoc(t *testing.T) {
	v1, v2 := &xq.VarRef{Name: "v1"}, &xq.VarRef{Name: "v2"}
	mk := func(ids ...DocID) map[DocID]bool {
		out := map[DocID]bool{}
		for _, d := range ids {
			out[d] = true
		}
		return out
	}
	if HasMatchingDoc(mk(DocID{"a.xml", v1})) {
		t.Error("single doc never matches")
	}
	if !HasMatchingDoc(mk(DocID{"a.xml", v1}, DocID{"a.xml", v2})) {
		t.Error("same URI at two vertices matches")
	}
	if HasMatchingDoc(mk(DocID{"a.xml", v1}, DocID{"b.xml", v2})) {
		t.Error("different URIs do not match")
	}
	if !HasMatchingDoc(mk(DocID{"*", v1}, DocID{"b.xml", v2})) {
		t.Error("wildcard matches anything")
	}
}

func TestDecomposedQueryStillPrintsAndParses(t *testing.T) {
	for _, strat := range []Strategy{ByValue, ByFragment, ByProjection} {
		plan := decompose(t, qn2, strat, DefaultOptions())
		printed := xq.PrintQuery(plan.Query)
		if printed == "" {
			t.Errorf("%s: empty print", strat)
		}
		// Shipped bodies must be reparseable (they travel as source text).
		for _, r := range plan.Remotes {
			if _, err := testkit.ParseExpr(testkit.Print(r.X.Body)); err != nil {
				t.Errorf("%s: shipped body does not reparse: %v\n%s",
					strat, err, testkit.Print(r.X.Body))
			}
		}
	}
}

func TestSingleXRPCDocNoStepNotInteresting(t *testing.T) {
	// Example 4.2: the $c subtree lacks an XPath step → no i-point.
	plan := decompose(t, `doc("xrpc://B/course42.xml")`, ByFragment, DefaultOptions())
	if len(plan.Remotes) != 0 {
		t.Errorf("doc-only fetch must not decompose (data shipping is as good)")
	}
}

func TestMultiHostSubtreeNotPushable(t *testing.T) {
	src := `(doc("xrpc://A/a.xml")/child::x, doc("xrpc://B/b.xml")/child::y)`
	plan := decompose(t, src, ByFragment, DefaultOptions())
	if len(plan.Remotes) != 2 {
		t.Fatalf("each side pushes separately: got %d", len(plan.Remotes))
	}
	hosts := map[string]bool{}
	for _, r := range plan.Remotes {
		hosts[r.Host] = true
	}
	if !hosts["A"] || !hosts["B"] {
		t.Errorf("hosts = %v", hosts)
	}
}
