package core

import (
	"testing"

	"distxq/internal/xq"
)

// TestReturnedOnlyCalls: Decompose marks a remote call ReturnedOnly exactly
// when it sits in a tail position of the query body — the body itself, a
// for's or let's return, an if branch, a comma operand — and no other; the
// marking walk allocates nothing.
func TestReturnedOnlyCalls(t *testing.T) {
	const prolog = `declare function f() as item()* { doc("d.xml")/child::r };
declare function g($x as item()*) as item()* { $x };
`
	const call = `execute at {"a"} { f() }`
	const pcall = `(` + call + `)`
	for _, tc := range []struct {
		name, body string
		marked     bool
	}{
		{"whole body", call, true},
		{"for return", `for $p in ("a", "b") return execute at {$p} { f() }`, true},
		{"let return", `let $p := "a" return execute at {$p} { f() }`, true},
		{"then branch", `if (count(doc("d.xml")) = 1) then ` + call + ` else ()`, true},
		{"else branch", `if (count(doc("d.xml")) = 1) then () else ` + call, true},
		{"comma operand", `(1, ` + call + `, "x")`, true},
		{"nested tails", `for $p in ("a") return let $q := $p return if (1 = 1) then (` + call + `, 2) else ()`, true},
		{"where clause", `for $p in ("a", "b") where $p = "a" return execute at {$p} { f() }`, true},

		{"path step", pcall + `/child::s`, false},
		{"predicate", `doc("d.xml")/child::r[` + call + `]`, false},
		{"filtered", pcall + `[1]`, false},
		{"comparison", pcall + ` = "x"`, false},
		{"node identity", pcall + ` is ` + pcall, false},
		{"node order", pcall + ` << ` + pcall, false},
		{"union", pcall + ` union ` + pcall, false},
		{"count", `count(` + call + `)`, false},
		{"data", `data(` + call + `)`, false},
		{"function argument", `g(` + call + `)`, false},
		{"order by key", `for $x in (1, 2) order by ` + call + ` return $x`, false},
		// The dialect has no treat as; a typeswitch operand is its type test.
		{"typeswitch operand", `typeswitch (` + call + `) case element() return 1 default return 2`, false},
		{"let binding", `let $r := ` + call + ` return $r`, false},
		{"declared function body", `declare function h() as item()* { ` + call + ` }; h()`, false},
	} {
		q, err := xq.ParseQuery(prolog + tc.body)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if _, err := Decompose(q, ByFragment, DefaultOptions()); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		calls := 0
		check := func(e xq.Expr) bool {
			if x, ok := e.(*xq.XRPCExpr); ok {
				calls++
				if x.ReturnedOnly != tc.marked {
					t.Errorf("%s: call %s is marked %v, want %v", tc.name, x.FuncName, x.ReturnedOnly, tc.marked)
				}
			}
			return true
		}
		xq.Walk(q.Body, check)
		for _, fd := range q.Funcs {
			xq.Walk(fd.Body, check)
		}
		if calls == 0 {
			t.Errorf("%s: no remote call in the plan", tc.name)
		}
		if n := testing.AllocsPerRun(10, func() { markReturned(q.Body) }); n != 0 {
			t.Errorf("%s: the marking walk allocates %.0f times", tc.name, n)
		}
	}
	// Data shipping runs no remote call, so it marks none.
	q, err := xq.ParseQuery(prolog + call)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompose(q, DataShipping, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if x, ok := q.Body.(*xq.XRPCExpr); !ok || x.ReturnedOnly {
		t.Errorf("data shipping: body %T, marked %v", q.Body, ok && x.ReturnedOnly)
	}
}
