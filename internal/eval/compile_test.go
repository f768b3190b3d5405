package eval

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"distxq/internal/xdm"
	"distxq/internal/xq"
)

// expectCompiled evaluates src on the tree-walker and compiled, eager and
// lazy, over docs and requires byte-identical serialized results (or
// identical faults) — the deterministic core of the differential fuzzer,
// used for pinned regressions.
func expectCompiled(t *testing.T, docs mapResolver, src string) {
	t.Helper()
	q1, err := xq.ParseQuery(src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	q2, err := xq.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	tw := NewEngine(docs)
	cc := NewEngine(docs)
	q0, err := xq.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	normErr := xq.Normalize(q0)
	twRes, twErr := treeWalk(tw, q1)
	ccRes, ccErr := cc.Query(q2)
	compareModes(t, "eager", src, twRes, twErr, ccRes, ccErr)
	if normErr != nil {
		return
	}
	ccRes, ccErr = drainCompiled(t, cc, q2, src)
	compareModes(t, "lazy", src, twRes, twErr, ccRes, ccErr)
}

// compileBattery covers every lowering rule and every input the differential
// fuzzer ever flagged, over the fuzz fixture.
var compileBattery = []string{
	// Slot resolution, shadowing, let/for nesting.
	`let $a := 1 return let $a := $a + 1 return let $b := $a * 10 return ($a, $b)`,
	`for $x in (1, 2, 3) return for $x in ($x, $x * 10) return $x`,
	`let $s := doc("f.xml")//person return for $x in $s return $x/child::name`,
	// Constant folding, including deferred faults in dead branches.
	`1 + 2 * 3 idiv 4 mod 5 - -6`,
	`if (false()) then (1 idiv 0) else "live"`,
	`if (true()) then "live" else (1 div 0)`,
	`("a", "b") = "b"`,
	// Comparison specialization by static operand kind.
	`doc("f.xml")//book[price > 28]/title`,
	`doc("f.xml")//book["Tang" = author]/@id`,
	`doc("f.xml")//person[child::profile/attribute::income > 30000]/child::name`,
	// Predicate fusion: boolean, positional, mixed, numeric-literal.
	`doc("f.xml")//book[2]/title/text()`,
	`doc("f.xml")//book[price > 28][2]/title`,
	`doc("f.xml")//book[position() = 2]`,
	`(doc("f.xml")//book)[last()]/@id`,
	`doc("f.xml")//person[not(child::emailaddress)]/child::name`,
	`doc("f.xml")//l2[@k = "y"][child::l3]`,
	// Streaming shapes: descendant scans, filters over mixed axes.
	`doc("f.xml")/site/people/person/profile/age`,
	`doc("f.xml")//age`,
	`doc("f.xml")//l2[@k = "y"]/preceding-sibling::l2/ancestor-or-self::node()`,
	// FLWOR pipelines with memoized invariant operands, over loops of 4
	// and more items: an operand that faults in a branch no iteration
	// takes, inside an order by key, and calling a focus-reading builtin.
	`for $x in (1, 2, 3, 4, 5, 6) return if ($x > 10) then ($x = doc("f.xml")//book/price) else $x`,
	`for $x in (1, 2, 3, 4) return if ($x > 10) then ($x = doc("f.xml")//book/price) else $x`,
	`for $x in (1, 2, 3, 4, 5) return if (false()) then (unknownfn() = 1) else $x`,
	`for $i in (1, 2, 3, 4) return if ($i > 9) then $i = exactly-one(()) else $i`,
	`for $i in (1, 2, 3, 4, 5) return if ($i > 9) then $i = exactly-one(()) else $i`,
	`for $i in (1, 2, 3, 4) return if ($i > 9) then $i = doc("missing.xml")/a else $i`,
	`for $i in (1, 2, 3, 4, 5) return if ($i > 9) then $i = doc("missing.xml")/a else $i`,
	`for $x in (3, 1, 2, 5, 4) order by count(doc("f.xml")//book/price) = $x, $x return $x`,
	`for $x in (3, 1, 2, 5, 4) order by (if ($x > 9) then $x = exactly-one(()) else $x) return $x`,
	`for $i in (1, 2, 3, 4, 5) return count(doc("f.xml")//l2[@k = root()//l2[1]/@k])`,
	`for $i in (1, 2, 3, 4, 5) return count(doc("f.xml")//book[@id = id("b2")/@id])`,
	`declare function rec($n as xs:integer) as item()* { for $i in (1, 2) return
	 ($i = sum(subsequence((1, 2, 3), 1, $n)), if ($n > 0) then rec($n - 1) else ()) }; rec(3)`,
	`for $i in (1, 2, 3) return some $b in doc("f.xml")//book satisfies $b/price < max(doc("f.xml")//age) and $i = 2`,
	`for $b in doc("f.xml")//book order by number($b/price) descending return $b/title`,
	// A hoisted operand is atomized once per loop: nodes, untyped and
	// numeric atoms mixed on both sides of the promotion rules, and an
	// inner loop whose hoisted operand changes with the outer iteration.
	`declare function mix() as item()* { (doc("f.xml")//book/price, data(doc("f.xml")//age), 28, 4.9e1, doc("f.xml")//person/@id) };
	 for $x in (49, 28.0, "34", "p1", 7, 31, "zz", true()) return ($x = mix(), mix() != $x, $x < mix())`,
	`for $o in (1, 2, 3, 4, 5, 6) return for $x in (1, 2, 3, 4, 5, 6) return if ($x = subsequence((1, 2, 3, 4, 5, 6, 7), $o, 2)) then $x else ()`,
	// Quantifiers, typeswitch, logic.
	`some $a in doc("f.xml")//author satisfies $a = "Tang"`,
	`every $a in doc("f.xml")//author satisfies string-length($a) > 2`,
	`typeswitch (doc("f.xml")//book[1]) case $n as element() return name($n) default $d return count($d)`,
	`typeswitch (1 + 1) case $i as xs:integer return $i default return "no"`,
	`if (1 = 2 or 3 != 4 and 5 <= 6) then 7 else 8`,
	// Declared functions: recursion, duplicate params, typed results.
	`declare function rec($n as xs:integer) as xs:integer { if ($n <= 0) then 0 else rec($n - 1) }; rec(12)`,
	`declare function pick($y as item()*) as item()* { if ($y/descendant::age < 40) then $y/child::name else () };
	 for $x in doc("f.xml")//person return pick($x)`,
	`declare function one($a as xs:integer) as xs:integer { $a }; one("x")`,
	// Focus builtins inside predicates and paths.
	`doc("f.xml")//book[root()//l2[@k = "y"]]/title`,
	`position()`,
	`last()`,
	// Node-set operators, node comparisons, constructors (fallback).
	`count(doc("f.xml")//author union doc("f.xml")//title)`,
	`doc("f.xml")//l2[1] is doc("f.xml")//l2[@k = "y"][1]`,
	`element report { attribute n {count(doc("f.xml")//book)}, doc("f.xml")//book/title }`,
	// distinct-values: untyped content compares as strings, numerics by value.
	`distinct-values(doc("f.xml")//person/name)`,
	`distinct-values(("1", 1, 1.0))`,
	// Compiled order by: empty keys, sequence and incomparable keys (both
	// fault), several keys with ties, a memoized operand in a sorted loop,
	// and a sort inside a declared function.
	`for $p in doc("f.xml")//person order by $p/emailaddress descending return $p/name`,
	`for $x in (1, 2) order by ($x, $x) return $x`,
	`for $x in (1, "a", 2) order by $x return $x`,
	`for $x in (3, 1, 2, 1, 3, 2) order by $x mod 2 descending, $x idiv 2 return $x * 10 + $x`,
	`for $p in doc("f.xml")//person order by $p/address/city descending, $p/name return $p/name`,
	`for $k in ("a", 5, <a>7</a>) order by $k return string($k)`,
	`for $p in doc("f.xml")//person order by $p/emailaddress * 1, $p/profile/age return $p/name`,
	// Positions on reverse axes count from the context node outward.
	`doc("f.xml")//l3/ancestor::*[1]`,
	`doc("f.xml")//l2[3]/preceding-sibling::*[1]/@k`,
	`doc("f.xml")//l3/ancestor-or-self::*[position() = 2 or last()]`,
	`doc("f.xml")//book[3]/preceding::*[2]`,
	`for $p in doc("f.xml")//person order by $p/profile/age
	 return if ($p/name = doc("f.xml")//author) then $p/name else ()`,
	`declare function sorted($s as item()*) as item()* { for $x in $s order by $x descending return $x };
	 sorted(doc("f.xml")//age)`,
	// Compiled constructors: nested direct constructors built in place,
	// attribute-after-content faults, enclosed document content, adjacent
	// atomics joined by one space, identity and order across two
	// constructed trees, parent and root of a constructed element.
	`<a x="1"><b>{doc("f.xml")//book[1]/title}</b><c><d>t</d>{doc("f.xml")//l2[1]}</c></a>`,
	`<a>{"x"}{attribute y {1}}</a>`,
	`<a>{("x", attribute y {1})}</a>`,
	`<a>{document { <b/>, "t" }}</a>`,
	`<a>{1, "two", 3.5}{4}</a>`,
	`let $x := <a/> return let $y := <b/> return ($x is $y, $x << $y, $y << $x, $x is $x)`,
	`let $e := <a><b/></a> return ($e/b/.., root($e), count(root($e)/node()), $e/..)`,
	`(<a><b/></a>)/b`,
	// Faults that must match byte for byte.
	`$nope`,
	`1 idiv 0`,
	`-("a")`,
	`unknownfn(1, 2)`,
	`concat("one")`,
	`execute at {"p"} { young() }`,
	`doc("missing://really")/x`,
	// Queries that fault in several places: the streamed form meets the
	// tree-walker's fault first — a loop's input before its bodies and its
	// hoisted operands, a step's predicate layers one after another.
	`for $x in (1, 0, 3, 4, 5, -(doc("f.xml")//name)) return 10 idiv $x`,
	`for $x in (1, 2, 3, 4, 5, A) return if (false()) then ($x = ("s")/x) else $x`,
	`(2, 1, 0)[10 idiv . > 1][-(doc("f.xml")//name) = 0]`,
	`doc("f.xml")/site/people/person[10 idiv (number(profile/age) - 25) > 0][-(doc("f.xml")//name) = 1]`,
}

// TestCompiledEquivalenceRegressions pins compiled-vs-tree-walk equivalence
// over the battery, through both the lazy and the eager entry points.
func TestCompiledEquivalenceRegressions(t *testing.T) {
	docs := mapResolver{"f.xml": fuzzFixtureXML}
	for _, src := range compileBattery {
		expectCompiled(t, docs, src)
	}
}

// expectBoth requires src to evaluate to want through Query and to the
// same result on the tree-walker and lazily (expectCompiled).
func expectBoth(t *testing.T, docs mapResolver, src, want string) {
	t.Helper()
	expect(t, docs, src, want)
	expectCompiled(t, docs, src)
}

// TestReverseAxisPositions: a positional predicate on ancestor,
// ancestor-or-self, preceding and preceding-sibling counts from the context
// node outward, on both executors; a filter over the step's result still
// counts in document order.
func TestReverseAxisPositions(t *testing.T) {
	docs := mapResolver{"r.xml": `<a><b/><c><d/></c><e/></a>`}
	for src, want := range map[string]string{
		`name(doc("r.xml")/descendant::d/ancestor::*[1])`:                           "c",
		`name(doc("r.xml")/descendant::d/ancestor::*[last()])`:                      "a",
		`name(doc("r.xml")/descendant::e/preceding-sibling::*[1])`:                  "c",
		`name(doc("r.xml")/descendant::e/preceding-sibling::*[2])`:                  "b",
		`name(doc("r.xml")/descendant::d/ancestor-or-self::*[2])`:                   "c",
		`name(doc("r.xml")/descendant::e/preceding::*[1])`:                          "d",
		`for $n in doc("r.xml")//d/ancestor::*[position() <= 2] return name($n)`:    "a c",
		`for $n in doc("r.xml")//e/preceding::*[position() > 1][1] return name($n)`: "c",
		`name((doc("r.xml")/descendant::d/ancestor::*)[1])`:                         "a",
		`name(doc("r.xml")/descendant::d/following::*[1])`:                          "e",
	} {
		expectBoth(t, docs, src, want)
	}
}

// TestOrderByIsInputOrderFree: whether an order by faults depends on its key
// columns, not on which pairs the sort happens to compare; an empty key is
// the least of every column; a column holding a number orders by number.
func TestOrderByIsInputOrderFree(t *testing.T) {
	for _, src := range []string{
		`for $k in (<a>7</a>, 5, "a") order by $k return string($k)`,
		`for $k in ("a", 5, <a>7</a>) order by $k return string($k)`,
		`for $k in (true(), "a") order by $k return string($k)`,
		`for $k in ("a", true()) order by $k return string($k)`,
	} {
		if err := runErr(t, nil, src); !strings.Contains(err.Error(), "not comparable") {
			t.Errorf("%s: %v", src, err)
		}
		expectCompiled(t, nil, src)
	}
	for src, want := range map[string]string{
		`for $x in (<a><v>3</v></a>, <a/>, <a><v>1</v></a>) order by $x/v * 1 return count($x/v)`:           "0 1 1",
		`for $x in (<a><v>3</v></a>, <a/>, <a><v>1</v></a>) order by $x/v * 1 descending return string($x)`: "3 1 ",
		`for $k in (<a>10</a>, 9.5, <a>9</a>) order by $k return string($k)`:                                "9 9.5 10",
		`for $k in ("b", <a>a</a>, "c") order by $k descending return string($k)`:                           "c b a",
		`for $k in (true(), false(), ()) order by $k return string($k)`:                                     "false true",
		`for $k in (2, 1, 2, 1) order by $k return $k`:                                                      "1 1 2 2",
		`for $k in () order by $k, $k descending return $k`:                                                 "",
		`for $x in (3, 1, 2, 1, 3, 2) order by $x mod 2, $x return $x`:                                      "2 2 1 1 3 3",
	} {
		expectBoth(t, nil, src, want)
	}
}

// TestDistinctValuesKeying pins fn:distinct-values' equality in both modes:
// xs:untypedAtomic values (element content) compare as strings — distinct
// names stay distinct instead of collapsing into one not-a-number — while
// numerics compare by value across numeric types and never equal a string.
func TestDistinctValuesKeying(t *testing.T) {
	docs := mapResolver{"f.xml": fuzzFixtureXML}
	for _, tc := range []struct{ src, want string }{
		{`distinct-values(doc("f.xml")//person/name)`, "Tang Bo Ana Ivo Eva"},
		{`distinct-values(doc("f.xml")//author)`, "Tang Zed Bo Ana"},
		{`distinct-values(doc("f.xml")//city)`, "Amsterdam Delft Utrecht Leiden"},
		{`distinct-values(for $e in doc("f.xml")//l2 return name($e))`, "l2"},
		{`distinct-values(doc("f.xml")//age)`, "34 46 25 51 39"},
		{`distinct-values(("1", 1, 1.0))`, "1 1"},
		{`count(distinct-values((doc("f.xml")//book[1]/price, 49, "49")))`, "2"},
	} {
		for _, compile := range []bool{false, true} {
			eng := NewEngine(docs)
			run := queryString
			if !compile {
				run = treeWalkString
			}
			res, err := run(eng, tc.src)
			if err != nil {
				t.Fatalf("compile=%v %s: %v", compile, tc.src, err)
			}
			if got := serialize(res); got != tc.want {
				t.Errorf("compile=%v %s\n got:  %s\n want: %s", compile, tc.src, got, tc.want)
			}
		}
	}
}

// TestDistinctValuesEquivalences pins the equality fn:distinct-values keys
// on, item by item: untyped equals string, numerics equal by value across
// types (1 = 1.0, -0 = 0), every NaN is one value, and the first occurrence
// is the one kept, in input order.
func TestDistinctValuesEquivalences(t *testing.T) {
	nan, negZero := xdm.NewDouble(math.NaN()), xdm.NewDouble(math.Copysign(0, -1))
	for _, tc := range []struct {
		name     string
		in, want []xdm.Atomic
	}{
		{"untyped equals string", []xdm.Atomic{xdm.NewUntyped("a"), xdm.NewString("a"), xdm.NewString("b")},
			[]xdm.Atomic{xdm.NewUntyped("a"), xdm.NewString("b")}},
		{"integer equals double", []xdm.Atomic{xdm.NewInteger(1), xdm.NewDouble(1.0), xdm.NewDouble(1.5)},
			[]xdm.Atomic{xdm.NewInteger(1), xdm.NewDouble(1.5)}},
		{"NaN is one value", []xdm.Atomic{nan, xdm.NewDouble(math.NaN()), xdm.NewString("NaN")},
			[]xdm.Atomic{nan, xdm.NewString("NaN")}},
		{"-0 equals 0", []xdm.Atomic{negZero, xdm.NewInteger(0), xdm.NewDouble(0)},
			[]xdm.Atomic{negZero}},
		{"numbers never equal strings", []xdm.Atomic{xdm.NewString("1"), xdm.NewInteger(1), xdm.NewUntyped("1")},
			[]xdm.Atomic{xdm.NewString("1"), xdm.NewInteger(1)}},
		{"first occurrence kept in input order", []xdm.Atomic{xdm.NewDouble(2), xdm.NewBoolean(true),
			xdm.NewInteger(2), xdm.NewString("true"), xdm.NewBoolean(true), xdm.NewUntyped("x")},
			[]xdm.Atomic{xdm.NewDouble(2), xdm.NewBoolean(true), xdm.NewString("true"), xdm.NewUntyped("x")}},
	} {
		in := make(xdm.Sequence, len(tc.in))
		for i, a := range tc.in {
			in[i] = a
		}
		got, err := fnDistinctValues(nil, []xdm.Sequence{in})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		same := len(got) == len(tc.want)
		for i := 0; same && i < len(got); i++ {
			a := got[i].(xdm.Atomic)
			w := tc.want[i]
			same = a.T == w.T && a.ItemString() == w.ItemString() && math.Signbit(a.F) == math.Signbit(w.F)
		}
		if !same {
			t.Errorf("%s: distinct-values(%v) = %v, want %v", tc.name, tc.in, got, tc.want)
		}
	}
}

// TestCompiledDeadlineAbortsMidStream is the compiled twin of
// TestLazyDeadlineAbortsMidStream: compiled scans hit the shared stopCheck
// at the same ≤64-node granularity, so an expired deadline cuts a streamed
// compiled walk with the typed sentinel and a counted abort.
func TestCompiledDeadlineAbortsMidStream(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < 200000; i++ {
		fmt.Fprintf(&sb, "<x>%d</x>", i)
	}
	sb.WriteString("</r>")
	e := NewEngine(mapResolver{"big.xml": sb.String()})
	e.Options.Compile = true
	q, err := xq.ParseQuery(`doc("big.xml")/r/x`)
	if err != nil {
		t.Fatal(err)
	}
	e.Deadline = time.Now()
	s, err := e.QuerySeq(q)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	err = s(func(xdm.Item) bool {
		n++
		return true
	})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("want ErrDeadlineExceeded after %d items, got %v", n, err)
	}
	if e.StatsSnapshot().DeadlineAborts == 0 {
		t.Fatal("deadline abort not counted in Stats")
	}
}

// TestCompiledDeadlineInsideLoop: a compiled FLWOR pipeline (not just the
// axis scans) consults the budget, so a loop over an already-materialized
// sequence still aborts.
func TestCompiledDeadlineInsideLoop(t *testing.T) {
	e := NewEngine(mapResolver{})
	e.Options.Compile = true
	q, err := xq.ParseQuery(`declare function local:burn($n as xs:integer) as xs:integer
		{ if ($n <= 0) then 0 else local:burn($n - 1) };
		for $i in (1, 2, 3, 4, 5, 6, 7, 8) return local:burn(2000000)`)
	if err != nil {
		t.Fatal(err)
	}
	e.Deadline = time.Now().Add(2 * time.Millisecond)
	_, err = e.Query(q)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("want ErrDeadlineExceeded, got %v", err)
	}
	if e.StatsSnapshot().DeadlineAborts == 0 {
		t.Fatal("deadline abort not counted in Stats")
	}
}

// TestCompiledFunctionEntryPoints: the server-side function entry points
// honour Options.Compile and agree with the tree-walker, including the
// undeclared-function fault and a duplicate declaration's Normalize fault.
func TestCompiledFunctionEntryPoints(t *testing.T) {
	src := `declare function local:f($d as item()*) as item()* { for $x in $d//person return $x/child::name }; 1`
	docs := mapResolver{"f.xml": fuzzFixtureXML}
	arg := func(e *Engine) xdm.Sequence {
		d, err := e.Doc("f.xml")
		if err != nil {
			t.Fatal(err)
		}
		return xdm.Singleton(d.Root)
	}
	tw := NewEngine(docs)
	cc := NewEngine(docs)
	cc.Options.Compile = true
	q1, _ := xq.ParseQuery(src)
	q2, _ := xq.ParseQuery(src)
	twRes, twErr := treeWalkFunction(tw, q1, "local:f", []xdm.Sequence{arg(tw)}, nil, time.Time{})
	ccRes, ccErr := cc.EvalFunction(q2, "local:f", []xdm.Sequence{arg(cc)})
	compareModes(t, "function", src, twRes, twErr, ccRes, ccErr)
	if serialize(ccRes) == "" {
		t.Fatal("function returned nothing; fixture mismatch")
	}
	// Lazy entry point.
	s, err := cc.evalFunctionSeq(q2, "local:f", []xdm.Sequence{arg(cc)}, nil, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	var lazyRes xdm.Sequence
	if err := s(func(it xdm.Item) bool { lazyRes = append(lazyRes, it); return true }); err != nil {
		t.Fatal(err)
	}
	if serialize(lazyRes) != serialize(twRes) {
		t.Fatalf("lazy function diverged: %q vs %q", serialize(lazyRes), serialize(twRes))
	}
	// Undeclared-function fault text must match the tree-walker's.
	_, twErr = treeWalkFunction(tw, q1, "local:g", nil, nil, time.Time{})
	_, ccErr = cc.EvalFunction(q2, "local:g", nil)
	if twErr == nil || ccErr == nil || twErr.Error() != ccErr.Error() {
		t.Fatalf("undeclared fault diverged: %v vs %v", twErr, ccErr)
	}
	// A module declaring one name and arity twice never lowers: Normalize
	// rejects it, so no lookup rule has to pick a declaration.
	dup := `declare function f() as item()* { 1 }; declare function f() as item()* { 2 }; 0`
	for _, e := range []*Engine{tw, cc} {
		q, err := xq.ParseQuery(dup)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.EvalFunction(q, "f", nil); err == nil || !strings.Contains(err.Error(), "duplicate function") {
			t.Fatalf("compile=%v: a duplicate declaration ran: %v", e.Options.Compile, err)
		}
	}
}

// TestCompiledArtifactShared: compilation happens once per query object; a
// second engine executing the same query reuses the cached Program instead
// of recompiling.
func TestCompiledArtifactShared(t *testing.T) {
	q, err := xq.ParseQuery(`for $i in (1, 2, 3) return $i * $i`)
	if err != nil {
		t.Fatal(err)
	}
	e1 := NewEngine(mapResolver{})
	e1.Options.Compile = true
	if _, err := e1.Query(q); err != nil {
		t.Fatal(err)
	}
	if got := e1.StatsSnapshot().Compilations; got != 1 {
		t.Fatalf("first engine: %d compilations, want 1", got)
	}
	if _, err := e1.Query(q); err != nil {
		t.Fatal(err)
	}
	if got := e1.StatsSnapshot().Compilations; got != 1 {
		t.Fatalf("re-execution recompiled: %d compilations", got)
	}
	e2 := NewEngine(mapResolver{})
	e2.Options.Compile = true
	if _, err := e2.Query(q); err != nil {
		t.Fatal(err)
	}
	if got := e2.StatsSnapshot().Compilations; got != 0 {
		t.Fatalf("second engine recompiled a cached artifact: %d compilations", got)
	}
}

// TestFallbackSitesByConstruct: every construct compiles. Loops nested 7
// and 64 deep, remote loops, constructors and every battery entry compile
// and evaluate byte-identically to the tree-walker, eager and lazy; compiled
// code holds no call into the tree-walker, so none of them reaches it.
func TestFallbackSitesByConstruct(t *testing.T) {
	docs := mapResolver{"f.xml": fuzzFixtureXML}
	for _, src := range append([]string{
		`for $x in (1, 2, 3) return $x + 1`,
		`for $b in doc("f.xml")//book order by number($b/price) return $b/title`,
		`element report { attribute n {1}, doc("f.xml")//book/title }`,
		`(text {"a"}, <a/>, <b/>, document {<c/>}, attribute d {1})`,
		`declare function f() as item()* { 1 }; for $p in ("a", "b") return execute at {$p} { f() }`,
		`declare function f() as item()* { 1 }; for $p in ("a", "b") order by $p return execute at {$p} { f() }`,
		`for $a in 1 return for $b in 1 return for $c in 1 return for $d in 1 return
		  for $e in 1 return for $f in 1 return for $g in 1 return $g`,
		strings.Repeat(`for $v in (1, 2)[. = 1] return `, 63) + `for $v in (1, 2) return $v`,
	}, compileBattery...) {
		expectCompiled(t, docs, src)
	}
}

// TestTreeWalkAttachesNoProgram: an engine without the Compile option runs
// a freshly parsed query through every entry point, eager and lazy, on a
// lowering of its own per call, and leaves no Program on the query and no
// compilation in its Stats — retention is the caches' decision. The
// tree-walker the tests compare with (treeWalk) attaches nothing either.
// Once a Program is attached, every call runs it.
func TestTreeWalkAttachesNoProgram(t *testing.T) {
	docs := mapResolver{"f.xml": fuzzFixtureXML}
	src := `declare function f() as item()* { doc("f.xml")//book[price > 28]/title }; f()`
	parse := func() *xq.Query {
		q, err := xq.ParseQuery(src)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	tw := NewEngine(docs)
	q := parse()
	want, err := treeWalk(tw, q)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := tw.Query(q); err != nil || serialize(got) != serialize(want) {
		t.Fatalf("Query: %v, %v, want %v", got, err, want)
	}
	if _, err := tw.EvalFunction(q, "f", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := tw.EvalFunctionDeadline(q, "f", nil, nil, time.Now().Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	if q.CompiledArtifact() != nil || tw.StatsSnapshot().Compilations != 0 {
		t.Fatal("a call of a fresh parse attached a Program")
	}
	for _, lazy := range []struct {
		name string
		run  func(*Engine, *xq.Query) (lazySeq, error)
	}{
		{"QuerySeq", (*Engine).QuerySeq},
		{"EvalFunctionSeqDeadline", func(e *Engine, q *xq.Query) (lazySeq, error) {
			return e.evalFunctionSeq(q, "f", nil, nil, time.Time{})
		}},
	} {
		e, lq := NewEngine(docs), parse()
		for call := 1; call <= 2; call++ {
			s, err := lazy.run(e, lq)
			if err != nil {
				t.Fatal(err)
			}
			got, err := drain(s)
			if err != nil || serialize(got) != serialize(want) {
				t.Fatalf("%s call %d: %v, %v, want %v", lazy.name, call, got, err, want)
			}
			if lq.CompiledArtifact() != nil || e.StatsSnapshot().Compilations != 0 {
				t.Fatalf("%s call %d: Program attached %v after %d compilations, want none",
					lazy.name, call, lq.CompiledArtifact() != nil, e.StatsSnapshot().Compilations)
			}
		}
	}
	// The converse: once a Program is attached, the same engine runs it.
	p, err := CompileQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if tw.program(q) != p {
		t.Fatal("engine ignores the Program its query carries")
	}
	got, err := tw.Query(q)
	if err != nil || serialize(got) != serialize(want) {
		t.Fatalf("compiled run of the same query object: %v, %v, want %v", got, err, want)
	}
}

// loopChains are the nesting shapes TestCompileLinearInLoopNesting grows:
// each returns a chain of d nested loops.
var loopChains = []struct {
	name  string
	chain func(d int) string
}{
	// Every loop memoizes one operand: the filter on the next loop's input
	// reads the variable of the loop around it, so it is invariant in this
	// loop and in no loop further out.
	{"memo", func(d int) string {
		var sb strings.Builder
		sb.WriteString("let $x0 := 1 return ")
		for k := 1; k <= d; k++ {
			fmt.Fprintf(&sb, "for $x%d in (1, 2)[sum(($x%d, 1)) = 2] return ", k, max(k-2, 0))
		}
		fmt.Fprintf(&sb, "$x%d", d)
		return sb.String()
	}},
	// Plain nested loops.
	{"push", func(d int) string {
		var sb strings.Builder
		for k := 1; k <= d; k++ {
			fmt.Fprintf(&sb, "for $x%d in (1, 2) return ", k)
		}
		fmt.Fprintf(&sb, "$x%d", d)
		return sb.String()
	}},
	// Remote loops, each holding the next in its target.
	{"remote", func(d int) string {
		var sb strings.Builder
		sb.WriteString(`declare function f() as item()* { "a" }; `)
		for k := 1; k < d; k++ {
			fmt.Fprintf(&sb, "for $p%d in 1 return execute at {", k)
		}
		sb.WriteString(`for $p in (1, 2) return execute at {"a"} { f() }`)
		sb.WriteString(strings.Repeat("} { f() }", d-1))
		return sb.String()
	}},
}

// TestCompileLinearInLoopNesting: a loop body compiles once per form, and a
// remote loop shares its call's compiled arguments with the call itself, so
// compiling a chain of nested loops costs allocations linear in its depth —
// doubling the depth at most doubles them, plus slack — up to the parser's
// nesting bound. An 8-deep chain evaluates as on the tree-walker.
func TestCompileLinearInLoopNesting(t *testing.T) {
	parse := func(src string) *xq.Query {
		q, err := xq.ParseQuery(src)
		if err != nil {
			t.Fatalf("%v\n%.200s", err, src)
		}
		return q
	}
	compileAllocs := func(src string) float64 {
		const runs = 3
		qs := make([]*xq.Query, runs+1)
		for i := range qs {
			qs[i] = parse(src)
		}
		return testing.AllocsPerRun(runs, func() {
			if _, err := CompileQuery(qs[0]); err != nil {
				t.Fatal(err)
			}
			qs = qs[1:]
		})
	}
	for _, sh := range loopChains {
		for _, d := range []int{8, 64, 250} {
			a, b := compileAllocs(sh.chain(d)), compileAllocs(sh.chain(2*d))
			t.Logf("%s: %.0f allocs at depth %d, %.0f at %d", sh.name, a, d, b, 2*d)
			if b > 2.3*a {
				t.Errorf("%s: %.0f allocs compiling depth %d, %.0f at depth %d: not linear", sh.name, a, d, b, 2*d)
			}
		}
		// The deepest chain the parser takes compiles.
		deepest := sort.Search(1000, func(d int) bool {
			_, err := xq.ParseQuery(sh.chain(d + 1))
			return err != nil
		})
		if deepest < 100 {
			t.Fatalf("%s: the parser takes only %d levels", sh.name, deepest)
		}
		if _, err := CompileQuery(parse(sh.chain(deepest))); err != nil {
			t.Errorf("%s at depth %d: %v", sh.name, deepest, err)
		}
		t.Logf("%s: the deepest chain the parser takes, %d loops, compiles", sh.name, deepest)
		src := sh.chain(8)
		if sh.name == "remote" {
			dispatchBoth(t, nil, src, func() *fakeRemote { return &fakeRemote{} }, nil)
		} else {
			expectCompiled(t, nil, src)
		}
	}
}
