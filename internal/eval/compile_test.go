package eval

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"strings"
	"testing"
	"time"

	"distxq/internal/xdm"
	"distxq/internal/xq"
)

// expectCompiled evaluates src in both modes over docs and requires
// byte-identical serialized results (or identical faults) — the deterministic
// core of the differential fuzzer, used for pinned regressions.
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
	cc.Options.Compile = true
	q0, err := xq.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	normErr := xq.Normalize(q0)
	twRes, twErr := tw.Query(q1)
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
	// FLWOR pipelines, hoisting at the >4 threshold and below it.
	`for $x in (1, 2, 3, 4, 5, 6) return if ($x > 10) then ($x = doc("f.xml")//book/price) else $x`,
	`for $x in (1, 2, 3, 4) return if ($x > 10) then ($x = doc("f.xml")//book/price) else $x`,
	`for $x in (1, 2, 3, 4, 5) return if (false()) then (unknownfn() = 1) else $x`,
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
	// fault), several keys with ties, hoisting in a sorted loop (more than
	// four items), and a sort inside a declared function.
	`for $p in doc("f.xml")//person order by $p/emailaddress descending return $p/name`,
	`for $x in (1, 2) order by ($x, $x) return $x`,
	`for $x in (1, "a", 2) order by $x return $x`,
	`for $x in (3, 1, 2, 1, 3, 2) order by $x mod 2 descending, $x idiv 2 return $x * 10 + $x`,
	`for $p in doc("f.xml")//person order by $p/address/city descending, $p/name return $p/name`,
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
	// Queries that fault in several places: the push form meets the
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
			eng.Options.Compile = compile
			res, err := queryString(eng, tc.src)
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
// undeclared-function fault.
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
	twRes, twErr := tw.EvalFunction(q1, "local:f", []xdm.Sequence{arg(tw)})
	ccRes, ccErr := cc.EvalFunction(q2, "local:f", []xdm.Sequence{arg(cc)})
	compareModes(t, "function", src, twRes, twErr, ccRes, ccErr)
	if serialize(ccRes) == "" {
		t.Fatal("function returned nothing; fixture mismatch")
	}
	// Lazy entry point.
	s, err := cc.EvalFunctionSeqDeadline(q2, "local:f", []xdm.Sequence{arg(cc)}, nil, time.Time{})
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
	_, twErr = tw.EvalFunction(q1, "local:g", nil)
	_, ccErr = cc.EvalFunction(q2, "local:g", nil)
	if twErr == nil || ccErr == nil || twErr.Error() != ccErr.Error() {
		t.Fatalf("undeclared fault diverged: %v vs %v", twErr, ccErr)
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

// TestFallbackSitesByConstruct pins, over the battery, which AST constructs
// the compiler still hands back to the tree-walker and how many sites of
// each — the compile-time tally behind the compile span's fallback.*
// attributes and distxq_eval_compiled_fallback_sites_total. Lowering a
// construct shrinks its row; a new fallback shows up as a new one.
func TestFallbackSitesByConstruct(t *testing.T) {
	for _, tc := range []struct {
		src  string
		want map[string]int
	}{
		{`for $x in (1, 2, 3) return $x + 1`, nil},
		{`for $b in doc("f.xml")//book order by number($b/price) return $b/title`, nil},
		{`element report { attribute n {1}, doc("f.xml")//book/title }`, nil},
		{`(text {"a"}, <a/>, <b/>, document {<c/>}, attribute d {1})`, nil},
		{`declare function f() as item()* { 1 }; for $p in ("a", "b") return execute at {$p} { f() }`, nil},
		{`declare function f() as item()* { 1 }; for $p in ("a", "b") order by $p return execute at {$p} { f() }`, nil},
		{`for $a in 1 return for $b in 1 return for $c in 1 return for $d in 1 return
		  for $e in 1 return for $f in 1 return for $g in 1 return $g`, map[string]int{"ForExpr": 1}},
	} {
		q, err := xq.ParseQuery(tc.src)
		if err != nil {
			t.Fatalf("%v\n%s", err, tc.src)
		}
		p, err := CompileQuery(q)
		if err != nil {
			t.Fatalf("%v\n%s", err, tc.src)
		}
		if got := p.FallbackSites(); !maps.Equal(got, tc.want) {
			t.Errorf("fallback sites %v, want %v\n%s", got, tc.want, tc.src)
		}
	}
	total := map[string]int{}
	for _, src := range compileBattery {
		q, err := xq.ParseQuery(src)
		if err != nil {
			t.Fatal(err)
		}
		p, err := CompileQuery(q)
		if err != nil {
			continue // the battery's normalization faults compile nothing
		}
		for construct, n := range p.FallbackSites() {
			total[construct] += n
		}
	}
	if want := (map[string]int{}); !maps.Equal(total, want) {
		t.Errorf("battery fallback sites by construct: %v, want %v", total, want)
	}
}

// TestTreeWalkAttachesNoProgram guards every in-package oracle against going
// vacuous: an engine without the Compile option tree-walks a freshly parsed
// query through the eager entry points and leaves no Program on it (a query
// that carries one runs it whatever the option says, so an oracle must parse
// its own copy per mode). The lazy entry points have no tree-walker: each
// lowers a fresh parse once, on the engine's account.
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
	want, err := tw.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tw.EvalFunction(q, "f", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := tw.EvalFunctionDeadline(q, "f", nil, nil, time.Now().Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	if q.CompiledArtifact() != nil || tw.StatsSnapshot().Compilations != 0 {
		t.Fatal("tree-walking a fresh parse attached a Program")
	}
	for _, lazy := range []struct {
		name string
		run  func(*Engine, *xq.Query) (xdm.Seq, error)
	}{
		{"QuerySeq", (*Engine).QuerySeq},
		{"EvalFunctionSeqDeadline", func(e *Engine, q *xq.Query) (xdm.Seq, error) {
			return e.EvalFunctionSeqDeadline(q, "f", nil, nil, time.Time{})
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
			if lq.CompiledArtifact() == nil || e.StatsSnapshot().Compilations != 1 {
				t.Fatalf("%s call %d: Program attached %v after %d compilations, want one compilation",
					lazy.name, call, lq.CompiledArtifact() != nil, e.StatsSnapshot().Compilations)
			}
		}
	}
	// The converse: once a Program is attached, the same engine runs it.
	if _, err := CompileQuery(q); err != nil {
		t.Fatal(err)
	}
	if tw.program(q, false) == nil {
		t.Fatal("engine ignores the Program its query carries")
	}
	got, err := tw.Query(q)
	if err != nil || serialize(got) != serialize(want) {
		t.Fatalf("compiled run of the same query object: %v, %v, want %v", got, err, want)
	}
}
