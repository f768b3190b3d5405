package eval

import (
	"errors"
	"strings"
	"testing"
	"time"

	"distxq/internal/xdm"
	"distxq/internal/xq"
)

// fuzzFixtureXML is one document covering the vocabulary of every seed:
// XMark-ish people, auctions, a book list with prices, and the l1/l2 axis
// playground — so mutated queries keep hitting real nodes instead of
// evaluating over empty sequences.
const fuzzFixtureXML = `<site>
 <people>
  <person id="p1"><name>Tang</name><emailaddress>t@x</emailaddress><profile income="45000"><age>34</age></profile><address><city>Amsterdam</city></address></person>
  <person id="p2"><name>Bo</name><emailaddress>b@x</emailaddress><profile income="21000"><age>46</age></profile><address><city>Delft</city></address></person>
  <person id="p3"><name>Ana</name><profile income="99000"><age>25</age></profile><address><city>Utrecht</city></address></person>
  <person id="p4"><name>Ivo</name><profile income="30500"><age>51</age></profile><address><city>Leiden</city></address></person>
  <person id="p5"><name>Eva</name><profile income="60000"><age>39</age></profile><address><city>Delft</city></address></person>
 </people>
 <open_auctions>
  <open_auction><seller person="p1"/><annotation><author>Tang</author></annotation></open_auction>
  <open_auction><seller person="p9"/><annotation><author>Zed</author></annotation></open_auction>
 </open_auctions>
 <books>
  <book id="b1"><title>Query Processing</title><price>49</price><author>Tang</author></book>
  <book id="b2"><title>XML</title><price>28</price><author>Bo</author></book>
  <book id="b3"><title>Streams</title><price>31</price><author>Ana</author></book>
 </books>
 <l1><l2 k="y"><l3/></l2><l2 k="n"/><l2 k="y"/></l1>
</site>`

// anyDocResolver serves the shared fixture for every URI, so mutated
// document names still resolve and both engines observe identical node
// identities.
type anyDocResolver struct{ doc *xdm.Document }

func (r anyDocResolver) ResolveDoc(string) (*xdm.Document, error) { return r.doc, nil }

func fuzzFixture(tb testing.TB) *xdm.Document {
	tb.Helper()
	d, err := xdm.ParseString(fuzzFixtureXML, "fuzz://fixture")
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// compiledFuzzSeeds replicates the FuzzParseQuery corpus (every construct of
// the dialect), adds shard-equivalence generator shapes, and pins the
// compiled-specific corners: hoisting heuristics, predicate fusion,
// constant folding, deferred constant faults, duplicate declarations.
var compiledFuzzSeeds = []string{
	// FuzzParseQuery corpus (internal/xq).
	`(let $t := (let $s := doc("xrpc://peer1/xmk.xml")/child::site/child::people/child::person
	            return for $x in $s return
	                   if ($x/descendant::age < 40) then $x else ())
	 return for $e in (let $c := doc("xrpc://peer2/xmk.auctions.xml")
	                   return $c/descendant::open_auction)
	        return if ($e/child::seller/attribute::person = $t/attribute::id)
	               then $e/child::annotation else ())/child::author`,
	`let $s := doc("xrpc://peer1/xmk.xml")/child::site/child::people/child::person
	 return for $x in $s return
	       if ($x/descendant::age > 45) then $x else ()`,
	`declare function young() as item()* {
	  for $x in doc("xmk.xml")/child::site/child::people/child::person
	  return if ($x/descendant::age < 40) then $x/child::name else ()
	};
	for $p in ("peer1", "peer2") return execute at {$p} { young() }`,
	`for $x in doc("shard://xmark/people")/child::site/child::people/child::person
	 return if ($x/descendant::age < 40) then $x/child::name else ()`,
	`doc("a.xml")//book[price > 28][2]/title/text()`,
	`(doc("a.xml")//book)[last()]/@id`,
	`doc("a.xml")//l2[@k = "y"]/preceding-sibling::l2/ancestor-or-self::node()`,
	`for $b in doc("a.xml")//book order by number($b/price) descending, $b/title return $b`,
	`some $a in doc("a.xml")//author satisfies $a = "Tang"`,
	`every $a in doc("a.xml")//author satisfies string-length($a) > 2`,
	`typeswitch (doc("a.xml")//book[1]) case $n as element() return name($n)
	 case $t as text() return "txt" default $d return count($d)`,
	`element report { attribute n {count(doc("a.xml")//book)}, text {"x"}, doc("a.xml")//book/title }`,
	`<a b="1" c="{2}"><b/>text</a>`,
	`document { element x { 1 + 2 * 3 idiv 4 mod 5 - -6 } }`,
	`(1, 2.5, "three", true(), $v) union doc("a.xml")//a intersect doc("a.xml")//b except doc("a.xml")//c`,
	`$x is $y or $x << $y and $x >> $y`,
	`if (1 = 2 or 3 != 4 and 5 <= 6) then 7 else 8`,
	`let $f := 1 return (: comment (: nested :) here :) $f`,
	`"unterminated`,
	`'single''quoted'`,
	`execute at {"p"} { f(1, (), ("a", "b")) }`,
	``,
	`$`,
	`/`,
	`//`,
	`..`,
	`.`,
	`()`,
	// Shard-equivalence generator shapes (internal/core harness).
	`doc("shard://xmark/people")/child::site/child::people/child::person[child::profile/child::age > 30]/child::name`,
	`count(doc("shard://xmark/people")/child::site/child::people/child::person[descendant::age < 40])`,
	`for $x in doc("shard://xmark/people")/child::site/child::people/child::person[child::address/child::city = "Delft"]
	 return element rec { $x/child::name, $x/descendant::age }`,
	`let $k := 30 return for $x in doc("shard://xmark/people")/child::site/child::people/child::person[descendant::age > $k]
	 return if ($x/descendant::age < $k + 9) then $x/child::name else ()`,
	`doc("shard://xmark/people")/child::site/child::people/child::person[position() = 2]/child::name`,
	`doc("shard://xmark/people")/child::site/child::people/child::person[last()]`,
	`declare function pick($y as item()*) as item()* { if ($y/descendant::age < 40) then $y/child::name else () };
	 for $x in doc("shard://xmark/people")/child::site/child::people/child::person return pick($x)`,
	`for $x in doc("a.xml")//person[child::profile/attribute::income > 30000]
	 return $x/parent::people/child::person[descendant::age < 40]/child::name`,
	// Hoisting corners: >4-iteration loops with invariant compare operands,
	// including a faulting hoisted binding inside a never-taken branch.
	`for $x in (1, 2, 3, 4, 5, 6) return if ($x > 10) then ($x = doc("a.xml")//book/price) else $x`,
	`for $x in (1, 2, 3, 4) return if ($x > 10) then ($x = doc("a.xml")//book/price) else $x`,
	`for $x in (1, 2, 3, 4, 5) return if (false()) then (unknownfn() = 1) else $x`,
	`for $p in doc("a.xml")//person return for $q in (1, 2, 3, 4, 5)
	 return if ($q = count(doc("a.xml")//book)) then $p/child::name else ()`,
	// General `=` as a join: a hoisted operand on the right and on the
	// left, of more and of at most 4 atoms, probed by untyped, numeric,
	// string and boolean atoms; NaN, -0 and padded untypeds; the n × n
	// hash path against its pair scan.
	`for $p in doc("a.xml")//person return if ($p/address/city = doc("a.xml")//city) then $p/name else ()`,
	`for $p in doc("a.xml")//person return if (doc("a.xml")//age = $p//age) then $p/@id else "-"`,
	`for $p in doc("a.xml")//person return if (doc("a.xml")//book/author = $p/name) then $p/@id else "-"`,
	`for $x in (25, "25", 34.0, "Tang", 46, 51, true(), " 39") return if ($x = doc("a.xml")//age) then $x else "-"`,
	`for $x in doc("a.xml")//age return ($x = subsequence((doc("a.xml")//@income, "34", 46.0, true(), number("x")), 1, 20))`,
	`for $x in (1, 2, 3, 4, 5, number("x")) return if ($x = subsequence((number("y"), 1, 2, 3, 4, 9), 1, 9)) then $x else "-"`,
	`for $b in (true(), false(), true(), 1, "true", 0) return ($b = subsequence((false(), "a", "b", 2, 3), 1, 9))`,
	`for $x in (1, 2, 3, 4, 5, 6) return if (subsequence((2, "4", 6.0), 1, 9) = $x) then $x else ()`,
	`let $d := <r><v> 5 </v><v>-0</v><v>5.0</v><v>NaN</v><v>x</v></r>
	 return for $x in (5, 0, "5", " 5 ", "x", 1, number("NaN")) return if ($x = $d/v) then $x else "-"`,
	`((number("x"), 1, 2, 3, 4) = (number("y"), 10, 20, 30, 40), (number("x")) = (number("y")))`,
	`(("5", "a", "b", "c", "d") = (5, 6, 7, 8, 9), ("5") = (5, 6, 7, 8, 9), doc("a.xml")//age = ("25", 1, 2, 3, 4))`,
	// Compiled-specific corners: constant folding with deferred faults,
	// predicate fusion, duplicate declarations, focus builtins, typeswitch
	// defaults, unary over folded constants, nested function calls.
	`if (true()) then 1 else (1 div 0)`,
	`if (false()) then (1 idiv 0) else 2`,
	`1 idiv 0`,
	`-("a")`,
	`doc("a.xml")//book[price > 28 and @id != "b9"][position() = 1]/title`,
	`doc("a.xml")//person[not(child::emailaddress)]/child::name`,
	`declare function f($a as xs:integer) as xs:integer { $a + 1 };
	 declare function f($a as xs:integer) as xs:integer { $a * 2 };
	 f(10)`,
	`declare function rec($n as xs:integer) as xs:integer { if ($n <= 0) then 0 else rec($n - 1) }; rec(12)`,
	`doc("a.xml")//book[root()//l2[@k = "y"]]/title`,
	`typeswitch (1 + 1) case $i as xs:integer return $i default return "no"`,
	`let $d := doc("a.xml") return ($d//l2[1], $d//l2[@k = "y"][2], $d//l3/ancestor::l1)`,
	`string-join(for $b in doc("a.xml")//book return $b/title/text(), "|")`,
	// Compiled order by: empty keys, sequence and incomparable keys (both
	// fault), several keys with ties, hoisting in a sorted loop, and a sort
	// inside a declared function.
	`for $p in doc("a.xml")//person order by $p/emailaddress descending return $p/name`,
	`for $x in (1, 2) order by ($x, $x) return $x`,
	`for $x in (1, "a", 2) order by $x return $x`,
	`for $x in (3, 1, 2, 1, 3, 2) order by $x mod 2 descending, $x idiv 2 return $x * 10 + $x`,
	`for $p in doc("a.xml")//person order by $p/address/city return $p/name`,
	`for $p in doc("a.xml")//person order by $p/profile/age
	 return if ($p/name = doc("a.xml")//author) then $p/name else ()`,
	`declare function sorted($s as item()*) as item()* { for $x in $s order by $x descending return $x };
	 sorted(doc("a.xml")//age)`,
	// Compiled constructors: nesting in place, attribute-after-content
	// faults, document content, atom joining, identity and order across
	// trees, parents and roots of constructed nodes.
	`<a x="1"><b>{doc("a.xml")//book[1]/title}</b><c><d>t</d>{doc("a.xml")//l2[1]}</c></a>`,
	`<a>{"x"}{attribute y {1}}</a>`,
	`<a>{("x", attribute y {1})}</a>`,
	`<a>{document { <b/>, "t" }}</a>`,
	`<a>{1, "two", 3.5}{4}</a>`,
	`let $x := <a/> return let $y := <b/> return ($x is $y, $x << $y, $y << $x, $x is $x)`,
	`let $e := <a><b/></a> return ($e/b/.., root($e), count(root($e)/node()), $e/..)`,
	`(<a><b/></a>)/b`,
	// Remote dispatch, against the in-process peers of fuzzRemotes: a
	// single call, a Bulk RPC, a scatter, a faulting peer, non-singleton
	// targets, a sorted remote loop, an unbound parameter, and a hoisted
	// loop around a scatter.
	`declare function f($x as xs:integer) as item()* { ($x * 2, doc("a.xml")//book[$x]/title) };
	 let $r := execute at {"a"} { f(1) } return ($r, count($r))`,
	`declare function f($x as xs:integer) as item()* { ($x, doc("a.xml")//book[$x]/price) };
	 for $i in (1, 2, 3) return execute at {"a"} { f($i) }`,
	`declare function f($p as xs:string) as item()* { ($p, count(doc("a.xml")//person)) };
	 for $p in ("a", "b", "a", "c") return execute at {$p} { f($p) }`,
	`declare function f($p as xs:string) as item()* { $p };
	 for $p in ("a", "down", "b", "down") return execute at {$p} { f($p) }`,
	`declare function f() as item()* { 1 }; for $p in ("a", "b") return execute at {($p, $p)} { f() }`,
	`declare function f() as item()* { 1 }; for $p in ("a", "b") return execute at {("a", "b")} { f() }`,
	`declare function f($p as xs:string) as item()* { $p };
	 for $p in ("b", "a", "c") order by $p descending return execute at {$p} { f($p) }`,
	`declare function f($x as item()*) as item()* { $x }; execute at {"a"} { f($nope) }`,
	`declare function f($x as xs:string) as item()* { $x };
	 for $i in (1, 2, 3, 4, 5) return if ($i = count(doc("a.xml")//book)) then ()
	 else (for $p in ("a", "b") return execute at {$p} { f($p) })`,
}

// FuzzCompiledVsTreeWalk is the differential fuzzer of the compiler: every
// parsed query must evaluate byte-identically (or fault with the identical
// error) with Options.Compile on and off, through both the eager entry point
// and the lazy one, whose only executor is the compiled push form. A query
// that mentions execute-at runs again against each of fuzzRemotes' callers,
// so both executors' remote dispatch is compared too. Deadline aborts are
// the single tolerated asymmetry — they depend on wall-clock timing, which
// the two modes legitimately reach at different node counts.
func FuzzCompiledVsTreeWalk(f *testing.F) {
	for _, seed := range compiledFuzzSeeds {
		f.Add(seed)
	}
	doc := fuzzFixture(f)
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4096 {
			return
		}
		// A deadline bounds runaway loops and unbounded recursion; it is
		// generous enough that ordinary inputs never see it.
		deadline := time.Now().Add(25 * time.Millisecond)
		differential(t, src, doc, deadline, nil)
		if strings.Contains(src, "execute") {
			for _, remote := range fuzzRemotes(doc, deadline) {
				differential(t, src, doc, deadline, remote)
			}
		}
	})
}

// fuzzRemotes returns makers of the deterministic in-process callers the
// fuzzer dispatches to: every peer serves the fixture, and the one named
// "down" faults every call. One gathers, one streams.
func fuzzRemotes(doc *xdm.Document, deadline time.Time) []func() RemoteCaller {
	peers := func(r *fakeRemote) {
		r.docs, r.deadline, r.failPeers = anyDocResolver{doc}, deadline, map[string]bool{"down": true}
	}
	return []func() RemoteCaller{
		func() RemoteCaller {
			r := &fakeRemote{}
			peers(r)
			return r
		},
		func() RemoteCaller {
			s := &streamFake{splitAt: 2}
			peers(&s.fakeRemote)
			return s
		},
	}
}

// differential compares the executors on src, both engines calling out
// through their own caller from remote when it is non-nil.
func differential(t *testing.T, src string, doc *xdm.Document, deadline time.Time, remote func() RemoteCaller) {
	t.Helper()
	q1, err := xq.ParseQuery(src)
	if err != nil {
		return
	}
	q2, err := xq.ParseQuery(src)
	if err != nil {
		return
	}
	tw := NewEngine(anyDocResolver{doc})
	tw.Deadline = deadline
	cc := NewEngine(anyDocResolver{doc})
	cc.Deadline = deadline
	cc.Options.Compile = true
	if remote != nil {
		tw.Remote, cc.Remote = remote(), remote()
	}

	// Probe normalization on a scratch parse: Normalize mutates (and
	// validates) once, so probing q1/q2 directly would eat the error the
	// engines are supposed to report.
	q0, err := xq.ParseQuery(src)
	if err != nil {
		return
	}
	normErr := xq.Normalize(q0)

	twRes, twErr := tw.Query(q1)
	ccRes, ccErr := cc.Query(q2)
	if errors.Is(twErr, ErrDeadlineExceeded) || errors.Is(ccErr, ErrDeadlineExceeded) {
		return
	}
	compareModes(t, "eager", src, twRes, twErr, ccRes, ccErr)
	if normErr != nil {
		// Normalization rejected the query in both modes identically;
		// there is nothing to compile.
		return
	}
	ccRes, ccErr = drainCompiled(t, cc, q2, src)
	if errors.Is(ccErr, ErrDeadlineExceeded) {
		return
	}
	compareModes(t, "lazy", src, twRes, twErr, ccRes, ccErr)
}

// drainCompiled is the lazy half of a differential check: it drains the push
// form of the Program an eager compiled run attached to q.
func drainCompiled(t *testing.T, e *Engine, q *xq.Query, src string) (xdm.Sequence, error) {
	t.Helper()
	if q.CompiledArtifact() == nil {
		t.Fatalf("the compiled engine attached no Program\ninput: %q", src)
	}
	s, err := e.QuerySeq(q)
	if err != nil {
		t.Fatalf("QuerySeq: %v\ninput: %q", err, src)
	}
	return drain(s)
}

func compareModes(t *testing.T, mode, src string, twRes xdm.Sequence, twErr error, ccRes xdm.Sequence, ccErr error) {
	t.Helper()
	if (twErr == nil) != (ccErr == nil) {
		t.Fatalf("%s error divergence:\ninput: %q\ntree-walk err: %v\ncompiled err:  %v", mode, src, twErr, ccErr)
	}
	if twErr != nil {
		if twErr.Error() != ccErr.Error() {
			t.Fatalf("%s error text divergence:\ninput: %q\ntree-walk: %q\ncompiled:  %q", mode, src, twErr, ccErr)
		}
		return
	}
	if got, want := serialize(ccRes), serialize(twRes); got != want {
		t.Fatalf("%s result divergence:\ninput: %q\ntree-walk: %q\ncompiled:  %q", mode, src, want, got)
	}
}
