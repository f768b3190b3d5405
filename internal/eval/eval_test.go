package eval

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"distxq/internal/xdm"
	"distxq/internal/xq"
)

// mapResolver serves documents from a map of URI → XML text.
type mapResolver map[string]string

func (m mapResolver) ResolveDoc(uri string) (*xdm.Document, error) {
	s, ok := m[uri]
	if !ok {
		return nil, fmt.Errorf("no such document %q", uri)
	}
	return xdm.ParseString(s, uri)
}

func run(t *testing.T, docs mapResolver, src string) xdm.Sequence {
	t.Helper()
	e := NewEngine(docs)
	res, err := queryString(e, src)
	if err != nil {
		t.Fatalf("query %q: %v", src, err)
	}
	return res
}

func runErr(t *testing.T, docs mapResolver, src string) error {
	t.Helper()
	e := NewEngine(docs)
	_, err := queryString(e, src)
	if err == nil {
		t.Fatalf("query %q: expected error", src)
	}
	return err
}

// serialize renders a result sequence for golden comparison.
func serialize(s xdm.Sequence) string {
	var parts []string
	for _, it := range s {
		switch v := it.(type) {
		case *xdm.Node:
			parts = append(parts, xdm.SerializeString(v))
		case xdm.Atomic:
			parts = append(parts, v.ItemString())
		}
	}
	return strings.Join(parts, " ")
}

func expect(t *testing.T, docs mapResolver, src, want string) {
	t.Helper()
	got := serialize(run(t, docs, src))
	if got != want {
		t.Errorf("query %s\n got:  %s\n want: %s", src, got, want)
	}
}

var peopleDocs = mapResolver{
	"people.xml": `<people><person id="1"><name>Ann</name><age>30</age></person>` +
		`<person id="2"><name>Bob</name><age>45</age></person>` +
		`<person id="3"><name>Cyd</name><age>50</age></person></people>`,
}

func TestLiteralAndArith(t *testing.T) {
	expect(t, nil, "1 + 2 * 3", "7")
	expect(t, nil, "(1 + 2) * 3", "9")
	expect(t, nil, "7 mod 3", "1")
	expect(t, nil, "7 div 2", "3.5")
	expect(t, nil, "7 idiv 2", "3")
	expect(t, nil, "-(3) + 10", "7")
	expect(t, nil, "1.5 + 1", "2.5")
	expect(t, nil, `concat("a", "b", "c")`, "abc")
}

func TestArithErrors(t *testing.T) {
	runErr(t, nil, "1 div 0")
	runErr(t, nil, "1 idiv 0")
	runErr(t, nil, "1 mod 0")
	runErr(t, nil, "(1,2) + 1")
}

func TestEmptySequenceArith(t *testing.T) {
	expect(t, nil, "() + 1", "")
	expect(t, nil, "1 + ()", "")
}

func TestPathsAndPredicates(t *testing.T) {
	expect(t, peopleDocs, `doc("people.xml")/people/person/name/text()`, "Ann Bob Cyd")
	expect(t, peopleDocs, `doc("people.xml")//person[age > 40]/name/text()`, "Bob Cyd")
	expect(t, peopleDocs, `doc("people.xml")//person[2]/name/text()`, "Bob")
	expect(t, peopleDocs, `doc("people.xml")//person/@id`, `id="1" id="2" id="3"`)
	expect(t, peopleDocs, `count(doc("people.xml")//node())`, "16")
	expect(t, peopleDocs, `doc("people.xml")//person[@id = "2"]/age/text()`, "45")
	expect(t, peopleDocs, `doc("people.xml")//name[../age < 40]/text()`, "Ann")
}

func TestReverseAndHorizontalAxes(t *testing.T) {
	expect(t, peopleDocs, `doc("people.xml")//age/parent::person/@id`, `id="1" id="2" id="3"`)
	expect(t, peopleDocs, `doc("people.xml")//person[2]/preceding-sibling::person/name/text()`, "Ann")
	expect(t, peopleDocs, `doc("people.xml")//person[1]/following-sibling::person/name/text()`, "Bob Cyd")
	expect(t, peopleDocs, `count(doc("people.xml")//age/ancestor::*)`, "4") // people + 3 person, dedup
	expect(t, peopleDocs, `count(doc("people.xml")//age[1]/ancestor-or-self::node())`, "8")
	expect(t, peopleDocs, `doc("people.xml")//person[2]/following::name/text()`, "Cyd")
	expect(t, peopleDocs, `count(doc("people.xml")//person[3]/preceding::name)`, "2")
}

func TestDocOrderAndDedup(t *testing.T) {
	// Union of overlapping step results must be duplicate-free, in order.
	expect(t, peopleDocs,
		`count(doc("people.xml")//person union doc("people.xml")//person)`, "3")
	expect(t, peopleDocs,
		`(doc("people.xml")//person[2] union doc("people.xml")//person[1])/name/text()`, "Ann Bob")
	expect(t, peopleDocs,
		`count((doc("people.xml")//person, doc("people.xml")//person))`, "6") // "," keeps dups
	expect(t, peopleDocs,
		`count(doc("people.xml")//person intersect doc("people.xml")//person[2])`, "1")
	expect(t, peopleDocs,
		`(doc("people.xml")//person except doc("people.xml")//person[2])/@id`, `id="1" id="3"`)
}

func TestFLWOR(t *testing.T) {
	expect(t, peopleDocs,
		`for $p in doc("people.xml")//person where $p/age < 40 return $p/name/text()`, "Ann")
	expect(t, peopleDocs,
		`let $d := doc("people.xml") return count($d//person)`, "3")
	expect(t, peopleDocs,
		`for $p in doc("people.xml")//person order by $p/name descending return $p/name/text()`,
		"Cyd Bob Ann")
	expect(t, peopleDocs,
		`for $p in doc("people.xml")//person order by number($p/age) descending return $p/@id`,
		`id="3" id="2" id="1"`)
	expect(t, nil, `for $x in (1,2,3) return $x * 10`, "10 20 30")
	expect(t, nil, `for $x in (1,2), $y in (10,20) return $x + $y`, "11 21 12 22")
}

func TestQuantified(t *testing.T) {
	expect(t, nil, `some $x in (1,2,3) satisfies $x > 2`, "true")
	expect(t, nil, `every $x in (1,2,3) satisfies $x > 2`, "false")
	expect(t, nil, `every $x in () satisfies $x > 2`, "true")
	expect(t, nil, `some $x in () satisfies $x > 2`, "false")
}

func TestTypeswitch(t *testing.T) {
	expect(t, nil, `typeswitch (1) case xs:integer return "int" default return "other"`, "int")
	expect(t, nil, `typeswitch ("s") case xs:integer return "int" default return "other"`, "other")
	expect(t, peopleDocs,
		`typeswitch (doc("people.xml")//person[1]) case $n as node() return name($n) default return "atomic"`,
		"person")
	expect(t, nil,
		`typeswitch ((1,2)) case xs:integer return "one" case $s as xs:integer+ return count($s) default return "other"`,
		"2")
}

func TestComparisons(t *testing.T) {
	expect(t, nil, `1 = 1`, "true")
	expect(t, nil, `(1,2,3) = 3`, "true")   // existential
	expect(t, nil, `(1,2,3) != 1`, "true")  // existential !=
	expect(t, nil, `() = ()`, "false")      // empty comparisons
	expect(t, nil, `"abc" < "abd"`, "true") // string compare
	expect(t, peopleDocs, `doc("people.xml")//person/age = 45`, "true")
	expect(t, peopleDocs, `doc("people.xml")//person[1]/name = "Ann"`, "true")
}

func TestNodeIdentityComparisons(t *testing.T) {
	docs := peopleDocs
	expect(t, docs, `let $p := doc("people.xml")//person[1] return $p is $p`, "true")
	expect(t, docs, `doc("people.xml")//person[1] is doc("people.xml")//person[2]`, "false")
	expect(t, docs, `doc("people.xml")//person[1] << doc("people.xml")//person[2]`, "true")
	expect(t, docs, `doc("people.xml")//person[2] >> doc("people.xml")//person[1]`, "true")
	// Two doc() calls for the same URI see identical nodes.
	expect(t, docs, `doc("people.xml")//person[1] is doc("people.xml")//person[1]`, "true")
	// Constructed copies are distinct nodes.
	expect(t, nil, `let $a := <a/> let $b := <a/> return $a is $b`, "false")
	expect(t, nil, `let $a := <a/> return $a is $a`, "true")
}

func TestConstructors(t *testing.T) {
	expect(t, nil, `<a x="1"><b/>t</a>`, `<a x="1"><b/>t</a>`)
	expect(t, nil, `element a {attribute x {"1"}, text {"hi"}}`, `<a x="1">hi</a>`)
	expect(t, nil, `element {concat("a","b")} {()}`, `<ab/>`)
	expect(t, nil, `<a>{1+1}</a>`, `<a>2</a>`)
	expect(t, nil, `<a>{(1,2,3)}</a>`, `<a>1 2 3</a>`)
	expect(t, peopleDocs, `<wrap>{(doc("people.xml")//name)[1]}</wrap>`, `<wrap><name>Ann</name></wrap>`)
	expect(t, nil, `string(document {<a>x</a>})`, "x")
	// Constructor copies: navigating into a constructed node yields new identities.
	expect(t, peopleDocs,
		`let $n := (doc("people.xml")//name)[1] let $w := <wrap>{$n}</wrap> return $w/name is $n`,
		"false")
}

func TestMakenodesParentNavigation(t *testing.T) {
	// From Table I: node <b><c/></b> has parent::a inside the constructed tree.
	expect(t, nil, `name((<a><b><c/></b></a>/b)/parent::a)`, "a")
	expect(t, nil, `name((<a><b><c/></b></a>/b)/parent::node())`, "a")
}

func TestUserFunctions(t *testing.T) {
	src := `
	declare function square($x as xs:integer) as xs:integer { $x * $x };
	declare function twice($x as xs:integer) as xs:integer { square($x) + square($x) };
	twice(3)`
	expect(t, nil, src, "18")
}

func TestUserFunctionTypeErrors(t *testing.T) {
	runErr(t, nil, `declare function f($x as xs:integer) as xs:integer { $x }; f("s")`)
	runErr(t, nil, `declare function f($x as xs:integer) as node() { $x }; f(1)`)
	runErr(t, nil, `declare function f($x as node()) as item()* { $x }; f(())`)
}

func TestBuiltins(t *testing.T) {
	expect(t, nil, `count((1,2,3))`, "3")
	expect(t, nil, `empty(())`, "true")
	expect(t, nil, `exists(())`, "false")
	expect(t, nil, `not(1 = 2)`, "true")
	expect(t, nil, `string-join(("a","b"), "-")`, "a-b")
	expect(t, nil, `contains("hello", "ell")`, "true")
	expect(t, nil, `starts-with("hello", "he")`, "true")
	expect(t, nil, `substring("hello", 2, 3)`, "ell")
	expect(t, nil, `string-length("hello")`, "5")
	expect(t, nil, `normalize-space("  a   b ")`, "a b")
	expect(t, nil, `upper-case("ab")`, "AB")
	expect(t, nil, `sum((1,2,3))`, "6")
	expect(t, nil, `avg((2,4))`, "3")
	expect(t, nil, `min((3,1,2))`, "1")
	expect(t, nil, `max((3,1,2))`, "3")
	expect(t, nil, `floor(1.7)`, "1")
	expect(t, nil, `ceiling(1.2)`, "2")
	expect(t, nil, `round(1.5)`, "2")
	expect(t, nil, `abs(-3)`, "3")
	expect(t, nil, `distinct-values((1, 1, "1", 2))`, "1 1 2") // typed 1 vs string "1" are distinct under eq
	expect(t, nil, `reverse((1,2,3))`, "3 2 1")
	expect(t, nil, `subsequence((1,2,3,4), 2, 2)`, "2 3")
	expect(t, nil, `number("12")`, "12")
	expect(t, nil, `number("abc")`, "NaN")
	expect(t, nil, `deep-equal(<a x="1"/>, <a x="1"/>)`, "true")
	expect(t, nil, `deep-equal(<a x="1"/>, <a x="2"/>)`, "false")
	expect(t, nil, `fn:true()`, "true")
	expect(t, nil, `fn:count((1,2))`, "2")
}

func TestRootIdIdref(t *testing.T) {
	docs := mapResolver{
		"d.xml": `<db><item id="i1"><ref idref="i2"/></item><item id="i2"/></db>`,
	}
	expect(t, docs, `name(root(doc("d.xml")//item[1])/db)`, "db")
	expect(t, docs, `id("i2", doc("d.xml"))/@id`, `id="i2"`)
	expect(t, docs, `count(id(("i1","i2"), doc("d.xml")))`, "2")
	expect(t, docs, `name(idref("i2", doc("d.xml")))`, "ref")
	expect(t, docs, `count(id("zz", doc("d.xml")))`, "0")
}

func TestBaseURIDocumentURI(t *testing.T) {
	expect(t, peopleDocs, `base-uri(doc("people.xml")//person[1])`, "people.xml")
	expect(t, peopleDocs, `document-uri(doc("people.xml"))`, "people.xml")
	expect(t, peopleDocs, `document-uri(doc("people.xml")//person[1])`, "")
	expect(t, nil, `static-base-uri()`, DefaultStatic().BaseURI)
	expect(t, nil, `default-collation()`, DefaultStatic().DefaultCollation)
	expect(t, nil, `current-dateTime()`, DefaultStatic().CurrentDateTime)
}

func TestXRPCBaseURIOverride(t *testing.T) {
	// Shipped parameter nodes carry BaseURI; xrpc:base-uri must honor it.
	d, err := xdm.ParseString("<a><b/></a>", "frag://1")
	if err != nil {
		t.Fatal(err)
	}
	d.DocElem().BaseURI = "original.xml"
	e := NewEngine(nil)
	q, err := xq.ParseQuery(`xrpc:base-uri($n/b)`)
	if err != nil {
		t.Fatal(err)
	}
	if err := xq.Normalize(q); err != nil {
		t.Fatal(err)
	}
	ctx := e.walker(e.newContext(), nil).bind("n", xdm.Singleton(xdm.Item(d.DocElem())))
	res, err := ctx.eval(q.Body)
	if err != nil {
		t.Fatal(err)
	}
	if serialize(res) != "original.xml" {
		t.Errorf("xrpc:base-uri = %s", serialize(res))
	}
}

func TestLogic(t *testing.T) {
	expect(t, nil, `fn:true() and fn:false()`, "false")
	expect(t, nil, `fn:true() or fn:false()`, "true")
	expect(t, nil, `1 = 1 and 2 = 2`, "true")
	// Short circuit: rhs error not reached.
	expect(t, nil, `fn:false() and (1 div 0 = 1)`, "false")
	expect(t, nil, `fn:true() or (1 div 0 = 1)`, "true")
}

func TestUnknownsAndErrors(t *testing.T) {
	runErr(t, nil, `$undefined`)
	runErr(t, nil, `nosuchfunction(1)`)
	runErr(t, nil, `doc("missing.xml")`)
	runErr(t, nil, `(1,2) is (1,2)`)
	runErr(t, nil, `1 union 2`)
	runErr(t, nil, `count(1, 2)`)
}

func TestDocCaching(t *testing.T) {
	e := NewEngine(peopleDocs)
	if _, err := queryString(e, `(doc("people.xml")//person[1], doc("people.xml")//person[1])`); err != nil {
		t.Fatal(err)
	}
	if e.Stats.DocsResolved != 1 {
		t.Errorf("DocsResolved = %d, want 1 (cached)", e.Stats.DocsResolved)
	}
	// The cache is the engine's, so a later query resolves nothing anew.
	if _, err := queryString(e, `doc("people.xml")`); err != nil {
		t.Fatal(err)
	}
	if e.Stats.DocsResolved != 1 {
		t.Errorf("second query DocsResolved = %d, want 1 (cached)", e.Stats.DocsResolved)
	}
}

func TestQ1LocalSemantics(t *testing.T) {
	// Table I executed entirely locally: $first is always $abc (the parent),
	// overlap always true, and //c over the loop result returns ONE c node.
	src := `
	declare function makenodes() as node() { <a><b><c/></b></a>/b };
	declare function overlap($l as node(), $r as node()) as boolean()
	{ not(empty(($l/descendant-or-self::node()) intersect ($r/descendant-or-self::node()))) };
	declare function earlier($l as node(), $r as node()) as node()
	{ if ($l << $r) then $l else $r };
	let $bc := makenodes()
	let $abc := $bc/parent::a
	return count((for $node in ($bc, $abc)
	        let $first := earlier($bc, $abc)
	        return if (overlap($first, $node)) then $node else ())//c)`
	expect(t, nil, src, "1")
}

func TestQ2StyleJoin(t *testing.T) {
	docs := mapResolver{
		"students.xml": `<people>` +
			`<person><name>tutor1</name><tutor>none</tutor><id>s1</id></person>` +
			`<person><name>stu2</name><tutor>tutor1</tutor><id>s2</id></person>` +
			`</people>`,
		"course42.xml": `<enroll>` +
			`<exam id="s1"><grade>A</grade></exam>` +
			`<exam id="s2"><grade>B</grade></exam>` +
			`</enroll>`,
	}
	src := `
	(let $s := doc("students.xml")/child::people/child::person return
	 let $c := doc("course42.xml") return
	 let $t := for $x in $s return
	           if ($x/child::tutor = $s/child::name) then $x else ()
	 return for $e in $c/child::enroll/child::exam return
	        if ($e/attribute::id = $t/child::id) then $e else ())/child::grade`
	expect(t, docs, src, "<grade>B</grade>")
}

func TestBulkRPCPathThroughFake(t *testing.T) {
	// A for-loop whose body is exactly a remote call uses one bulk call.
	src := `
	declare function f($x as xs:integer) as xs:integer { $x * 2 };
	for $i in (1,2,3) return execute at {"peerA"} { f($i) }`
	for _, r := range dispatchBoth(t, nil, src, func() *fakeRemote { return &fakeRemote{} }, nil) {
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.remote.bulkCalls != 1 || r.remote.singleCalls != 0 {
			t.Errorf("bulk=%d single=%d, want 1/0", r.remote.bulkCalls, r.remote.singleCalls)
		}
		if r.res != "2 4 6" {
			t.Errorf("bulk result = %s", r.res)
		}
	}
}

func TestSingleRPCThroughFake(t *testing.T) {
	src := `
	declare function f($x as xs:integer) as xs:integer { $x * 2 };
	let $r := execute at {"peerA"} { f(21) } return $r`
	for _, r := range dispatchBoth(t, nil, src, func() *fakeRemote { return &fakeRemote{} }, nil) {
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.remote.singleCalls != 1 {
			t.Errorf("single calls = %d", r.remote.singleCalls)
		}
		if r.res != "42" {
			t.Errorf("result = %s", r.res)
		}
	}
}

// fakeRemote emulates transparent remote peers in process: a call evaluates
// the shipped body locally, its parameters bound, over docs and bounded by
// deadline, and every call to a peer in failPeers faults. It records the
// calls it served.
type fakeRemote struct {
	docs      Resolver
	deadline  time.Time
	failPeers map[string]bool

	mu                                   sync.Mutex // streamed lanes evaluate concurrently
	singleCalls, bulkCalls, scatterCalls int
	batches                              []ScatterBatch // of the last scatter
}

func (f *fakeRemote) CallRemote(target string, x *xq.XRPCExpr, params []xdm.Sequence) (xdm.Sequence, error) {
	f.mu.Lock()
	f.singleCalls++
	f.mu.Unlock()
	if f.failPeers[target] {
		return nil, fmt.Errorf("peer %s down", target)
	}
	return f.evalShipped(x, params)
}

func (f *fakeRemote) CallRemoteBulk(target string, x *xq.XRPCExpr, iterations [][]xdm.Sequence) ([]xdm.Sequence, error) {
	f.mu.Lock()
	f.bulkCalls++
	f.mu.Unlock()
	return f.serveBatch(target, x, iterations)
}

func (f *fakeRemote) CallRemoteScatter(x *xq.XRPCExpr, batches []ScatterBatch, sink ScatterSink) []error {
	f.mu.Lock()
	f.scatterCalls++
	f.batches = batches
	f.mu.Unlock()
	errs := make([]error, len(batches))
	for b, batch := range batches {
		results, err := f.serveBatch(batch.Target, x, batch.Iterations)
		for k := 0; err == nil && k < len(results); k++ {
			err = sink.Place(b, k, results[k])
		}
		errs[b] = err
	}
	return errs
}

func (f *fakeRemote) serveBatch(target string, x *xq.XRPCExpr, iterations [][]xdm.Sequence) ([]xdm.Sequence, error) {
	if f.failPeers[target] {
		return nil, fmt.Errorf("peer %s down", target)
	}
	out := make([]xdm.Sequence, len(iterations))
	for i, params := range iterations {
		r, err := f.evalShipped(x, params)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

func (f *fakeRemote) evalShipped(x *xq.XRPCExpr, params []xdm.Sequence) (xdm.Sequence, error) {
	e := NewEngine(f.docs)
	e.Deadline = f.deadline
	ctx := e.walker(e.newContext(), nil)
	for i, p := range x.Params {
		ctx = ctx.bind(p.Name, params[i])
	}
	return ctx.eval(x.Body)
}
