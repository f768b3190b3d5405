package xrpc

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"distxq/internal/eval"
	"distxq/internal/projection"
	"distxq/internal/testkit"
	"distxq/internal/xdm"
	"distxq/internal/xq"
)

type mapResolver map[string]string

func (m mapResolver) ResolveDoc(uri string) (*xdm.Document, error) {
	s, ok := m[uri]
	if !ok {
		return nil, fmt.Errorf("no such document %q", uri)
	}
	return xdm.ParseString(s, uri)
}

// newPeer wires a server around a local engine.
func newPeer(docs mapResolver) *Server {
	return &Server{Engine: eval.NewEngine(docs)}
}

// wire builds a client engine whose execute-at calls reach the given peers
// over the in-memory transport under the chosen semantics.
func wire(t *testing.T, sem Semantics, peers map[string]*Server) (*eval.Engine, *Client) {
	t.Helper()
	tr := NewInMemoryTransport()
	for name, srv := range peers {
		tr.Register(name, srv)
	}
	cl := &Client{
		Transport: tr,
		Semantics: sem,
		Static:    eval.DefaultStatic(),
		Relatives: map[*xq.XRPCExpr]projection.RelativePaths{},
		Metrics:   &Metrics{},
	}
	eng := eval.NewEngine(nil)
	eng.Remote = cl
	return eng, cl
}

// planProjection fills the client's Relatives from a path analysis, the job
// the core planner performs in the full pipeline.
func planProjection(t *testing.T, q *xq.Query, cl *Client) {
	t.Helper()
	if err := xq.Normalize(q); err != nil {
		t.Fatal(err)
	}
	a, err := projection.Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	xq.Walk(q.Body, func(e xq.Expr) bool {
		if x, ok := e.(*xq.XRPCExpr); ok {
			cl.Relatives[x] = a.Relative(x, q.Body)
		}
		return true
	})
}

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

func TestRequestRoundTripAtomics(t *testing.T) {
	req := &Request{
		Method: "f", Arity: 3, Semantics: ByValue,
		Module: `declare function f($a as item()*, $b as item()*, $c as item()*) as item()* { ($a,$b,$c) };`,
		Static: eval.DefaultStatic(),
		Calls: [][]xdm.Sequence{{
			xdm.Singleton(xdm.NewInteger(42)),
			xdm.Singleton(xdm.NewString("hi <&>")),
			{xdm.NewBoolean(true), xdm.NewDouble(2.5)},
		}},
	}
	data, err := MarshalRequest(req, nil, nil, projection.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseRequest(data)
	if err != nil {
		t.Fatalf("parse: %v\nmessage: %s", err, data)
	}
	if got.Method != "f" || got.Arity != 3 || got.Semantics != ByValue {
		t.Errorf("header: %+v", got)
	}
	if got.Static != req.Static {
		t.Errorf("static context: %+v", got.Static)
	}
	if len(got.Calls) != 1 || len(got.Calls[0]) != 3 {
		t.Fatalf("calls: %d", len(got.Calls))
	}
	if got.Calls[0][0][0].(xdm.Atomic).I != 42 {
		t.Error("integer param")
	}
	if got.Calls[0][1][0].(xdm.Atomic).S != "hi <&>" {
		t.Error("string param escaping")
	}
	if b := got.Calls[0][2]; len(b) != 2 || !b[0].(xdm.Atomic).B || b[1].(xdm.Atomic).F != 2.5 {
		t.Errorf("mixed sequence: %v", b)
	}
}

func TestRequestRoundTripByValueNodes(t *testing.T) {
	d := testkit.MustParseString(`<a x="1"><b>t</b></a>`, "orig.xml")
	req := &Request{
		Method: "f", Arity: 2, Semantics: ByValue, Module: "m", Static: eval.DefaultStatic(),
		Calls: [][]xdm.Sequence{{
			xdm.Singleton(d.DocElem()),
			xdm.Singleton(d.DocElem().Attr("x")),
		}},
	}
	data, err := MarshalRequest(req, nil, nil, projection.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseRequest(data)
	if err != nil {
		t.Fatal(err)
	}
	n := got.Calls[0][0][0].(*xdm.Node)
	if xdm.SerializeString(n) != `<a x="1"><b>t</b></a>` {
		t.Errorf("copied node = %s", xdm.SerializeString(n))
	}
	if n == d.DocElem() {
		t.Error("by-value must copy")
	}
	if n.BaseURI != "orig.xml" {
		t.Errorf("base-uri = %q", n.BaseURI)
	}
	a := got.Calls[0][1][0].(*xdm.Node)
	if a.Kind != xdm.AttributeNode || a.Name != "x" || a.Text != "1" {
		t.Errorf("attr copy = %+v", a)
	}
}

func TestByFragmentSharedFragmentFig4(t *testing.T) {
	// The Fig. 4 scenario: $abc = <a><b><c/></b></a>, $bc = its b child.
	// One fragment; $bc gets nodeid 2, $abc nodeid 1.
	d := testkit.MustParseString(`<a><b><c/></b></a>`, "makenodes")
	abc := d.DocElem()
	bc := abc.Children[0]
	req := &Request{
		Method: "earlier", Arity: 2, Semantics: ByFragment, Module: "m",
		Static: eval.DefaultStatic(),
		Calls:  [][]xdm.Sequence{{xdm.Singleton(bc), xdm.Singleton(abc)}},
	}
	data, err := MarshalRequest(req, nil, nil, projection.Options{})
	if err != nil {
		t.Fatal(err)
	}
	msg := string(data)
	if strings.Count(msg, "<xrpc:fragment ") != 1 {
		t.Errorf("want exactly one fragment:\n%s", msg)
	}
	if !strings.Contains(msg, `fragid="1" nodeid="2"`) || !strings.Contains(msg, `fragid="1" nodeid="1"`) {
		t.Errorf("fragment refs missing:\n%s", msg)
	}
	got, err := ParseRequest(data)
	if err != nil {
		t.Fatal(err)
	}
	gotBC := got.Calls[0][0][0].(*xdm.Node)
	gotABC := got.Calls[0][1][0].(*xdm.Node)
	if gotABC.Name != "a" || gotBC.Name != "b" {
		t.Fatalf("decoded names: %s, %s", gotBC.Name, gotABC.Name)
	}
	// Structural relationships within the message are preserved:
	if gotBC.Parent != gotABC {
		t.Error("by-fragment must preserve the parent relationship")
	}
	if xdm.Compare(gotABC, gotBC) >= 0 {
		t.Error("document order must be preserved ($abc << $bc)")
	}
	if len(got.fragDocs) != 1 {
		t.Error("one shared fragment document expected")
	}
}

func TestByFragmentDisjointNodesSeparateFragments(t *testing.T) {
	d := testkit.MustParseString(`<r><x>1</x><y>2</y></r>`, "two.xml")
	x := d.DocElem().Children[0]
	y := d.DocElem().Children[1]
	req := &Request{
		Method: "f", Arity: 2, Semantics: ByFragment, Module: "m",
		Static: eval.DefaultStatic(),
		Calls:  [][]xdm.Sequence{{xdm.Singleton(x), xdm.Singleton(y)}},
	}
	data, err := MarshalRequest(req, nil, nil, projection.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(string(data), "<xrpc:fragment ") != 2 {
		t.Errorf("disjoint nodes need two fragments:\n%s", data)
	}
	got, err := ParseRequest(data)
	if err != nil {
		t.Fatal(err)
	}
	gx := got.Calls[0][0][0].(*xdm.Node)
	gy := got.Calls[0][1][0].(*xdm.Node)
	// Fragments are ordered in original document order, so order between
	// parameters is still correct even across fragments.
	if xdm.Compare(gx, gy) >= 0 {
		t.Error("cross-fragment document order must follow original order")
	}
}

func TestByFragmentAttributeParam(t *testing.T) {
	d := testkit.MustParseString(`<p id="7"><sub/></p>`, "attr.xml")
	idAttr := d.DocElem().Attr("id")
	req := &Request{
		Method: "f", Arity: 1, Semantics: ByFragment, Module: "m",
		Static: eval.DefaultStatic(),
		Calls:  [][]xdm.Sequence{{xdm.Singleton(idAttr)}},
	}
	data, err := MarshalRequest(req, nil, nil, projection.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `name="id"`) {
		t.Errorf("attribute ref must carry the name:\n%s", data)
	}
	got, err := ParseRequest(data)
	if err != nil {
		t.Fatal(err)
	}
	a := got.Calls[0][0][0].(*xdm.Node)
	if a.Kind != xdm.AttributeNode || a.Text != "7" {
		t.Errorf("decoded attribute: %+v", a)
	}
}

func TestEndToEndProblem3Earlier(t *testing.T) {
	// earlier($bc,$abc) must return $abc under by-fragment (order kept) but
	// returns the $bc copy under by-value (Problem 3).
	src := `
	declare function earlier($l as node(), $r as node()) as node()
	{ if ($l << $r) then $l else $r };
	let $abc := <a><b><c/></b></a>
	let $bc := $abc/b
	return execute at {"peer"} { earlier($bc, $abc) }`
	for _, tc := range []struct {
		sem  Semantics
		want string
	}{
		{ByValue, "<b><c/></b>"},             // wrong: copy of $bc
		{ByFragment, "<a><b><c/></b></a>"},   // correct: $abc
		{ByProjection, "<a><b><c/></b></a>"}, // correct: $abc
	} {
		eng, cl := wire(t, tc.sem, map[string]*Server{"peer": newPeer(nil)})
		q := testkit.MustParseQuery(src)
		if tc.sem == ByProjection {
			planProjection(t, q, cl)
		}
		res, err := eng.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", tc.sem, err)
		}
		if got := serialize(res); got != tc.want {
			t.Errorf("%s: earlier() = %s, want %s", tc.sem, got, tc.want)
		}
	}
}

func TestEndToEndProblem2Overlap(t *testing.T) {
	// overlap($abc,$bc) is true locally; by-value separates the copies so it
	// is false (Problem 2); by-fragment preserves identity, so true.
	src := `
	declare function overlap($l as node(), $r as node()) as item()*
	{ not(empty(($l/descendant-or-self::node()) intersect ($r/descendant-or-self::node()))) };
	let $abc := <a><b><c/></b></a>
	let $bc := $abc/b
	return execute at {"peer"} { overlap($abc, $bc) }`
	for _, tc := range []struct {
		sem  Semantics
		want string
	}{
		{ByValue, "false"},
		{ByFragment, "true"},
		{ByProjection, "true"},
	} {
		eng, cl := wire(t, tc.sem, map[string]*Server{"peer": newPeer(nil)})
		q := testkit.MustParseQuery(src)
		if tc.sem == ByProjection {
			planProjection(t, q, cl)
		}
		res, err := eng.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", tc.sem, err)
		}
		if got := serialize(res); got != tc.want {
			t.Errorf("%s: overlap = %s, want %s", tc.sem, got, tc.want)
		}
	}
}

func TestEndToEndProblem1ParentNavigation(t *testing.T) {
	// $bc := execute at {peer} {makenodes()}; $bc/parent::a is empty under
	// by-value and by-fragment (the response ships only the b subtree), but
	// by-projection detects the parent::a returned path and ships the full
	// fragment (Fig. 5), making the parent step work.
	src := `
	declare function makenodes() as node() { <a><b><c/></b></a>/b };
	let $bc := execute at {"peer"} { makenodes() }
	return count($bc/parent::a)`
	for _, tc := range []struct {
		sem  Semantics
		want string
	}{
		{ByValue, "0"},
		{ByFragment, "0"},
		{ByProjection, "1"},
	} {
		eng, cl := wire(t, tc.sem, map[string]*Server{"peer": newPeer(nil)})
		q := testkit.MustParseQuery(src)
		if tc.sem == ByProjection {
			planProjection(t, q, cl)
		}
		res, err := eng.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", tc.sem, err)
		}
		if got := serialize(res); got != tc.want {
			t.Errorf("%s: count(parent) = %s, want %s", tc.sem, got, tc.want)
		}
	}
}

func TestEndToEndRemoteDocQuery(t *testing.T) {
	docs := mapResolver{"depts.xml": `<depts><dept name="hr"/><dept name="it"/></depts>`}
	src := `
	declare function fcn($n as xs:string) as item()*
	{ $n = doc("depts.xml")//dept/@name };
	(execute at {"example.org"} { fcn("it") },
	 execute at {"example.org"} { fcn("legal") })`
	eng, _ := wire(t, ByValue, map[string]*Server{"example.org": newPeer(docs)})
	res, err := testkit.Query(eng, src)
	if err != nil {
		t.Fatal(err)
	}
	if serialize(res) != "true false" {
		t.Errorf("remote predicate = %s", serialize(res))
	}
}

func TestBulkRPCOneMessage(t *testing.T) {
	docs := mapResolver{"depts.xml": `<depts><dept name="a"/><dept name="b"/></depts>`}
	srv := newPeer(docs)
	eng, cl := wire(t, ByFragment, map[string]*Server{"p": srv})
	src := `
	declare function fcn($n as xs:string) as item()*
	{ $n = doc("depts.xml")//dept/@name };
	for $x in ("a","b","zz","b") return execute at {"p"} { fcn($x) }`
	res, err := testkit.Query(eng, src)
	if err != nil {
		t.Fatal(err)
	}
	if serialize(res) != "true true false true" {
		t.Errorf("bulk results = %s", serialize(res))
	}
	m := cl.Metrics.Snapshot()
	if m.Requests != 1 {
		t.Errorf("bulk loop should use 1 message, used %d", m.Requests)
	}
}

func TestStaticContextPropagation(t *testing.T) {
	srv := newPeer(nil)
	eng, cl := wire(t, ByValue, map[string]*Server{"p": srv})
	cl.Static = eval.StaticContext{
		BaseURI:          "caller://base",
		DefaultCollation: "caller://collation",
		CurrentDateTime:  "2009-06-15T12:00:00Z",
	}
	src := `
	declare function ctx() as item()*
	{ (static-base-uri(), default-collation(), current-dateTime()) };
	execute at {"p"} { ctx() }`
	res, err := testkit.Query(eng, src)
	if err != nil {
		t.Fatal(err)
	}
	want := "caller://base caller://collation 2009-06-15T12:00:00Z"
	if serialize(res) != want {
		t.Errorf("remote static context = %s, want %s", serialize(res), want)
	}
}

func TestRemoteFaultSurfacesAsError(t *testing.T) {
	eng, _ := wire(t, ByValue, map[string]*Server{"p": newPeer(nil)})
	src := `
	declare function boom() as item()* { doc("missing.xml") };
	execute at {"p"} { boom() }`
	if _, err := testkit.Query(eng, src); err == nil {
		t.Fatal("expected remote error")
	} else if !strings.Contains(err.Error(), "missing.xml") {
		t.Errorf("error should carry cause: %v", err)
	}
}

func TestUnknownPeer(t *testing.T) {
	eng, _ := wire(t, ByValue, map[string]*Server{})
	src := `declare function f() as item()* { 1 }; execute at {"ghost"} { f() }`
	if _, err := testkit.Query(eng, src); err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Errorf("unknown peer should fail, got %v", err)
	}
}

func TestHTTPTransportEndToEnd(t *testing.T) {
	docs := mapResolver{"d.xml": `<r><v>7</v></r>`}
	hs := httptest.NewServer(NewHTTPHandler(newPeer(docs)))
	defer hs.Close()
	tr := &HTTPTransport{URLFor: func(peer string) string { return hs.URL + "/xrpc" }}
	cl := &Client{Transport: tr, Semantics: ByFragment, Static: eval.DefaultStatic(), Metrics: &Metrics{}}
	eng := eval.NewEngine(nil)
	eng.Remote = cl
	src := `
	declare function f() as item()* { doc("d.xml")//v };
	execute at {"whatever"} { f() }`
	res, err := testkit.Query(eng, src)
	if err != nil {
		t.Fatal(err)
	}
	if serialize(res) != "<v>7</v>" {
		t.Errorf("HTTP result = %s", serialize(res))
	}
	if cl.Metrics.Snapshot().BytesSent == 0 || cl.Metrics.Snapshot().BytesReceived == 0 {
		t.Error("metrics must count HTTP bytes")
	}
}

func TestHTTPTransportFault(t *testing.T) {
	hs := httptest.NewServer(NewHTTPHandler(newPeer(nil)))
	defer hs.Close()
	tr := &HTTPTransport{URLFor: func(peer string) string { return hs.URL + "/xrpc" }}
	cl := &Client{Transport: tr, Semantics: ByValue, Static: eval.DefaultStatic()}
	eng := eval.NewEngine(nil)
	eng.Remote = cl
	src := `declare function f() as item()* { doc("nope.xml") }; execute at {"x"} { f() }`
	_, err := testkit.Query(eng, src)
	var fault *Fault
	if err == nil {
		t.Fatal("expected fault")
	}
	if !asFault(err, &fault) {
		t.Errorf("expected *Fault, got %T: %v", err, err)
	}
}

func asFault(err error, out **Fault) bool {
	for err != nil {
		if f, ok := err.(*Fault); ok {
			*out = f
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

func TestProjectionShrinksMessages(t *testing.T) {
	// A parameter with a large untouched payload: projection must ship less.
	big := strings.Repeat("<filler>xxxxxxxxxxxxxxxx</filler>", 50)
	doc := testkit.MustParseString(`<people><person><id>1</id>`+big+`</person></people>`, "big.xml")
	person := doc.DocElem().Children[0]

	src := `
	declare function f($p as node()*) as item()* { $p/id/text() };
	let $t := $in
	return execute at {"peer"} { f($t) }`
	_ = src
	// Build the XRPC expr by hand-wiring a query that binds $in… simpler:
	// construct the query around a doc the client engine can resolve.
	docs := mapResolver{"big.xml": xdm.SerializeString(doc.Root)}
	full := `
	declare function f($p as node()*) as item()* { $p/child::id };
	let $t := doc("big.xml")/child::people/child::person
	return execute at {"peer"} { f($t) }`

	sizes := map[Semantics]int64{}
	for _, sem := range []Semantics{ByFragment, ByProjection} {
		srv := newPeer(nil)
		tr := NewInMemoryTransport()
		tr.Register("peer", srv)
		cl := &Client{Transport: tr, Semantics: sem, Static: eval.DefaultStatic(),
			Relatives: map[*xq.XRPCExpr]projection.RelativePaths{}, Metrics: &Metrics{}}
		eng := eval.NewEngine(docs)
		eng.Remote = cl
		q := testkit.MustParseQuery(full)
		if sem == ByProjection {
			planProjection(t, q, cl)
		}
		res, err := eng.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", sem, err)
		}
		if !strings.Contains(serialize(res), "<id>1</id>") {
			t.Errorf("%s: result = %s", sem, serialize(res))
		}
		sizes[sem] = cl.Metrics.Snapshot().BytesSent
	}
	if sizes[ByProjection] >= sizes[ByFragment] {
		t.Errorf("projection request (%d B) should be smaller than fragment request (%d B)",
			sizes[ByProjection], sizes[ByFragment])
	}
	if sizes[ByFragment] < int64(len(big)) {
		t.Errorf("fragment request should carry the filler (%d B < %d B)", sizes[ByFragment], len(big))
	}
	_ = person
}

func TestResponseRoundTripEmptyAndMultiResult(t *testing.T) {
	resp := &Response{
		Semantics: ByValue,
		Results: []xdm.Sequence{
			{},
			xdm.Singleton(xdm.NewInteger(1)),
		},
		ExecNanos: 123,
	}
	data, err := MarshalResponse(resp, nil, nil, projection.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseResponse(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != 2 || len(got.Results[0]) != 0 || len(got.Results[1]) != 1 {
		t.Errorf("results: %+v", got.Results)
	}
	if got.ExecNanos != 123 {
		t.Errorf("exec-ns = %d", got.ExecNanos)
	}
}

func TestSemanticsParse(t *testing.T) {
	for _, s := range []Semantics{ByValue, ByFragment, ByProjection} {
		got, err := ParseSemantics(s.String())
		if err != nil || got != s {
			t.Errorf("ParseSemantics(%s) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseSemantics("bogus"); err == nil {
		t.Error("bogus semantics must error")
	}
}

func TestMarshalFaultParse(t *testing.T) {
	data := MarshalFault(fmt.Errorf("kaboom"))
	_, err := ParseResponse(data)
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Errorf("fault parse: %v", err)
	}
}
