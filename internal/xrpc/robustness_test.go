package xrpc

import (
	"fmt"
	"strings"
	"testing"

	"distxq/internal/eval"
	"distxq/internal/projection"
	"distxq/internal/testkit"
	"distxq/internal/xdm"
	"distxq/internal/xq"
)

// TestMalformedRequests injects broken messages into the server and checks
// every one surfaces as an error instead of a panic or silent misbehavior.
func TestMalformedRequests(t *testing.T) {
	srv := newPeer(nil)
	cases := map[string]string{
		"not xml":          `garbage{{{`,
		"not soap":         `<hello/>`,
		"no body":          `<env:Envelope xmlns:env="urn:e"/>`,
		"no request":       `<env:Envelope xmlns:env="urn:e"><env:Body/></env:Envelope>`,
		"no calls":         `<env:Envelope xmlns:env="urn:e" xmlns:xrpc="urn:x"><env:Body><xrpc:request method="f" arity="0" semantics="by-value"><xrpc:module>declare function f() as item()* { 1 };</xrpc:module></xrpc:request></env:Body></env:Envelope>`,
		"bad semantics":    `<env:Envelope xmlns:env="urn:e" xmlns:xrpc="urn:x"><env:Body><xrpc:request method="f" arity="0" semantics="by-magic"><xrpc:call/></xrpc:request></env:Body></env:Envelope>`,
		"arity mismatch":   `<env:Envelope xmlns:env="urn:e" xmlns:xrpc="urn:x"><env:Body><xrpc:request method="f" arity="2" semantics="by-value"><xrpc:module>m</xrpc:module><xrpc:call><xrpc:sequence/></xrpc:call></xrpc:request></env:Body></env:Envelope>`,
		"bad module":       `<env:Envelope xmlns:env="urn:e" xmlns:xrpc="urn:x"><env:Body><xrpc:request method="f" arity="0" semantics="by-value"><xrpc:module>((((</xrpc:module><xrpc:call/></xrpc:request></env:Body></env:Envelope>`,
		"unknown function": `<env:Envelope xmlns:env="urn:e" xmlns:xrpc="urn:x"><env:Body><xrpc:request method="ghost" arity="0" semantics="by-value"><xrpc:module>declare function f() as item()* { 1 };</xrpc:module><xrpc:call/></xrpc:request></env:Body></env:Envelope>`,
		"bad fragid":       `<env:Envelope xmlns:env="urn:e" xmlns:xrpc="urn:x"><env:Body><xrpc:request method="f" arity="1" semantics="by-fragment"><xrpc:module>declare function f($a as item()*) as item()* { $a };</xrpc:module><xrpc:fragments/><xrpc:call><xrpc:sequence><xrpc:element fragid="9" nodeid="1"/></xrpc:sequence></xrpc:call></xrpc:request></env:Body></env:Envelope>`,
		"bad nodeid":       `<env:Envelope xmlns:env="urn:e" xmlns:xrpc="urn:x"><env:Body><xrpc:request method="f" arity="1" semantics="by-fragment"><xrpc:module>declare function f($a as item()*) as item()* { $a };</xrpc:module><xrpc:fragments><xrpc:fragment base-uri="u"><a/></xrpc:fragment></xrpc:fragments><xrpc:call><xrpc:sequence><xrpc:element fragid="1" nodeid="99"/></xrpc:sequence></xrpc:call></xrpc:request></env:Body></env:Envelope>`,
		"bad atomic":       `<env:Envelope xmlns:env="urn:e" xmlns:xrpc="urn:x"><env:Body><xrpc:request method="f" arity="1" semantics="by-value"><xrpc:module>declare function f($a as item()*) as item()* { $a };</xrpc:module><xrpc:call><xrpc:sequence><xrpc:atomic-value type="xs:integer">not-a-number</xrpc:atomic-value></xrpc:sequence></xrpc:call></xrpc:request></env:Body></env:Envelope>`,
	}
	for name, msg := range cases {
		if _, err := srv.Handle([]byte(msg)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestMalformedResponses(t *testing.T) {
	for name, msg := range map[string]string{
		"not xml":     `<<<`,
		"no response": `<env:Envelope xmlns:env="urn:e"><env:Body/></env:Envelope>`,
		"bad ref": `<env:Envelope xmlns:env="urn:e" xmlns:xrpc="urn:x"><env:Body>` +
			`<xrpc:response semantics="by-fragment"><xrpc:fragments/>` +
			`<xrpc:call><xrpc:sequence><xrpc:element fragid="1" nodeid="1"/></xrpc:sequence></xrpc:call>` +
			`</xrpc:response></env:Body></env:Envelope>`,
	} {
		if _, err := ParseResponse([]byte(msg)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// TestAttributeRefMissingName covers the reference-resolution error path for
// attributes whose name attribute is absent or wrong.
func TestAttributeRefMissingName(t *testing.T) {
	msg := `<env:Envelope xmlns:env="urn:e" xmlns:xrpc="urn:x"><env:Body>` +
		`<xrpc:request method="f" arity="1" semantics="by-fragment">` +
		`<xrpc:module>declare function f($a as item()*) as item()* { $a };</xrpc:module>` +
		`<xrpc:fragments><xrpc:fragment base-uri="u"><a x="1"/></xrpc:fragment></xrpc:fragments>` +
		`<xrpc:call><xrpc:sequence><xrpc:attribute fragid="1" nodeid="1" name="zz"/></xrpc:sequence></xrpc:call>` +
		`</xrpc:request></env:Body></env:Envelope>`
	if _, err := ParseRequest([]byte(msg)); err == nil || !strings.Contains(err.Error(), "zz") {
		t.Errorf("missing attribute should error with its name, got %v", err)
	}
}

// TestBulkMixedResults checks bulk responses where calls return node and
// atomic results of different shapes.
func TestBulkMixedResults(t *testing.T) {
	docs := mapResolver{"d.xml": `<r><a>1</a><b>2</b></r>`}
	eng, cl := wire(t, ByFragment, map[string]*Server{"p": newPeer(docs)})
	src := `
	declare function f($n as xs:string) as item()*
	{ if ($n = "a") then doc("d.xml")//a else if ($n = "num") then 42 else () };
	for $x in ("a", "num", "none", "a") return execute at {"p"} { f($x) }`
	res, err := testkit.Query(eng, src)
	if err != nil {
		t.Fatal(err)
	}
	if got := serialize(res); got != "<a>1</a> 42 <a>1</a>" {
		t.Errorf("bulk mixed = %s", got)
	}
	if cl.Metrics.Snapshot().Requests != 1 {
		t.Errorf("one bulk message expected")
	}
}

// TestResultIdentityWithinOneResponse: two references to the same node in a
// single response resolve to ONE decoded node under by-fragment (Problem 2
// on the result side), and references to two nodes resolve to two.
func TestResultIdentityWithinOneResponse(t *testing.T) {
	docs := mapResolver{"d.xml": `<r><x/></r>`}
	src := `
	declare function twice() as item()*
	{ let $n := doc("d.xml")//x return ($n, $n) };
	let $r := execute at {"p"} { twice() }
	return ($r[1] is $r[2])`
	for _, tc := range []struct {
		sem  Semantics
		want string
	}{
		{ByValue, "false"}, // separate copies: Problem 2
		{ByFragment, "true"},
		{ByProjection, "true"},
	} {
		eng, cl := wire(t, tc.sem, map[string]*Server{"p": newPeer(docs)})
		q := mustQuery(t, src)
		if tc.sem == ByProjection {
			planProjection(t, q, cl)
		}
		res, err := eng.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", tc.sem, err)
		}
		if got := serialize(res); got != tc.want {
			t.Errorf("%s: identity within response = %s, want %s", tc.sem, got, tc.want)
		}
	}

	// Projection prunes <b/>, which leaves the two shipped texts adjacent in
	// D′; they must still decode as the two nodes by-fragment ships.
	d := testkit.MustParseString(`<a>x<b/>y</a>`, "texts.xml")
	a := d.DocElem()
	texts := xdm.Sequence{a.Children[0], a.Children[2]}
	for _, sem := range []Semantics{ByFragment, ByProjection} {
		data, err := MarshalResponse(&Response{Semantics: sem, Results: []xdm.Sequence{texts}}, nil, nil, projection.Options{})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ParseResponse(data)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, it := range resp.Results[0] {
			got = append(got, it.(*xdm.Node).Text)
		}
		if fmt.Sprint(got) != "[x y]" || resp.Results[0][0] == resp.Results[0][1] {
			t.Errorf("%s: two shipped texts decode as %q", sem, got)
		}
	}
}

func mustQuery(t *testing.T, src string) *xq.Query {
	t.Helper()
	q, err := xq.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestProjectionPathsSurviveMessageRoundTrip: the projection-paths element
// carries Table V paths faithfully.
func TestProjectionPathsSurviveMessageRoundTrip(t *testing.T) {
	used, _ := projection.ParsePath(`child::seller/attribute::person`)
	ret, _ := projection.ParsePath(`parent::a/root()`)
	req := &Request{
		Method: "f", Arity: 0, Semantics: ByProjection, Module: "m",
		Static:         eval.DefaultStatic(),
		ResultUsed:     projection.PathSet{used},
		ResultReturned: projection.PathSet{ret},
		Calls:          [][]xdm.Sequence{{}},
	}
	data, err := MarshalRequest(req, nil, nil, projection.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseRequest(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.ResultUsed.String() != req.ResultUsed.String() ||
		got.ResultReturned.String() != req.ResultReturned.String() {
		t.Errorf("paths changed: used %s→%s returned %s→%s",
			req.ResultUsed, got.ResultUsed, req.ResultReturned, got.ResultReturned)
	}
}
