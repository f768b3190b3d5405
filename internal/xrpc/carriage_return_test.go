package xrpc

import (
	"strings"
	"testing"

	"distxq/internal/eval"
	"distxq/internal/projection"
	"distxq/internal/testkit"
	"distxq/internal/xdm"
)

// crItems is one of each place a carriage return can sit in an item: an
// xs:string, a text node and an attribute value, the nodes inside one
// element whose serialization carries both.
func crItems(t *testing.T) xdm.Sequence {
	t.Helper()
	d := testkit.MustParseString(`<r><c x="x&#13;y">t&#13;u</c></r>`, "mem://cr.xml")
	c := d.DocElem().Children[0]
	if c.Attr("x").Text != "x\ry" || c.Children[0].Text != "t\ru" {
		t.Fatalf("fixture: %q %q", c.Attr("x").Text, c.Children[0].Text)
	}
	return xdm.Sequence{xdm.NewString("a\rb"), c.Children[0], c.Attr("x"), c, xdm.NewUntyped("\r\n\r")}
}

// sameCRItems checks that decoded items carry the carriage returns of the
// items sent.
func sameCRItems(t *testing.T, what string, got, want xdm.Sequence) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d items, want %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		switch w := w.(type) {
		case xdm.Atomic:
			if g, ok := g.(xdm.Atomic); !ok || g != w {
				t.Errorf("%s item %d: %#v, want %#v", what, i, g, w)
			}
		case *xdm.Node:
			g, ok := g.(*xdm.Node)
			if !ok || g.Kind != w.Kind || g.StringValue() != w.StringValue() ||
				xdm.SerializeString(g) != xdm.SerializeString(w) {
				t.Errorf("%s item %d: %v, want %s %q", what, i, g, w.Kind, w.StringValue())
			}
		}
	}
}

// TestCarriageReturnsSurviveTheWire: a carriage return in a string, a text
// node or an attribute value travels as &#13; and decodes as itself, in
// requests, responses and chunk frames, by value, by fragment and by
// projection — a literal one would decode as a newline.
func TestCarriageReturnsSurviveTheWire(t *testing.T) {
	items := crItems(t)
	for _, sem := range []Semantics{ByValue, ByFragment, ByProjection} {
		data, err := MarshalRequest(&Request{Method: "f", Arity: 1, Semantics: sem, Module: "m\r",
			Calls: [][]xdm.Sequence{{items}}}, nil, nil, projection.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if strings.IndexByte(string(data), '\r') >= 0 {
			t.Errorf("%s request carries a literal carriage return", sem)
		}
		req, err := ParseRequest(data)
		if err != nil {
			t.Fatal(err)
		}
		if req.Module != "m\r" {
			t.Errorf("%s: module %q", sem, req.Module)
		}
		sameCRItems(t, sem.String()+" request", req.Calls[0][0], items)

		resp := &Response{Semantics: sem, Results: []xdm.Sequence{items}}
		data, err = MarshalResponse(resp, nil, nil, projection.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := ParseResponse(data)
		if err != nil {
			t.Fatal(err)
		}
		sameCRItems(t, sem.String()+" response", got.Results[0], items)

		var streamed xdm.Sequence
		err = MarshalResponseStream(resp, len(items), nil, nil, projection.Options{}, func(frame []byte) error {
			ch, err := ParseResponseChunk(frame)
			streamed = append(streamed, ch.Items...)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		sameCRItems(t, sem.String()+" chunks", streamed, items)
	}
}

// TestCarriageReturnsDistributedMatchLocal: a remote call returns what the
// same function returns locally, carriage returns included, under every
// passing semantics.
func TestCarriageReturnsDistributedMatchLocal(t *testing.T) {
	docs := mapResolver{"d.xml": `<r><c x="x&#13;y">t&#13;u</c></r>`}
	fn := "declare function f() as item()* { let $c := doc(\"d.xml\")//c return ($c, $c/@x, $c/text(), \"a\rb\", string($c)) };\n"
	want, err := testkit.Query(eval.NewEngine(docs), fn+"f()")
	if err != nil {
		t.Fatal(err)
	}
	if s := want[3].(xdm.Atomic).S; s != "a\rb" {
		t.Fatalf("local string literal: %q", s)
	}
	for _, sem := range []Semantics{ByValue, ByFragment, ByProjection} {
		eng, cl := wire(t, sem, map[string]*Server{"p": newPeer(docs)})
		q := mustQuery(t, fn+`execute at {"p"} { f() }`)
		if sem == ByProjection {
			planProjection(t, q, cl)
		}
		got, err := eng.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", sem, err)
		}
		sameCRItems(t, sem.String()+" remote", got, want)
	}
}
