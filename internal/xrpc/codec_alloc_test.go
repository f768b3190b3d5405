package xrpc

import (
	"fmt"
	"strings"
	"testing"

	"distxq/internal/eval"
	"distxq/internal/projection"
	"distxq/internal/xdm"
)

// scatterResponse is the shape one lane of the scatter workload answers
// with: n disjoint result elements of one document, shipped by fragment.
func scatterResponse(t testing.TB, n int) *Response {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("<people>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, `<person id="person%d"><name>Name %d and Co</name><age>%d</age></person>`, i, i, 18+i)
	}
	sb.WriteString("</people>")
	doc, err := xdm.ParseString(sb.String(), "people.xml")
	if err != nil {
		t.Fatal(err)
	}
	var names xdm.Sequence
	for _, p := range doc.DocElem().Children {
		names = append(names, p.Children[0])
	}
	return &Response{Semantics: ByFragment, ExecNanos: 120000, SerializeNanos: 30000,
		Results: []xdm.Sequence{names}}
}

// smallRequest is the request of a scatter lane: one atomic parameter, the
// shipped module, no fragments — an 18-node message.
func smallRequest() *Request {
	return &Request{
		Method: "fcn1", Arity: 1, Semantics: ByFragment, Static: eval.DefaultStatic(),
		Module: `declare function fcn1($a as item()*) as item()* { doc("people.xml")//person[age < $a]/name };`,
		Calls:  [][]xdm.Sequence{{xdm.Singleton(xdm.NewInteger(30))}},
	}
}

// annotationResponse is the response of a semijoin lane by projection: n
// annotations of one auction document, whose author subtrees the caller
// navigates (the returned path annotationPaths).
func annotationResponse(t testing.TB, n int) *Response {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("<site><open_auctions>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, `<open_auction id="open_auction%d"><initial>%d.50</initial><seller person="person%d"/>`+
			`<annotation><author person="person%d"/><description><text>lot %d is <bold>as new</bold></text></description>`+
			`<happiness>%d</happiness></annotation></open_auction>`, i, 10+i, i, i%7, i, i%10)
	}
	sb.WriteString("</open_auctions></site>")
	doc, err := xdm.ParseString(sb.String(), "auctions.xml")
	if err != nil {
		t.Fatal(err)
	}
	var anns xdm.Sequence
	for _, a := range doc.DocElem().Children[0].Children {
		anns = append(anns, a.Children[2])
	}
	return &Response{Semantics: ByProjection, ExecNanos: 120000, SerializeNanos: 30000,
		Results: []xdm.Sequence{anns}}
}

const annotationPaths = `child::author/descendant-or-self::node()`

// TestCodecAllocationCeilings pins the allocation count of the message path
// — a count, so it holds on any machine. The ceilings sit a few allocations
// above the measured values (in comments); the fmt/strings.Builder codec
// this one replaced needed 341 and 703 for the response and 17 and 33 for
// the request.
func TestCodecAllocationCeilings(t *testing.T) {
	resp := scatterResponse(t, 58)
	respData, err := MarshalResponse(resp, nil, nil, projection.Options{})
	if err != nil {
		t.Fatal(err)
	}
	req := smallRequest()
	reqData, err := MarshalRequest(req, nil, nil, projection.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if doc, err := xdm.ParseBytes(reqData, "req"); err != nil || doc.NodeCount() != 18 {
		t.Fatalf("request fixture: %v, %d nodes, want 18", err, doc.NodeCount())
	}
	byValue := scatterResponse(t, 50)
	byValue.Semantics = ByValue
	copiesData, err := MarshalResponse(byValue, nil, nil, projection.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("response %d B, request %d B", len(respData), len(reqData))
	annPaths := mustPaths(t, annotationPaths)
	marshalProjected := func(resp *Response) func() {
		return func() {
			if _, err := MarshalResponse(resp, nil, annPaths, projection.Options{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		name    string
		ceiling float64
		run     func()
	}{
		{"marshal 58-fragment response", 8, func() { // measured 4 (6 before maximalNodes compacted in place and a first document's group lived on the stack)
			if _, err := MarshalResponse(resp, nil, nil, projection.Options{}); err != nil {
				t.Fatal(err)
			}
		}},
		{"parse 58-fragment response", 15, func() { // measured 11: the tree-walking decoder needed 71, 58 of them documents
			if _, err := ParseResponse(respData); err != nil {
				t.Fatal(err)
			}
		}},
		{"parse 50-copy by-value response", 14, func() { // measured 10 (a document, root array and URI apiece: 157)
			if _, err := ParseResponse(copiesData); err != nil {
				t.Fatal(err)
			}
		}},
		{"marshal 18-node request", 6, func() { // measured 4
			if _, err := MarshalRequest(req, nil, nil, projection.Options{}); err != nil {
				t.Fatal(err)
			}
		}},
		{"parse 18-node request", 12, func() { // measured 8 (tree-walking: 12)
			if _, err := ParseRequest(reqData); err != nil {
				t.Fatal(err)
			}
		}},
		// By projection the count must not grow with the nodes D′ keeps: one
		// ceiling for both sizes (a node-by-node copy needed 411 and 2 556).
		{"marshal 33-annotation response by projection", 80, marshalProjected(annotationResponse(t, 33))},   // measured 47
		{"marshal 266-annotation response by projection", 80, marshalProjected(annotationResponse(t, 266))}, // measured 59
	} {
		if got := testing.AllocsPerRun(50, tc.run); got > tc.ceiling {
			t.Errorf("%s: %.0f allocations, ceiling %.0f", tc.name, got, tc.ceiling)
		} else {
			t.Logf("%s: %.0f allocations", tc.name, got)
		}
	}
}

// TestDecodeByteCeilings pins the bytes the decoders allocate per message,
// which the allocation counts above cannot see: a decoder that builds three
// times the nodes it returns allocates as often, just bigger. Each ceiling
// is the measured value × 1.1 (in comments; the tree-walking decoder this
// one replaced measured 95 155, 4 992 and 56 448 B).
func TestDecodeByteCeilings(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-based")
	}
	respData, err := MarshalResponse(scatterResponse(t, 58), nil, nil, projection.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reqData, err := MarshalRequest(smallRequest(), nil, nil, projection.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var frame []byte
	err = MarshalResponseStream(scatterResponse(t, DefaultChunkItems), DefaultChunkItems, nil, nil, projection.Options{},
		func(f []byte) error {
			if frame == nil {
				frame = f
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		ceiling int64
		run     func() error
	}{
		{"parse 58-fragment response", 47710, func() error { _, err := ParseResponse(respData); return err }},                                  // measured 43 373
		{"parse 18-node request", 2446, func() error { _, err := ParseRequest(reqData); return err }},                                          // measured 2 224
		{fmt.Sprintf("parse %d-item chunk frame", DefaultChunkItems), 26594, func() error { _, err := ParseResponseChunk(frame); return err }}, // measured 24 176
	} {
		if err := tc.run(); err != nil {
			t.Fatal(err)
		}
		got := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = tc.run()
			}
		}).AllocedBytesPerOp()
		if got > tc.ceiling {
			t.Errorf("%s: %d B, ceiling %d B", tc.name, got, tc.ceiling)
		} else {
			t.Logf("%s: %d B", tc.name, got)
		}
	}
}

// TestSplitTextDecodesLinear: a text run split into 40 000 CDATA sections —
// in an atomic value and in a shipped fragment — decodes to the joined
// string in bytes linear in the message (each piece is copied once into one
// buffer, not the whole run again per piece).
func TestSplitTextDecodesLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-based")
	}
	const pieces = 40000
	want := strings.Repeat("x", pieces)
	doc, err := xdm.ParseString(`<a>MARK</a>`, "t.xml")
	if err != nil {
		t.Fatal(err)
	}
	for _, resp := range []*Response{
		{Semantics: ByValue, Results: []xdm.Sequence{{xdm.NewString("MARK")}}},
		{Semantics: ByFragment, Results: []xdm.Sequence{{doc.DocElem()}}},
	} {
		data, err := MarshalResponse(resp, nil, nil, projection.Options{})
		if err != nil {
			t.Fatal(err)
		}
		data = []byte(strings.Replace(string(data), "MARK", strings.Repeat("<![CDATA[x]]>", pieces), 1))
		got, err := ParseResponse(data)
		if err != nil {
			t.Fatal(err)
		}
		var text string
		switch it := got.Results[0][0].(type) {
		case xdm.Atomic:
			text = it.S
		case *xdm.Node:
			text = it.StringValue()
		}
		if text != want {
			t.Fatalf("%s: decoded %d bytes, want the %d joined pieces", resp.Semantics, len(text), pieces)
		}
		bytes := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, _ = ParseResponse(data)
			}
		}).AllocedBytesPerOp()
		if bytes > 4*int64(len(data)) {
			t.Errorf("%s: a %d B message of %d CDATA sections decodes in %d B, want at most 4× its size",
				resp.Semantics, len(data), pieces, bytes)
		} else {
			t.Logf("%s: a %d B message decodes in %d B", resp.Semantics, len(data), bytes)
		}
	}
}
