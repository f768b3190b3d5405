package xrpc

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"distxq/internal/eval"
	"distxq/internal/projection"
	"distxq/internal/trace"
	"distxq/internal/xdm"
)

var update = flag.Bool("update", false, "rewrite the wire golden files with current encoder output")

// wireFixture is the deterministic content every wire golden is built from:
// a parsed document, a constructed document with adjacent text siblings (one
// canonical nodeid, see fragInfo.idOf) and the node handles the messages ship.
type wireFixture struct {
	lib, built              *xdm.Document
	book0, book1, title1    *xdm.Node
	id1, text1, comment     *xdm.Node
	para, paraTail, builtEl *xdm.Node
}

func newWireFixture(t testing.TB) *wireFixture {
	t.Helper()
	lib, err := xdm.ParseString(
		`<lib owner="a&amp;b"><book id="b0" lang="en"><title>T0 &amp; more</title><pages>100</pages></book>`+
			`<!--between--><book id="b1"><title>T1 &lt;two&gt;</title><pages>101</pages><note>mixed <b>bold</b> tail</note></book>`+
			`<book id="b&quot;2"/></lib>`, "mem://wire/lib.xml")
	if err != nil {
		t.Fatal(err)
	}
	fx := &wireFixture{lib: lib}
	books := lib.DocElem().Children
	fx.book0, fx.comment, fx.book1 = books[0], books[1], books[2]
	fx.title1 = fx.book1.Children[0]
	fx.text1 = fx.title1.Children[0]
	fx.id1 = fx.book1.Attr("id")

	fx.built = xdm.NewDocument("mem://wire/built.xml")
	fx.builtEl = xdm.NewElement("doc")
	fx.built.Root.AppendChild(fx.builtEl)
	fx.para = xdm.NewElement("p")
	fx.para.SetAttr("k", `v<"1">`)
	fx.para.AppendChild(xdm.NewText("one "))
	fx.para.AppendChild(xdm.NewText("two")) // adjacent text: merges on re-parse
	fx.para.AppendChild(xdm.NewElement("br"))
	fx.paraTail = xdm.NewText("tail > end")
	fx.para.AppendChild(fx.paraTail)
	fx.builtEl.AppendChild(fx.para)
	fx.built.Freeze()
	return fx
}

func mustPaths(t testing.TB, paths ...string) projection.PathSet {
	t.Helper()
	var ps projection.PathSet
	for _, s := range paths {
		p, err := projection.ParsePath(s)
		if err != nil {
			t.Fatal(err)
		}
		ps = ps.Add(p)
	}
	return ps
}

var wireSpans = []trace.Span{
	{ID: 3, Parent: 1, Name: "serve", Peer: "peer1", StartNS: 10, EndNS: 950,
		Attrs: []trace.Attr{{Key: "method", Str: "f <1>"}, {Key: "calls", Int: 2}}},
	{ID: 4, Parent: 3, Name: "call", Peer: "peer1", StartNS: 20, EndNS: 900, Error: "a & b"},
}

// wireMessages marshals every message shape of the protocol — request,
// response, chunk (first, middle, terminal) and fault, under each passing
// semantics — with exec-ns/serde-ns pinned so the bytes are reproducible.
func wireMessages(t testing.TB) map[string][]byte {
	t.Helper()
	fx := newWireFixture(t)
	out := map[string][]byte{}
	put := func(name string, data []byte, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = data
	}
	atoms := xdm.Sequence{
		xdm.NewInteger(-42), xdm.NewString("hi <&> \"q\""), xdm.NewBoolean(true),
		xdm.NewBoolean(false), xdm.NewDouble(2.5), xdm.NewDouble(1e21), xdm.NewUntyped("u&v"),
	}
	nodes := xdm.Sequence{fx.book1, fx.title1, fx.id1, fx.text1, fx.comment, fx.para, fx.paraTail, fx.book0}
	mixed := append(append(xdm.Sequence{}, atoms[:2]...), nodes...)
	static := eval.StaticContext{
		BaseURI: "http://x.example/?a=1&b=2", DefaultCollation: "codepoint",
		CurrentDateTime: "2009-03-29T12:00:00Z",
	}
	module := `declare function f($a as item()*, $b as item()*) as item()* { ($a, $b)[. < 3] };`

	for _, sem := range []Semantics{ByValue, ByFragment, ByProjection} {
		req := &Request{
			Method: "f", Arity: 2, Semantics: sem, Module: module, Static: static,
			Calls: [][]xdm.Sequence{{mixed, atoms}, {{}, {fx.book0, fx.book0}}},
		}
		var paramU, paramR []projection.PathSet
		if sem == ByProjection {
			req.ResultUsed = mustPaths(t, `child::title`)
			req.ResultReturned = mustPaths(t, `child::pages/descendant-or-self::node()`, `attribute::id`)
			paramU = []projection.PathSet{mustPaths(t, `child::title`), nil}
			paramR = []projection.PathSet{mustPaths(t, `child::pages/descendant-or-self::node()`), mustPaths(t, `self::node()/descendant-or-self::node()`)}
		}
		data, err := MarshalRequest(req, paramU, paramR, projection.Options{})
		put(fmt.Sprintf("request-%s", sem), data, err)

		resp := &Response{
			Semantics: sem, ExecNanos: 12345, SerializeNanos: 678,
			Results: []xdm.Sequence{mixed, {}, {fx.id1}, atoms},
		}
		var resU, resR projection.PathSet
		if sem == ByProjection {
			resU = mustPaths(t, `child::title`)
			resR = mustPaths(t, `child::pages/descendant-or-self::node()`)
		}
		data, err = MarshalResponse(resp, resU, resR, projection.Options{})
		put(fmt.Sprintf("response-%s", sem), data, err)

		data, err = MarshalResponseChunk(&ResponseChunk{
			Seq: 0, Call: 0, FirstItem: 0, Items: mixed[:4], Semantics: sem,
			ExecNanos: 999, SerializeNanos: 55,
		}, resU, resR, projection.Options{})
		put(fmt.Sprintf("chunk-first-%s", sem), data, err)
		data, err = MarshalResponseChunk(&ResponseChunk{
			Seq: 7, Call: 1, FirstItem: 64, Items: mixed[4:], Semantics: sem,
		}, resU, resR, projection.Options{})
		put(fmt.Sprintf("chunk-middle-%s", sem), data, err)
	}

	// A document-node result: the fragment root is the document itself.
	data, err := MarshalResponse(&Response{
		Semantics: ByFragment, ExecNanos: 1, SerializeNanos: 2,
		Results: []xdm.Sequence{{fx.lib.Root, fx.book1}},
	}, nil, nil, projection.Options{})
	put("response-document-root", data, err)
	data, err = MarshalResponse(&Response{
		Semantics: ByValue, ExecNanos: 1, SerializeNanos: 2,
		Results: []xdm.Sequence{{fx.built.Root}},
	}, nil, nil, projection.Options{})
	put("response-document-copy", data, err)

	traced := &Response{
		Semantics: ByFragment, ExecNanos: 12345, SerializeNanos: 678,
		Results: []xdm.Sequence{{fx.book0}}, Spans: wireSpans,
	}
	data, err = MarshalResponse(traced, nil, nil, projection.Options{})
	put("response-traced", data, err)

	req := &Request{
		Method: `g"<&>`, Arity: 0, Semantics: ByFragment, Module: module,
		BudgetNS: 1500000000, TraceID: 18446744073709551615, TraceSpan: 77,
		Calls: [][]xdm.Sequence{{}},
	}
	data, err = MarshalRequest(req, nil, nil, projection.Options{})
	put("request-budget-trace", data, err)

	data, err = MarshalResponseChunk(&ResponseChunk{Seq: 9, Last: true, Calls: 2, SerializeNanos: 4321},
		nil, nil, projection.Options{})
	put("chunk-terminal", data, err)
	data, err = MarshalResponseChunk(&ResponseChunk{Seq: 9, Last: true, Calls: 2, SerializeNanos: 4321, Spans: wireSpans},
		nil, nil, projection.Options{})
	put("chunk-terminal-traced", data, err)

	out["fault-plain"] = MarshalFault(fmt.Errorf("xrpc: evaluating f: boom <&> done"))
	out["fault-deadline"] = MarshalFault(fmt.Errorf("xrpc: evaluating f: %w", ErrDeadlineExceeded))
	out["fault-overloaded"] = MarshalFault(ErrOverloaded)
	out["fault-traced"] = MarshalFault(TracedError(fmt.Errorf("boom"), wireSpans))
	return out
}

// TestWireGoldens pins the bytes of every message shape. The files under
// testdata/wire were generated by the fmt/strings.Builder encoder this one
// replaced; an encoder change that moves a byte fails here.
func TestWireGoldens(t *testing.T) {
	dir := filepath.Join("testdata", "wire")
	msgs := wireMessages(t)
	if *update {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for name, got := range msgs {
		path := filepath.Join(dir, name+".xml")
		if *update {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden (run `go test ./internal/xrpc -run TestWireGoldens -update`): %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: wire bytes changed\n got %s\nwant %s", name, got, want)
		}
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.xml"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(msgs) {
		t.Errorf("%d golden files for %d messages: a stale golden is no longer produced", len(files), len(msgs))
	}
}

// TestWireGoldensDecode: every golden message decodes, and a re-marshal of
// what the request and response goldens decode to is stable (decode → encode
// → decode reaches a fixed point), so the goldens pin the decoder too.
func TestWireGoldensDecode(t *testing.T) {
	for name, data := range wireMessages(t) {
		switch {
		case strings.HasPrefix(name, "request-"):
			req, err := ParseRequest(data)
			if err != nil {
				t.Errorf("%s: %v", name, err)
				continue
			}
			if req.Semantics == ByProjection {
				continue // re-marshal would project again with different paths
			}
			again, err := MarshalRequest(req, nil, nil, projection.Options{})
			if err != nil {
				t.Errorf("%s: re-marshal: %v", name, err)
				continue
			}
			req2, err := ParseRequest(again)
			if err != nil {
				t.Errorf("%s: re-parse: %v", name, err)
				continue
			}
			for c := range req.Calls {
				for p := range req.Calls[c] {
					if g, w := xdm.SequenceString(req2.Calls[c][p]), xdm.SequenceString(req.Calls[c][p]); g != w {
						t.Errorf("%s call %d param %d: %q != %q", name, c, p, g, w)
					}
				}
			}
		case strings.HasPrefix(name, "response-"):
			resp, err := ParseResponse(data)
			if err != nil {
				t.Errorf("%s: %v", name, err)
				continue
			}
			if resp.Semantics == ByProjection {
				continue
			}
			again, err := MarshalResponse(resp, nil, nil, projection.Options{})
			if err != nil {
				t.Errorf("%s: re-marshal: %v", name, err)
				continue
			}
			resp2, err := ParseResponse(again)
			if err != nil {
				t.Errorf("%s: re-parse: %v", name, err)
				continue
			}
			for c := range resp.Results {
				if g, w := xdm.SequenceString(resp2.Results[c]), xdm.SequenceString(resp.Results[c]); g != w {
					t.Errorf("%s call %d: %q != %q", name, c, g, w)
				}
			}
		case strings.HasPrefix(name, "chunk-"):
			if _, err := ParseResponseChunk(data); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		default:
			if _, err := ParseResponse(data); err == nil {
				t.Errorf("%s: fault decoded as a response", name)
			} else if _, ok := err.(*Fault); !ok {
				t.Errorf("%s: %v is not a *Fault", name, err)
			}
		}
	}
}

// MarshalResponseChunk serializes one chunk frame on its own, as the first
// frame of a stream: the streaming writer encodes a stream's frames with
// one encoder (encodeState.chunk).
func MarshalResponseChunk(ch *ResponseChunk, resultUsed, resultReturned projection.PathSet, opts projection.Options) ([]byte, error) {
	st := resultEncoder(ch.Semantics, resultUsed, resultReturned, opts)
	return st.chunk(ch)
}
