package xrpc

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"distxq/internal/eval"
	"distxq/internal/projection"
	"distxq/internal/xdm"
)

// The three message decoders a fuzz input is fed to, by kind % 3.
const (
	decodeRequest = iota
	decodeResponse
	decodeChunk
)

// FuzzDecodeMatchesReference feeds one input to the one-pass decoder and to
// the tree-walking reference (codec_ref_test.go). Both must accept or both
// reject; when both accept, the decoded values must be equal: fields,
// atomic values, every decoded document node for node (kind, name, text,
// base URI, ranks, links), fragment document URIs up to their sequence
// number, node identity within the message (two references to one node
// decode to one node in both, or in neither) and the relative document
// order of every pair of decoded nodes.
func FuzzDecodeMatchesReference(f *testing.F) {
	for _, s := range decodeSeeds(f) {
		f.Add(s.kind, s.data)
	}
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		if err := decodeAgrees(int(kind%3), data); err != nil {
			t.Fatalf("kind %d, message %q: %v", kind%3, data, err)
		}
	})
}

// TestMalformedErrorTextsKept: every malformed message the robustness and
// chunk-validation tests send fails with the reference decoder's error text.
func TestMalformedErrorTextsKept(t *testing.T) {
	for _, s := range malformedSeeds(t) {
		_, err := decodeWith(s.kind, s.data, false)
		_, want := decodeWith(s.kind, s.data, true)
		if (err == nil) != (want == nil) || err != nil && err.Error() != want.Error() {
			t.Errorf("%s: error %v, reference %v", s.name, err, want)
		}
	}
}

type decodeSeed struct {
	name string
	kind uint8
	data []byte
}

// malformedSeeds are the broken messages of TestMalformedRequests,
// TestMalformedResponses, TestAttributeRefMissingName and
// TestChunkFrameValidation (each a valid frame sequence, damaged).
func malformedSeeds(t testing.TB) []decodeSeed {
	var out []decodeSeed
	for name, msg := range malformedRequests {
		out = append(out, decodeSeed{"request " + name, decodeRequest, []byte(msg)})
	}
	for name, msg := range malformedResponses {
		out = append(out, decodeSeed{"response " + name, decodeResponse, []byte(msg)})
	}
	out = append(out,
		decodeSeed{"attribute ref missing name", decodeRequest, []byte(attributeRefMissingName)},
		decodeSeed{"garbage frame", decodeChunk, []byte("<not-xml")})
	return out
}

// decodeSeeds are the wire goldens, the malformed cases, generated messages
// of every shape, and byte-level mutations of all of them, each under the
// decoder its shape belongs to and, for a few, under the other two.
func decodeSeeds(t testing.TB) []decodeSeed {
	var base []decodeSeed
	for name, data := range wireMessages(t) {
		base = append(base, decodeSeed{name, kindOf(name), data})
	}
	base = append(base, generatedMessages(t)...)
	out := append([]decodeSeed(nil), base...)
	out = append(out, malformedSeeds(t)...)
	rng := rand.New(rand.NewSource(47))
	for _, s := range base {
		for _, m := range mutations(rng, s.data) {
			out = append(out, decodeSeed{s.name + " mutated", s.kind, m})
		}
		out = append(out, decodeSeed{s.name + " as other kind", (s.kind + 1) % 3, s.data})
	}
	return out
}

func kindOf(name string) uint8 {
	switch {
	case strings.HasPrefix(name, "request"):
		return decodeRequest
	case strings.HasPrefix(name, "chunk"):
		return decodeChunk
	}
	return decodeResponse
}

// generatedMessages marshals messages the goldens do not cover: every
// atomic type with awkward values, whitespace-only and carriage-return text,
// nested shipped nodes of every kind under each semantics, Bulk requests,
// chunk streams, faults, and hand-written envelopes with prefixes, comments,
// processing instructions and elements out of the encoder's order.
func generatedMessages(t testing.TB) []decodeSeed {
	fx := newWireFixture(t)
	ws, err := xdm.ParseString("<w>  <x a='1'>\r\n</x> <!--c--> tail\r</w>", "mem://ws.xml")
	if err != nil {
		t.Fatal(err)
	}
	wsEl := ws.DocElem()
	crText := xdm.NewDocument("mem://cr.xml")
	crEl := xdm.NewElement("c")
	crEl.SetAttr("x", "x\ry")
	crEl.AppendChild(xdm.NewText("t\ru"))
	crText.Root.AppendChild(crEl)
	crText.Freeze()
	atoms := xdm.Sequence{
		xdm.NewInteger(0), xdm.NewInteger(math.MinInt64), xdm.NewString(""), xdm.NewString(" \t\n "),
		xdm.NewString("a\rb"), xdm.NewBoolean(false), xdm.NewDouble(math.Inf(-1)), xdm.NewDouble(math.NaN()),
		xdm.NewDouble(-0.0), xdm.NewUntyped(""), xdm.NewUntyped("]]>"),
	}
	nodes := xdm.Sequence{
		fx.lib.Root, fx.book0, fx.book0.Children[0], fx.book0.Attr("lang"), fx.text1, fx.comment,
		wsEl, wsEl.Children[0], wsEl.Children[1], wsEl.Children[2], crEl, crEl.Attr("x"), crEl.Children[0],
	}
	var out []decodeSeed
	put := func(name string, kind uint8, data []byte, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, decodeSeed{name, kind, data})
	}
	for _, sem := range []Semantics{ByValue, ByFragment, ByProjection} {
		var pu, pr []projection.PathSet
		var ru, rr projection.PathSet
		if sem == ByProjection {
			pu = []projection.PathSet{mustPaths(t, `child::title`), nil}
			pr = []projection.PathSet{mustPaths(t, `descendant-or-self::node()`), mustPaths(t, `attribute::id`)}
			ru = mustPaths(t, `child::pages`)
			rr = mustPaths(t, `self::node()/descendant-or-self::node()`)
		}
		req := &Request{
			Method: "g", Arity: 2, Semantics: sem, Module: "declare function g($a, $b) { $a };\r\n",
			Static: eval.DefaultStatic(), ResultUsed: ru, ResultReturned: rr, BudgetNS: 7, TraceID: 9, TraceSpan: 3,
			Calls: [][]xdm.Sequence{{nodes, atoms}, {atoms[:2], nodes[3:6]}, {{}, {}}},
		}
		data, err := MarshalRequest(req, pu, pr, projection.Options{})
		put("generated request "+sem.String(), decodeRequest, data, err)
		resp := &Response{Semantics: sem, Results: []xdm.Sequence{nodes, atoms, {}, append(nodes[6:], atoms...)},
			Spans: wireSpans}
		data, err = MarshalResponse(resp, ru, rr, projection.Options{})
		put("generated response "+sem.String(), decodeResponse, data, err)
		err = MarshalResponseStream(resp, 3, ru, rr, projection.Options{}, func(frame []byte) error {
			put("generated chunk "+sem.String(), decodeChunk, append([]byte(nil), frame...), nil)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, err := range []error{ErrOverloaded, TracedError(fmt.Errorf("x\ry"), wireSpans)} {
		for kind := uint8(0); kind < 3; kind++ {
			put("generated fault", kind, MarshalFault(err), nil)
		}
	}
	const head = `<?xml version="1.0"?><!-- lead --><e:Envelope xmlns:e="urn:e" xmlns:r="urn:x"> <e:Header/> <e:Body>` + "\n"
	const tail = "\n</e:Body><!-- trail --></e:Envelope> <?pi?>"
	for name, body := range map[string]string{
		"calls before fragments": `<r:response semantics="by-fragment"><r:call><r:sequence> <r:element fragid="1" nodeid="2"/><r:atomic-value>s</r:atomic-value> </r:sequence></r:call>` +
			`<r:fragments> <r:fragment base-uri="u"><a><b/>t</a></r:fragment> </r:fragments><r:call><r:sequence><r:text fragid="1" nodeid="3"/></r:sequence></r:call></r:response>`,
		"second fragments ignored": `<r:response><r:fragments><r:fragment kind="document"> <a/> </r:fragment></r:fragments><r:fragments><r:fragment><z/></r:fragment></r:fragments>` +
			`<r:call><r:other/><r:sequence><r:document fragid="1" nodeid="1"/><r:text fragid="1" nodeid="2"/></r:sequence><r:sequence/></r:call></r:response>`,
		"whitespace fragment": `<r:response semantics="by-fragment"><r:fragments><r:fragment base-uri="u">  </r:fragment><r:fragment><!--only--></r:fragment></r:fragments>` +
			`<r:call><r:sequence><r:text fragid="1" nodeid="1"/><r:comment fragid="2" nodeid="1"/></r:sequence></r:call></r:response>`,
		"value copies": `<r:response><r:fragments/><r:call><r:sequence><r:element base-uri="b"> <!--c--><e k="1" k="2">x<![CDATA[y]]>z</e> </r:element>` +
			`<r:document><d/></r:document><r:text>a<i>b</i>c</r:text><r:comment><![CDATA[c]]></r:comment><r:attribute name="n" value="v&#13;"/>` +
			`<r:atomic-value type="xs:boolean">0</r:atomic-value><r:atomic-value type="xs:decimal">1.5</r:atomic-value><r:atomic-value type="integer">+7</r:atomic-value></r:sequence></r:call></r:response>`,
		"fault after payload":  `<r:response><r:fragments/><r:call><r:sequence/></r:call></r:response><e:Fault>lead<e:Reason>why</e:Reason><e:Code>c</e:Code></e:Fault>`,
		"fault without reason": `<e:Fault> x <e:Detail>d<b>e</b></e:Detail><r:trace>junk</r:trace></e:Fault><r:response/>`,
		"request reordered": `<r:request method="m" arity="1" semantics="by-fragment" arity="2"><r:call><r:sequence><r:element fragid="1" nodeid="1"/></r:sequence><r:sequence/></r:call>` +
			`<r:projection-paths><r:used-path>child::a</r:used-path><r:returned-path>attribute::b</r:returned-path><r:other>self::node()</r:other></r:projection-paths>` +
			`<r:fragments><r:fragment><a b="c"/></r:fragment></r:fragments><r:module>m</r:module><r:module>second</r:module></r:request>`,
		"chunk sequence first": `<r:chunk seq="2" call="0" first-item="4" semantics="by-fragment" exec-ns="x"><r:sequence><r:element fragid="1" nodeid="1"/></r:sequence>` +
			`<r:fragments><r:fragment base-uri="u"><p/></r:fragment></r:fragments><r:sequence><bad/></r:sequence></r:chunk>`,
		"terminal chunk extras": `<r:chunk seq="3" last="true" calls="1"><r:fragments><r:fragment/></r:fragments><r:sequence><r:element fragid="9" nodeid="9"/></r:sequence></r:chunk>`,
	} {
		msg := []byte(head + body + tail)
		for kind := uint8(0); kind < 3; kind++ {
			out = append(out, decodeSeed{"generated " + name, kind, msg})
		}
	}
	return out
}

// mutations returns byte-level variants of data: truncations, flipped,
// deleted and duplicated bytes, and markup inserted at a tag boundary.
func mutations(rng *rand.Rand, data []byte) [][]byte {
	if len(data) == 0 {
		return nil
	}
	var out [][]byte
	at := func() int { return rng.Intn(len(data)) }
	edit := func(f func(b []byte) []byte) {
		out = append(out, f(append([]byte(nil), data...)))
	}
	edit(func(b []byte) []byte { return b[:at()] })
	edit(func(b []byte) []byte { b[at()] ^= 1 << uint(rng.Intn(7)); return b })
	edit(func(b []byte) []byte { i := at(); return append(b[:i], b[i+1:]...) })
	edit(func(b []byte) []byte {
		i, j := at(), at()
		if i > j {
			i, j = j, i
		}
		return append(b[:j:j], append(append([]byte(nil), b[i:j]...), b[j:]...)...)
	})
	for _, ins := range []string{" ", "<!--m-->", "<?p?>", "<x:unknown a='1'/>", "&#13;", "</"} {
		edit(func(b []byte) []byte {
			i := at()
			if j := bytes.IndexByte(b[i:], '>'); j >= 0 {
				i += j + 1
			} else {
				i = len(b)
			}
			return append(b[:i:i], append([]byte(ins), b[i:]...)...)
		})
	}
	return out
}

// decodeWith runs one decoder, or its reference, on data.
func decodeWith(kind uint8, data []byte, ref bool) (any, error) {
	var v any
	var err error
	switch {
	case kind == decodeRequest && ref:
		v, err = refParseRequest(data)
	case kind == decodeRequest:
		v, err = ParseRequest(data)
	case kind == decodeResponse && ref:
		v, err = refParseResponse(data)
	case kind == decodeResponse:
		v, err = ParseResponse(data)
	case ref:
		v, err = refParseResponseChunk(data)
	default:
		v, err = ParseResponseChunk(data)
	}
	if err != nil {
		return nil, err
	}
	return v, nil
}

// decodeAgrees reports how the decoder and the reference disagree on data.
func decodeAgrees(kind int, data []byte) error {
	got, err := decodeWith(uint8(kind), data, false)
	want, werr := decodeWith(uint8(kind), data, true)
	if (err == nil) != (werr == nil) {
		return fmt.Errorf("decoder error %v, reference error %v", err, werr)
	}
	if err != nil {
		return nil
	}
	eq := &valueEq{nodes: map[*xdm.Node]*xdm.Node{}, back: map[*xdm.Node]*xdm.Node{}, docs: map[*xdm.Document]*xdm.Document{}}
	switch g := got.(type) {
	case *Request:
		w := want.(*Request)
		eq.field("method", g.Method, w.Method)
		eq.field("arity", g.Arity, w.Arity)
		eq.field("semantics", g.Semantics, w.Semantics)
		eq.field("module", g.Module, w.Module)
		eq.field("static", g.Static, w.Static)
		eq.field("used paths", g.ResultUsed.String(), w.ResultUsed.String())
		eq.field("returned paths", g.ResultReturned.String(), w.ResultReturned.String())
		eq.field("budget", g.BudgetNS, w.BudgetNS)
		eq.field("trace", [2]uint64{g.TraceID, g.TraceSpan}, [2]uint64{w.TraceID, w.TraceSpan})
		eq.field("calls", len(g.Calls), len(w.Calls))
		for c := 0; c < len(g.Calls) && c < len(w.Calls); c++ {
			eq.field("params", len(g.Calls[c]), len(w.Calls[c]))
			for p := 0; p < len(g.Calls[c]) && p < len(w.Calls[c]); p++ {
				eq.seq(g.Calls[c][p], w.Calls[c][p])
			}
		}
		eq.frags(g.frags, w.frags)
	case *Response:
		w := want.(*Response)
		eq.field("semantics", g.Semantics, w.Semantics)
		eq.field("exec-ns", g.ExecNanos, w.ExecNanos)
		eq.field("serde-ns", g.SerializeNanos, w.SerializeNanos)
		eq.field("spans", g.Spans, w.Spans)
		eq.field("results", len(g.Results), len(w.Results))
		for c := 0; c < len(g.Results) && c < len(w.Results); c++ {
			eq.seq(g.Results[c], w.Results[c])
		}
		eq.frags(g.frags, w.frags)
	case *ResponseChunk:
		w := want.(*ResponseChunk)
		gi, wi := g.Items, w.Items
		gc, wc := *g, *w
		gc.Items, wc.Items = nil, nil
		eq.field("chunk", gc, wc)
		eq.seq(gi, wi)
	}
	eq.order()
	return errors.Join(eq.errs...)
}

// valueEq compares decoded values, pairing each decoded node with the
// reference's.
type valueEq struct {
	nodes, back map[*xdm.Node]*xdm.Node
	docs        map[*xdm.Document]*xdm.Document
	pairs       [][2]*xdm.Node // decoded nodes in message order, with their reference twins
	errs        []error
}

func (e *valueEq) errorf(format string, args ...any) {
	if len(e.errs) < 8 {
		e.errs = append(e.errs, fmt.Errorf(format, args...))
	}
}

func (e *valueEq) field(what string, got, want any) {
	if !reflect.DeepEqual(got, want) {
		e.errorf("%s: %#v, reference %#v", what, got, want)
	}
}

func (e *valueEq) seq(got, want xdm.Sequence) {
	if len(got) != len(want) {
		e.errorf("sequence of %d items, reference %d", len(got), len(want))
		return
	}
	for i := range got {
		switch g := got[i].(type) {
		case xdm.Atomic:
			w, ok := want[i].(xdm.Atomic)
			if !ok || g.T != w.T || g.S != w.S || g.B != w.B || g.I != w.I ||
				math.Float64bits(g.F) != math.Float64bits(w.F) {
				e.errorf("item %d: %#v, reference %#v", i, g, want[i])
			}
		case *xdm.Node:
			w, ok := want[i].(*xdm.Node)
			if !ok {
				e.errorf("item %d: node, reference %#v", i, want[i])
				continue
			}
			e.node(g, w)
		default:
			e.errorf("item %d: unexpected %T", i, got[i])
		}
	}
}

func (e *valueEq) frags(got, want []*xdm.Node) {
	if len(got) != len(want) {
		e.errorf("%d fragments, reference %d", len(got), len(want))
		return
	}
	for i := range got {
		e.node(got[i], want[i])
	}
}

// node pairs a decoded node with the reference's: a pairing, once made,
// must hold everywhere in the message, both ways.
func (e *valueEq) node(g, w *xdm.Node) {
	if m, ok := e.nodes[g]; ok || e.back[w] != nil {
		if m != w || e.back[w] != g {
			e.errorf("node identity differs: %s %q is paired twice", g.Kind, g.Name)
		}
		return
	}
	e.nodes[g], e.back[w] = w, g
	e.pairs = append(e.pairs, [2]*xdm.Node{g, w})
	e.same(g, w)
	if (g.Doc == nil) != (w.Doc == nil) {
		e.errorf("%s %q: document %v, reference %v", g.Kind, g.Name, g.Doc, w.Doc)
		return
	}
	if g.Doc == nil {
		return
	}
	if d, ok := e.docs[g.Doc]; ok {
		if d != w.Doc {
			e.errorf("%s %q: in another document than the reference's", g.Kind, g.Name)
		}
		return
	}
	e.docs[g.Doc] = w.Doc
	trim := func(uri string) string { return strings.TrimRight(uri, "0123456789") }
	if trim(g.Doc.URI) != trim(w.Doc.URI) || g.Doc.NodeCount() != w.Doc.NodeCount() || g.Doc.Frozen() != w.Doc.Frozen() {
		e.errorf("document %s (%d nodes), reference %s (%d nodes)", g.Doc.URI, g.Doc.NodeCount(), w.Doc.URI, w.Doc.NodeCount())
	}
	e.tree(g.Doc.Root, w.Doc.Root)
}

// same compares what a node carries itself.
func (e *valueEq) same(g, w *xdm.Node) {
	if g.Kind != w.Kind || g.Name != w.Name || g.Text != w.Text || g.BaseURI != w.BaseURI ||
		g.Pre() != w.Pre() || g.SubtreeSize() != w.SubtreeSize() || g.SiblingIndex() != w.SiblingIndex() ||
		len(g.Attrs) != len(w.Attrs) || len(g.Children) != len(w.Children) || (g.Parent == nil) != (w.Parent == nil) {
		e.errorf("node %s %q %q base %q pre %d size %d, reference %s %q %q base %q pre %d size %d",
			g.Kind, g.Name, g.Text, g.BaseURI, g.Pre(), g.SubtreeSize(),
			w.Kind, w.Name, w.Text, w.BaseURI, w.Pre(), w.SubtreeSize())
	}
}

// tree compares two document trees node for node, links included.
func (e *valueEq) tree(g, w *xdm.Node) {
	e.same(g, w)
	if len(g.Attrs) != len(w.Attrs) || len(g.Children) != len(w.Children) {
		return
	}
	for i, a := range g.Attrs {
		if a.Parent != g || a.Doc != g.Doc {
			e.errorf("attribute %s of <%s> mislinked", a.Name, g.Name)
		}
		e.same(a, w.Attrs[i])
	}
	for i, c := range g.Children {
		if c.Parent != g || c.Doc != g.Doc {
			e.errorf("child %d of %s %q mislinked", i, g.Kind, g.Name)
		}
		e.tree(c, w.Children[i])
	}
}

// order checks that every pair of decoded nodes compares in document order
// as the reference's twins do.
func (e *valueEq) order() {
	p := e.pairs[:min(len(e.pairs), 200)]
	for i := range p {
		for j := range p {
			if sign(xdm.Compare(p[i][0], p[j][0])) != sign(xdm.Compare(p[i][1], p[j][1])) {
				e.errorf("%s %q and %s %q compare differently", p[i][0].Kind, p[i][0].Name, p[j][0].Kind, p[j][0].Name)
				return
			}
		}
	}
}

func sign(c int) int {
	switch {
	case c < 0:
		return -1
	case c > 0:
		return 1
	}
	return 0
}
