package xdm

import (
	"encoding/xml"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
)

// sameTree compares two trees structurally (kind, name, text, attributes),
// ignoring node identity.
func sameTree(t *testing.T, path string, a, b *Node) {
	t.Helper()
	if a.Kind != b.Kind || a.Name != b.Name || a.Text != b.Text {
		t.Fatalf("%s: node differs: %s %q %q vs %s %q %q",
			path, a.Kind, a.Name, a.Text, b.Kind, b.Name, b.Text)
	}
	if len(a.Attrs) != len(b.Attrs) {
		t.Fatalf("%s: %d attrs vs %d", path, len(a.Attrs), len(b.Attrs))
	}
	for i := range a.Attrs {
		if a.Attrs[i].Name != b.Attrs[i].Name || a.Attrs[i].Text != b.Attrs[i].Text {
			t.Fatalf("%s: attr %d differs: %s=%q vs %s=%q", path, i,
				a.Attrs[i].Name, a.Attrs[i].Text, b.Attrs[i].Name, b.Attrs[i].Text)
		}
	}
	if len(a.Children) != len(b.Children) {
		t.Fatalf("%s: %d children vs %d", path, len(a.Children), len(b.Children))
	}
	for i := range a.Children {
		sameTree(t, path+"/"+a.Children[i].Name, a.Children[i], b.Children[i])
	}
}

// TestParseBytesMatchesParse feeds the same documents through the fast
// scanner and the encoding/xml-based parser and requires identical trees.
func TestParseBytesMatchesParse(t *testing.T) {
	cases := map[string]string{
		"simple":       `<a><b x="1">t</b></a>`,
		"prefixed":     `<env:Envelope><env:Body a:b="c"/></env:Envelope>`,
		"entities":     `<a q="&quot;&apos;&amp;">x &lt;y&gt; &amp; z &#65;&#x42;</a>`,
		"comments":     `<a>pre<!--inside-->post<!----></a>`,
		"mixed":        `<r> <a/> text <b><c>deep</c></b> tail </r>`,
		"selfclose":    `<a x="1" y="2"/>`,
		"pi-directive": `<?xml version="1.0"?><!DOCTYPE a><a>x<?pi data?>y</a>`,
		"cdata":        `<a><![CDATA[x > y & <z>]]></a>`,
		"cdata-merge":  `<a>pre<![CDATA[ raw ]]>post</a>`,
		"whitespace":   "  \n <a>\n keep \n</a> \n ",
		"unicode":      `<a über="ölwechsel">日本語テキスト</a>`,
		"nested-deep":  `<a><b><c><d><e f="g">h</e></d></c></b></a>`,
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			want, err := Parse(strings.NewReader(src), "want.xml")
			if err != nil {
				t.Fatalf("reference parser rejected %q: %v", src, err)
			}
			got, err := ParseBytes([]byte(src), "got.xml")
			if err != nil {
				t.Fatalf("ParseBytes rejected %q: %v", src, err)
			}
			sameTree(t, "", got.Root, want.Root)
			if !got.Frozen() {
				t.Error("ParseBytes must return a frozen document")
			}
			if got.NodeCount() != want.NodeCount() {
				t.Errorf("NodeCount = %d, want %d", got.NodeCount(), want.NodeCount())
			}
		})
	}
}

// TestParseBytesRoundTripsSerializer: whatever our serializer emits, the fast
// scanner reads back identically — the property the XRPC message layer needs.
func TestParseBytesRoundTripsSerializer(t *testing.T) {
	src := `<site id="s"><people><person id="p1"><name>A &amp; B</name>` +
		`<desc>x&lt;tag&gt; "quoted" 'single'</desc><!--note--></person></people></site>`
	d1, err := ParseString(src, "orig.xml")
	if err != nil {
		t.Fatal(err)
	}
	out := SerializeString(d1.DocElem())
	d2, err := ParseBytes([]byte(out), "roundtrip.xml")
	if err != nil {
		t.Fatalf("ParseBytes rejected serializer output %q: %v", out, err)
	}
	sameTree(t, "", d2.Root, d1.Root)
}

// TestParseBytesKeepsPrefixesLiteral documents the one intended divergence
// from Parse: a prefix with an in-scope xmlns declaration stays literal in
// node names (Parse's qname drops it once encoding/xml resolves it to a URI).
// The XRPC layer matches on local names, so both forms are equivalent there.
func TestParseBytesKeepsPrefixesLiteral(t *testing.T) {
	d, err := ParseBytes([]byte(`<env:Envelope xmlns:env="urn:e"><env:Body/></env:Envelope>`), "p.xml")
	if err != nil {
		t.Fatal(err)
	}
	if got := d.DocElem().Name; got != "env:Envelope" {
		t.Errorf("name = %q, want literal env:Envelope", got)
	}
	if d.DocElem().Attr("xmlns:env") != nil {
		t.Error("xmlns declarations must be dropped, as in Parse")
	}
}

func TestParseBytesRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"lone brackets":       `<<<`,
		"unbalanced end":      `</a>`,
		"mismatched end":      `<a><b></a></b>`,
		"eof in element":      `<a><b>`,
		"eof in tag":          `<a x="1"`,
		"unquoted attr":       `<a x=1/>`,
		"attr without value":  `<a x/>`,
		"unterminated value":  `<a x="1/>`,
		"unterminated entity": `<a>&amp</a>`,
		"unknown entity":      `<a>&bogus;</a>`,
		"bad char ref":        `<a>&#xZZ;</a>`,
		"control char ref":    `<a>&#1;</a>`,
		"surrogate char ref":  `<a>&#xD800;</a>`,
		"unterminated commnt": `<a><!-- no end</a>`,
		"unterminated cdata":  `<a><![CDATA[ no end</a>`,
	}
	for name, src := range cases {
		if _, err := ParseBytes([]byte(src), "bad.xml"); err == nil {
			t.Errorf("%s: expected error for %q", name, src)
		}
	}
}

// TestParseBytesWindowsDoNotAlias: Children and Attrs of a parsed message are
// windows into shared slabs, each capped at its length — growing one (an
// AppendChild or SetAttr by whoever adopts the node) must reallocate it, not
// write into the neighbouring window.
func TestParseBytesWindowsDoNotAlias(t *testing.T) {
	doc, err := ParseBytes([]byte(`<r><a x="1" y="2"><b/><c/></a><d z="3"><e/>tail</d><f/></r>`), "w.xml")
	if err != nil {
		t.Fatal(err)
	}
	r := doc.DocElem()
	a, d := r.Children[0], r.Children[1]
	var check func(n *Node)
	check = func(n *Node) {
		if cap(n.Children) != len(n.Children) || cap(n.Attrs) != len(n.Attrs) {
			t.Errorf("<%s>: children %d/%d, attrs %d/%d: a window has spare capacity",
				n.Name, len(n.Children), cap(n.Children), len(n.Attrs), cap(n.Attrs))
		}
		for _, c := range n.Children {
			check(c)
		}
	}
	check(doc.Root)

	a.AppendChild(NewElement("intruder"))
	a.SetAttr("w", "9")
	r.AppendChild(NewElement("last"))
	if got := SerializeString(d); got != `<d z="3"><e/>tail</d>` {
		t.Errorf("neighbour clobbered by an append next door: %s", got)
	}
	if got := SerializeString(r); got != `<r><a x="1" y="2" w="9"><b/><c/><intruder/></a><d z="3"><e/>tail</d><f/><last/></r>` {
		t.Errorf("tree after appends: %s", got)
	}
}

// TestParseBytesArenaSpansSlabs: the arena's node estimate (one per '<' and
// per attribute) undercounts mixed content and is capped per slab; documents
// that outgrow the first slab — by text nodes the estimate never saw, or by
// sheer fan-out — still come out identical to the reference parser's tree.
func TestParseBytesArenaSpansSlabs(t *testing.T) {
	var mixed, wide strings.Builder
	mixed.WriteString("<a>")
	for i := 0; i < 300; i++ {
		mixed.WriteString("x<b/>")
	}
	mixed.WriteString("y</a>")
	wide.WriteString("<a>")
	for i := 0; i < 3*maxSlab; i++ {
		wide.WriteString(`<b k="v">t</b>`)
	}
	wide.WriteString("</a>")
	for name, src := range map[string]string{"mixed": mixed.String(), "wide": wide.String()} {
		want, err := ParseString(src, "want.xml")
		if err != nil {
			t.Fatal(err)
		}
		got, err := ParseBytes([]byte(src), "got.xml")
		if err != nil {
			t.Fatal(err)
		}
		sameTree(t, name, got.Root, want.Root)
		if got.NodeCount() != want.NodeCount() {
			t.Errorf("%s: NodeCount = %d, want %d", name, got.NodeCount(), want.NodeCount())
		}
		for i, c := range got.DocElem().Children {
			if c.Parent != got.DocElem() || int(c.SiblingIndex()) != i {
				t.Fatalf("%s: child %d: parent/sibling index wrong", name, i)
			}
		}
	}
}

// TestParseBytesSlabSizedToMessage: a small message gets a small slab — the
// allocation is bounded by its node count, not by a fixed slab size — and a
// Scanner filling one fragment of a message sizes its arena from that
// fragment's content (Reserve), not from the message around it.
func TestParseBytesSlabSizedToMessage(t *testing.T) {
	src := []byte(`<env:Envelope><env:Body><xrpc:request method="f" arity="0"><xrpc:call/></xrpc:request></env:Body></env:Envelope>`)
	perRun := func(f func()) uint64 {
		const runs = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	if got := perRun(func() {
		if _, err := ParseBytes(src, "small.xml"); err != nil {
			t.Fatal(err)
		}
	}); got > 4096 {
		t.Errorf("parsing a 7-node message allocated %d B", got)
	} else {
		t.Logf("%d B per parse", got)
	}

	// One two-node fragment amid a thousand calls: the nodes Fill builds
	// take one minimal slab, and the scanner nothing else.
	msg := `<m><frags><frag base="u"><a>t</a></frag></frags>` + strings.Repeat(`<call><seq x="1"><i/></seq></call>`, 1000) + `</m>`
	var sc Scanner
	fill := func() {
		sc.Reset(msg, "msg")
		for {
			tok, err := sc.Next()
			if err != nil {
				t.Fatal(err)
			}
			if tok == StartTag && sc.Name == "frags" {
				if n := sc.Reserve("<frag"); n != 1 {
					t.Fatalf("Reserve counted %d wrappers, want 1", n)
				}
			}
			if tok == StartTag && sc.Name == "frag" {
				doc := NewDocument("frag")
				if err := sc.Fill(doc.Root); err != nil {
					t.Fatal(err)
				}
				if doc.Freeze(); SerializeString(doc.Root) != "<a>t</a>" {
					t.Fatalf("fragment decoded as %s", SerializeString(doc.Root))
				}
				return
			}
		}
	}
	if got := perRun(fill); got > 2048 {
		t.Errorf("filling a 2-node fragment of a %d B message allocated %d B", len(msg), got)
	} else {
		t.Logf("%d B per fragment fill", got)
	}
}

// Parse reads an XML document from r and returns a frozen Document with the
// given URI. Namespace prefixes are preserved literally in node names; no
// namespace resolution is performed (the XRPC message layer matches on
// prefixed names).
func Parse(r io.Reader, uri string) (*Document, error) {
	dec := xml.NewDecoder(r)
	// Keep entities and raw text simple: the decoder handles the predefined
	// XML entities; we do not load external DTDs.
	dec.Strict = true
	doc := NewDocument(uri)
	cur := doc.Root
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xdm: parse %s: %w", uri, err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			el := NewElement(qname(t.Name))
			for _, a := range t.Attr {
				n := qname(a.Name)
				if n == "xmlns" || strings.HasPrefix(n, "xmlns:") {
					continue
				}
				el.SetAttr(n, a.Value)
			}
			cur.AppendChild(el)
			cur = el
		case xml.EndElement:
			if cur.Parent == nil {
				return nil, fmt.Errorf("xdm: parse %s: unbalanced end element", uri)
			}
			cur = cur.Parent
		case xml.CharData:
			s := string(t)
			if cur == doc.Root && strings.TrimSpace(s) == "" {
				continue // ignore whitespace outside the document element
			}
			if len(cur.Children) > 0 && cur.Children[len(cur.Children)-1].Kind == TextNode {
				cur.Children[len(cur.Children)-1].Text += s
				continue
			}
			cur.AppendChild(NewText(s))
		case xml.Comment:
			cur.AppendChild(NewComment(string(t)))
		case xml.ProcInst, xml.Directive:
			// ignored: not part of our data model subset
		}
	}
	if cur != doc.Root {
		return nil, fmt.Errorf("xdm: parse %s: unexpected EOF inside element %s", uri, cur.Name)
	}
	doc.Freeze()
	return doc, nil
}

func qname(n xml.Name) string {
	// encoding/xml resolves prefixes into Space; we re-derive a readable
	// prefixed name. For unprefixed names Space is the default namespace URI
	// which we drop, keeping the local name.
	if n.Space == "" || strings.Contains(n.Space, "/") || strings.Contains(n.Space, ":") {
		return n.Local
	}
	return n.Space + ":" + n.Local
}
