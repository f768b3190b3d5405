package xdm

import (
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
)

const sampleXML = `<a id="1"><b><c/>text</b><d x="y">more</d><!--note--></a>`

func mustDoc(t *testing.T, s string) *Document {
	t.Helper()
	d, err := ParseString(s, "test.xml")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return d
}

func TestParseRoundTrip(t *testing.T) {
	d := mustDoc(t, sampleXML)
	got := SerializeString(d.Root)
	if got != sampleXML {
		t.Errorf("round trip:\n got %s\nwant %s", got, sampleXML)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{"<a>", "<a></b>", "</a>", "<a><b></a></b>"} {
		if _, err := ParseString(bad, "bad.xml"); err == nil {
			t.Errorf("ParseString(%q): expected error", bad)
		}
	}
}

func TestDocElemAndStringValue(t *testing.T) {
	d := mustDoc(t, sampleXML)
	a := d.DocElem()
	if a == nil || a.Name != "a" {
		t.Fatalf("DocElem = %v", a)
	}
	if sv := a.StringValue(); sv != "textmore" {
		t.Errorf("StringValue = %q, want %q", sv, "textmore")
	}
	if av := a.Attr("id").StringValue(); av != "1" {
		t.Errorf("attr string value = %q", av)
	}
}

func TestDocumentOrder(t *testing.T) {
	d := mustDoc(t, sampleXML)
	a := d.DocElem()
	b := a.Children[0]
	c := b.Children[0]
	dd := a.Children[1]
	// a < a/@id < b < c < d in document order
	pairs := [][2]*Node{{a, b}, {b, c}, {c, dd}, {a, a.Attr("id")}, {a.Attr("id"), b}}
	for _, p := range pairs {
		if Compare(p[0], p[1]) >= 0 {
			t.Errorf("Compare(%s,%s) = %d, want <0", p[0].Name, p[1].Name, Compare(p[0], p[1]))
		}
		if Compare(p[1], p[0]) <= 0 {
			t.Errorf("reverse Compare(%s,%s) not >0", p[1].Name, p[0].Name)
		}
	}
	if Compare(a, a) != 0 {
		t.Error("self compare != 0")
	}
}

func TestInterDocumentOrderIsStable(t *testing.T) {
	d1 := mustDoc(t, "<x/>")
	d2 := mustDoc(t, "<y/>")
	if Compare(d1.DocElem(), d2.DocElem()) >= 0 {
		t.Error("earlier-created document should order first")
	}
	if Compare(d2.DocElem(), d1.DocElem()) <= 0 {
		t.Error("later-created document should order last")
	}
}

func TestAncestry(t *testing.T) {
	d := mustDoc(t, sampleXML)
	a := d.DocElem()
	c := a.Children[0].Children[0]
	if !a.IsAncestorOf(c) {
		t.Error("a should be ancestor of c")
	}
	if c.IsAncestorOf(a) {
		t.Error("c must not be ancestor of a")
	}
	if c.IsAncestorOf(c) {
		t.Error("a node is not its own proper ancestor")
	}
	if c.RootNode() != d.Root {
		t.Error("RootNode should reach document node")
	}
}

func TestFollowingTraversal(t *testing.T) {
	d := mustDoc(t, sampleXML)
	a := d.DocElem()
	b := a.Children[0]
	dd := a.Children[1]
	if f := b.Following(); f != dd {
		t.Errorf("Following(b) = %v, want d", f)
	}
	if f := dd.Children[0].Following(); f == nil || f.Kind != CommentNode {
		t.Errorf("Following(text in d) should be the comment, got %v", f)
	}
	// Following from the last node is nil.
	last := a.Children[2]
	if f := last.Following(); f != nil {
		t.Errorf("Following(last) = %v, want nil", f)
	}
}

func TestNextInDocumentCoversAllNodes(t *testing.T) {
	d := mustDoc(t, sampleXML)
	seen := 0
	for n := d.Root; n != nil; n = n.NextInDocument() {
		seen++
	}
	// nodes excluding attributes: doc, a, b, c, text, d, text, comment = 8
	if seen != 8 {
		t.Errorf("visited %d nodes, want 8", seen)
	}
}

func TestCopyDetachesAndPreservesStructure(t *testing.T) {
	d := mustDoc(t, sampleXML)
	a := d.DocElem()
	cp := a.Copy()
	if cp == a || cp.Parent != nil || cp.Doc != nil {
		t.Fatal("copy must be a fresh detached node")
	}
	if !DeepEqualNode(a, cp) {
		t.Error("copy should be deep-equal to original")
	}
	if SerializeString(cp) != SerializeString(a) {
		t.Error("copy serialization mismatch")
	}
}

func TestSortDocOrderDedups(t *testing.T) {
	d := mustDoc(t, sampleXML)
	a := d.DocElem()
	b := a.Children[0]
	c := b.Children[0]
	in := []*Node{c, a, b, c, a}
	out := SortDocOrder(in)
	want := []*Node{a, b, c}
	if len(out) != len(want) {
		t.Fatalf("len = %d, want %d", len(out), len(want))
	}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("out[%d] wrong", i)
		}
	}
}

func TestSortDocOrderProperty(t *testing.T) {
	d := mustDoc(t, "<r><a/><b><c/><d/></b><e>t</e></r>")
	var all []*Node
	d.Root.WalkDescendants(func(n *Node) bool { all = append(all, n); return true })
	f := func(idx []uint8) bool {
		var in []*Node
		for _, i := range idx {
			in = append(in, all[int(i)%len(all)])
		}
		out := SortDocOrder(in)
		for i := 1; i < len(out); i++ {
			if Compare(out[i-1], out[i]) >= 0 {
				return false
			}
		}
		// every input node appears in output
		for _, n := range in {
			found := false
			for _, m := range out {
				if m == n {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEscaping(t *testing.T) {
	d := NewDocument("esc")
	e := NewElement("e")
	e.SetAttr("a", `<&">`)
	e.AppendChild(NewText("a<b&c>d"))
	d.Root.AppendChild(e)
	d.Freeze()
	got := SerializeString(d.Root)
	want := `<e a="&lt;&amp;&quot;&gt;">a&lt;b&amp;c&gt;d</e>`
	if got != want {
		t.Errorf("escaped = %s, want %s", got, want)
	}
	back, err := ParseString(got, "esc2")
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if back.DocElem().StringValue() != "a<b&c>d" {
		t.Errorf("reparsed text = %q", back.DocElem().StringValue())
	}
	if back.DocElem().Attr("a").Text != `<&">` {
		t.Errorf("reparsed attr = %q", back.DocElem().Attr("a").Text)
	}
}

func TestSerializedSizeMatchesString(t *testing.T) {
	d := mustDoc(t, sampleXML)
	if SerializedSize(d.Root) != int64(len(SerializeString(d.Root))) {
		t.Error("SerializedSize must equal len of serialization")
	}
}

func TestSerializeRoundTripProperty(t *testing.T) {
	// Property: serialize∘parse∘serialize = serialize for generated trees.
	f := func(names []uint8, texts []string) bool {
		d := NewDocument("prop")
		cur := d.Root
		tags := []string{"a", "b", "c", "d"}
		for i, nb := range names {
			el := NewElement(tags[int(nb)%len(tags)])
			if i < len(texts) {
				// An empty text node serializes to nothing and does not
				// come back from the parser; a string of only non-XML
				// characters sanitizes to one.
				if txt := sanitize(texts[i]); txt != "" {
					el.AppendChild(NewText(txt))
				}
			}
			cur.AppendChild(el)
			if nb%3 == 0 {
				cur = el
			}
		}
		if d.DocElem() == nil {
			return true
		}
		d.Freeze()
		s1 := SerializeString(d.Root)
		d2, err := ParseString(s1, "prop2")
		if err != nil {
			return false
		}
		return SerializeString(d2.Root) == s1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// sanitize keeps only characters matching the XML 1.0 Char production (the
// tree builder is fed parser output in production, which guarantees this) —
// minus the carriage return, which end-of-line normalization turns into a
// line feed before the parser ever builds a text node.
func sanitize(s string) string {
	var sb strings.Builder
	for _, r := range s {
		switch {
		case r == 0x09 || r == 0x0A:
			sb.WriteRune(r)
		case r >= 0x20 && r <= 0xD7FF && r != 0xFFFD:
			sb.WriteRune(r)
		case r >= 0xE000 && r <= 0xFFFD && r != 0xFFFD:
			sb.WriteRune(r)
		case r >= 0x10000 && r <= 0x10FFFF:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

func TestDeepEqual(t *testing.T) {
	a := mustDoc(t, `<a x="1" y="2"><b/>t</a>`).DocElem()
	b := mustDoc(t, `<a y="2" x="1"><b/>t</a>`).DocElem() // attr order irrelevant
	c := mustDoc(t, `<a x="1" y="3"><b/>t</a>`).DocElem()
	e := mustDoc(t, `<a x="1" y="2"><b/>u</a>`).DocElem()
	withComment := mustDoc(t, `<a x="1" y="2"><!--hi--><b/>t</a>`).DocElem()
	if !DeepEqualNode(a, b) {
		t.Error("attribute order must not matter")
	}
	if DeepEqualNode(a, c) {
		t.Error("different attr values must differ")
	}
	if DeepEqualNode(a, e) {
		t.Error("different text must differ")
	}
	if !DeepEqualNode(a, withComment) {
		t.Error("comments are ignored by deep-equal")
	}
}

func TestDeepEqualSeq(t *testing.T) {
	n := mustDoc(t, "<a/>").DocElem()
	m := mustDoc(t, "<a/>").DocElem()
	if !DeepEqualSeq(Sequence{n, NewInteger(1)}, Sequence{m, NewDouble(1)}) {
		t.Error("deep-equal with numeric promotion failed")
	}
	if DeepEqualSeq(Sequence{n}, Sequence{n, n}) {
		t.Error("length mismatch must be unequal")
	}
	if DeepEqualSeq(Sequence{NewString("x")}, Sequence{n}) {
		t.Error("node vs atomic must be unequal")
	}
	// A Raw compares as the node its bytes hold, never as its text.
	e := mustDoc(t, `<a k="1">x<b/></a>`).DocElem()
	if !DeepEqualSeq(Sequence{&Raw{Kind: ElementNode, XML: `<a k="1">x<b/></a>`}}, Sequence{e}) {
		t.Error("raw element vs its parsed node must be equal")
	}
	if DeepEqualSeq(Sequence{&Raw{Kind: ElementNode, XML: `<a k="2">x<b/></a>`}}, Sequence{e}) {
		t.Error("raw element with another attribute value must be unequal")
	}
	if DeepEqualSeq(Sequence{&Raw{Kind: TextNode, XML: "5"}}, Sequence{NewInteger(5)}) {
		t.Error("raw text vs atomic must be unequal")
	}
	if r := (&Raw{Kind: DocumentNode, XML: "<a>x</a><b>y</b>"}); r.Node().Kind != DocumentNode || r.ItemString() != "xy" {
		t.Errorf("raw document: kind %v, string value %q", r.Node().Kind, r.ItemString())
	}
}

// TestSerializeEscapesAtEveryLength: the serializer escapes run by run and
// takes a search-based shortcut on long clean strings; markup characters
// must come out as entities wherever they sit, in text and in attribute
// values, on either side of the shortcut's length threshold.
func TestSerializeEscapesAtEveryLength(t *testing.T) {
	want := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	wantAttr := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	for n := 0; n < 70; n++ {
		for _, special := range []string{"", "&", "<", ">", `"`} {
			for _, at := range []int{0, n / 2, n} {
				pad := strings.Repeat("x", n)
				s := pad[:at] + special + pad[at:]
				el := NewElement("e")
				el.SetAttr("a", s)
				if s != "" {
					el.AppendChild(NewText(s))
				}
				exp := `<e a="` + wantAttr.Replace(s) + `"`
				if s == "" {
					exp += "/>"
				} else {
					exp += ">" + want.Replace(s) + "</e>"
				}
				if got := SerializeString(el); got != exp {
					t.Fatalf("len %d special %q at %d: got %s want %s", n, special, at, got, exp)
				}
			}
		}
	}
}

// TestURIsBatch: a batch numbers its URIs consecutively across a change of
// digit count, costs one allocation, and a URI past its end takes the next
// free number.
func TestURIsBatch(t *testing.T) {
	var seq atomic.Uint64
	seq.Store(7)
	u := NewURIs(&seq, "p://", 4)
	var got []string
	for i := 0; i < 5; i++ {
		got = append(got, u.Next())
	}
	if want := "p://8 p://9 p://10 p://11 p://12"; strings.Join(got, " ") != want {
		t.Errorf("URIs %q, want %s", got, want)
	}
	if allocs := testing.AllocsPerRun(10, func() { NewURIs(&seq, "p://", 64) }); allocs != 1 {
		t.Errorf("a batch of 64 URIs costs %.0f allocations, want 1", allocs)
	}
}
