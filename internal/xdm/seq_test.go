package xdm

import "testing"

func TestOrderedDisjointNodes(t *testing.T) {
	doc := mustParse(t, `<r><a><b/></a><c/><d><e/><f/></d></r>`)
	r := doc.DocElem()
	a, c, d := r.Children[0], r.Children[1], r.Children[2]
	b := a.Children[0]
	e := d.Children[0]

	if !OrderedDisjointNodes([]*Node{a, c, d}) {
		t.Fatal("siblings should be ordered+disjoint")
	}
	if !OrderedDisjointNodes([]*Node{b, e}) {
		t.Fatal("cousins should be ordered+disjoint")
	}
	if !OrderedDisjointNodes(nil) || !OrderedDisjointNodes([]*Node{c}) {
		t.Fatal("empty and singleton inputs are trivially ordered+disjoint")
	}
	if OrderedDisjointNodes([]*Node{c, a}) {
		t.Fatal("out of order input accepted")
	}
	if OrderedDisjointNodes([]*Node{a, b}) {
		t.Fatal("nested input accepted (b inside a)")
	}
	if OrderedDisjointNodes([]*Node{a, a}) {
		t.Fatal("duplicate input accepted")
	}
	if OrderedDisjointNodes([]*Node{NewElement("x")}) {
		t.Fatal("detached (unfrozen) node accepted")
	}

	doc2 := mustParse(t, `<s><t/></s>`)
	if !OrderedDisjointNodes([]*Node{r, doc2.DocElem()}) {
		t.Fatal("cross-document ordered input should be accepted")
	}
	if OrderedDisjointNodes([]*Node{doc2.DocElem(), r}) {
		t.Fatal("cross-document out-of-order input accepted")
	}
}

func mustParse(t *testing.T, src string) *Document {
	t.Helper()
	doc, err := ParseString(src, "test.xml")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return doc
}
