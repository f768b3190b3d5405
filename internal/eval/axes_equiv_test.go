package eval

import (
	"testing"

	"distxq/internal/xdm"
	"distxq/internal/xq"
)

// referenceAxisNodes is the seed's per-node axis implementation (fresh slice
// per call, sibling rescans, parent-walk ancestor tests), kept verbatim as
// the oracle for the buffer-reusing rewrite.
func referenceAxisNodes(n *xdm.Node, axis xq.Axis, test xq.NodeTest) []*xdm.Node {
	var out []*xdm.Node
	add := func(m *xdm.Node) {
		if matchTest(m, axis, test) {
			out = append(out, m)
		}
	}
	isAncestor := func(a, m *xdm.Node) bool {
		for p := m.Parent; p != nil; p = p.Parent {
			if p == a {
				return true
			}
		}
		return false
	}
	switch axis {
	case xq.AxisChild:
		if n.Kind == xdm.AttributeNode {
			return nil
		}
		for _, ch := range n.Children {
			add(ch)
		}
	case xq.AxisAttribute:
		for _, a := range n.Attrs {
			add(a)
		}
	case xq.AxisSelf:
		add(n)
	case xq.AxisDescendant:
		for _, ch := range n.Children {
			ch.WalkDescendants(func(m *xdm.Node) bool { add(m); return true })
		}
	case xq.AxisDescendantOrSelf:
		n.WalkDescendants(func(m *xdm.Node) bool { add(m); return true })
	case xq.AxisParent:
		if n.Parent != nil {
			add(n.Parent)
		}
	case xq.AxisAncestor:
		var anc []*xdm.Node
		for p := n.Parent; p != nil; p = p.Parent {
			anc = append(anc, p)
		}
		for i := len(anc) - 1; i >= 0; i-- {
			add(anc[i])
		}
	case xq.AxisAncestorOrSelf:
		var anc []*xdm.Node
		for p := n; p != nil; p = p.Parent {
			anc = append(anc, p)
		}
		for i := len(anc) - 1; i >= 0; i-- {
			add(anc[i])
		}
	case xq.AxisFollowingSibling:
		if n.Parent == nil || n.Kind == xdm.AttributeNode {
			return nil
		}
		seen := false
		for _, sib := range n.Parent.Children {
			if sib == n {
				seen = true
				continue
			}
			if seen {
				add(sib)
			}
		}
	case xq.AxisPrecedingSibling:
		if n.Parent == nil || n.Kind == xdm.AttributeNode {
			return nil
		}
		for _, sib := range n.Parent.Children {
			if sib == n {
				break
			}
			add(sib)
		}
	case xq.AxisFollowing:
		start := n
		if n.Kind == xdm.AttributeNode {
			start = n.Parent
		}
		for f := start.Following(); f != nil; f = f.NextInDocument() {
			add(f)
		}
	case xq.AxisPreceding:
		root := n.RootNode()
		target := n
		if n.Kind == xdm.AttributeNode {
			target = n.Parent
		}
		root.WalkDescendants(func(m *xdm.Node) bool {
			if m == target {
				return false
			}
			if !isAncestor(m, target) {
				add(m)
			}
			return true
		})
	}
	return out
}

var equivAxes = []xq.Axis{
	xq.AxisChild, xq.AxisAttribute, xq.AxisSelf, xq.AxisDescendant,
	xq.AxisDescendantOrSelf, xq.AxisParent, xq.AxisAncestor,
	xq.AxisAncestorOrSelf, xq.AxisFollowingSibling, xq.AxisPrecedingSibling,
	xq.AxisFollowing, xq.AxisPreceding,
}

var equivTests = []xq.NodeTest{
	{Kind: xq.TestAnyNode},
	{Kind: xq.TestWildcard},
	{Kind: xq.TestText},
	{Kind: xq.TestComment},
	{Kind: xq.TestName, Name: "person"},
	{Kind: xq.TestName, Name: "id"},
}

func equivDoc(t *testing.T) *xdm.Document {
	t.Helper()
	d, err := xdm.ParseString(`<site id="s" v="2">
	  <people>
	    <person id="p1"><name>Ann</name><age>47</age><!--vip--></person>
	    <person id="p2"><name>Bob</name><profile><age>31</age><edu>BSc</edu></profile></person>
	    <person id="p3"/>
	  </people>
	  <regions><eu><item id="i1"><desc>x<em>y</em>z</desc></item></eu><na/></regions>
	</site>`, "equiv.xml")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestAxisNodesMatchesReference checks every axis × node test × context node
// combination against the seed implementation.
func TestAxisNodesMatchesReference(t *testing.T) {
	d := equivDoc(t)
	var ctxNodes []*xdm.Node
	d.Root.WalkDescendants(func(n *xdm.Node) bool {
		ctxNodes = append(ctxNodes, n)
		ctxNodes = append(ctxNodes, n.Attrs...)
		return true
	})
	for _, axis := range equivAxes {
		for _, test := range equivTests {
			for _, n := range ctxNodes {
				want := referenceAxisNodes(n, axis, test)
				got := AxisNodes(nil, n, axis, test)
				if len(got) != len(want) {
					t.Fatalf("%s::%v from %s(pre=%d): %d nodes, want %d",
						axis, test, n.Name, n.Pre(), len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s::%v from %s(pre=%d): node %d differs",
							axis, test, n.Name, n.Pre(), i)
					}
				}
			}
		}
	}
}

// TestAxisOutputOrderedAndDistinct asserts the invariant evalPath relies on
// to skip sorting for single-context-node steps: every axis emits document
// order without duplicates.
func TestAxisOutputOrderedAndDistinct(t *testing.T) {
	d := equivDoc(t)
	var ctxNodes []*xdm.Node
	d.Root.WalkDescendants(func(n *xdm.Node) bool {
		ctxNodes = append(ctxNodes, n)
		ctxNodes = append(ctxNodes, n.Attrs...)
		return true
	})
	for _, axis := range equivAxes {
		for _, n := range ctxNodes {
			out := AxisNodes(nil, n, axis, xq.NodeTest{Kind: xq.TestAnyNode})
			for i := 1; i < len(out); i++ {
				if xdm.Compare(out[i-1], out[i]) >= 0 {
					t.Fatalf("%s from %s(pre=%d): output not strictly increasing at %d",
						axis, n.Name, n.Pre(), i)
				}
			}
		}
	}
}

// TestEvalPathMultiStepEquivalence runs whole path expressions and compares
// against step-by-step reference evaluation (reference axis + reference sort
// over the full context union).
func TestEvalPathMultiStepEquivalence(t *testing.T) {
	docSrc := `<site id="s"><people>
	  <person id="p1"><name>Ann</name><age>47</age></person>
	  <person id="p2"><name>Bob</name><profile><age>31</age></profile></person>
	</people><regions><eu><item id="i1"/></eu></regions></site>`
	eng := NewEngine(ResolverFunc(func(uri string) (*xdm.Document, error) {
		return xdm.ParseString(docSrc, uri)
	}))
	queries := []struct {
		src   string
		steps []struct {
			axis xq.Axis
			test xq.NodeTest
		}
	}{
		{src: `doc("d")//age`, steps: []struct {
			axis xq.Axis
			test xq.NodeTest
		}{
			{xq.AxisDescendantOrSelf, xq.NodeTest{Kind: xq.TestAnyNode}},
			{xq.AxisChild, xq.NodeTest{Kind: xq.TestName, Name: "age"}},
		}},
		{src: `doc("d")//person/ancestor-or-self::*`, steps: []struct {
			axis xq.Axis
			test xq.NodeTest
		}{
			{xq.AxisDescendantOrSelf, xq.NodeTest{Kind: xq.TestAnyNode}},
			{xq.AxisChild, xq.NodeTest{Kind: xq.TestName, Name: "person"}},
			{xq.AxisAncestorOrSelf, xq.NodeTest{Kind: xq.TestWildcard}},
		}},
		{src: `doc("d")//name/following::node()`, steps: []struct {
			axis xq.Axis
			test xq.NodeTest
		}{
			{xq.AxisDescendantOrSelf, xq.NodeTest{Kind: xq.TestAnyNode}},
			{xq.AxisChild, xq.NodeTest{Kind: xq.TestName, Name: "name"}},
			{xq.AxisFollowing, xq.NodeTest{Kind: xq.TestAnyNode}},
		}},
		{src: `doc("d")//age/preceding::*`, steps: []struct {
			axis xq.Axis
			test xq.NodeTest
		}{
			{xq.AxisDescendantOrSelf, xq.NodeTest{Kind: xq.TestAnyNode}},
			{xq.AxisChild, xq.NodeTest{Kind: xq.TestName, Name: "age"}},
			{xq.AxisPreceding, xq.NodeTest{Kind: xq.TestWildcard}},
		}},
	}
	for _, q := range queries {
		got, err := queryString(eng, q.src)
		if err != nil {
			t.Fatalf("%s: %v", q.src, err)
		}
		// Reference: start from the document node, apply each step to every
		// context node, union, reference-sort.
		d, _ := eng.Doc("d")
		cur := []*xdm.Node{d.Root}
		for _, st := range q.steps {
			var next []*xdm.Node
			for _, n := range cur {
				next = append(next, referenceAxisNodes(n, st.axis, st.test)...)
			}
			cur = xdm.SortDocOrder(next)
		}
		if len(got) != len(cur) {
			t.Fatalf("%s: %d items, want %d", q.src, len(got), len(cur))
		}
		for i, it := range got {
			if it.(*xdm.Node) != cur[i] {
				t.Fatalf("%s: item %d differs", q.src, i)
			}
		}
	}
}
