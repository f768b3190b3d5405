package eval

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
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

// genDocXML returns a random document over a four-name vocabulary: nested
// elements, attributes named like elements, and text — the shapes a
// per-name element list must keep or skip.
func genDocXML(rng *rand.Rand) string {
	names := []string{"a", "b", "c", "d"}
	var sb strings.Builder
	var elem func(depth int)
	elem = func(depth int) {
		name := names[rng.Intn(len(names))]
		sb.WriteString("<" + name)
		if rng.Intn(3) == 0 {
			sb.WriteString(" " + names[rng.Intn(len(names))] + `="v"`)
		}
		sb.WriteString(">")
		k := rng.Intn(4)
		if depth < 2 {
			k += 2 // no document of one or two nodes
		}
		for ; depth < 5 && k > 0; k-- {
			if rng.Intn(4) == 0 {
				sb.WriteString("t")
			} else {
				elem(depth + 1)
			}
		}
		sb.WriteString("</" + name + ">")
	}
	elem(0)
	return sb.String()
}

// contextNodes lists every node of d, attributes included, in reverse
// document order: small subtrees first, so a name's walks count up to the
// build threshold over many steps before its list exists.
func contextNodes(d *xdm.Document) []*xdm.Node {
	var out []*xdm.Node
	d.Root.WalkDescendants(func(n *xdm.Node) bool {
		out = append(out, n)
		out = append(out, n.Attrs...)
		return true
	})
	slices.Reverse(out)
	return out
}

var namedTests = []xq.NodeTest{
	{Kind: xq.TestName, Name: "a"}, {Kind: xq.TestName, Name: "b"},
	{Kind: xq.TestName, Name: "c"}, {Kind: xq.TestName, Name: "d"},
	{Kind: xq.TestName, Name: "zz"},
}

// TestIndexedStepsMatchWalk: on served documents a descendant step by name
// returns what the node-by-node walk returns, from every context node,
// while the lists are absent, counting toward their build, and built.
func TestIndexedStepsMatchWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 40; i++ {
		d, err := xdm.ParseString(genDocXML(rng), "gen.xml")
		if err != nil {
			t.Fatal(err)
		}
		d.ServeNames()
		ctx := contextNodes(d)
		for round := 0; round < 2; round++ {
			for _, axis := range []xq.Axis{xq.AxisDescendant, xq.AxisDescendantOrSelf} {
				for _, test := range namedTests {
					for _, n := range ctx {
						want := referenceAxisNodes(n, axis, test)
						got := AxisNodes(nil, n, axis, test)
						if !slices.Equal(got, want) {
							t.Fatalf("doc %d round %d: %s::%s from pre=%d: %d nodes, want %d",
								i, round, axis, test.Name, n.Pre(), len(got), len(want))
						}
					}
				}
			}
		}
		for _, test := range namedTests {
			present := len(referenceAxisNodes(d.Root, xq.AxisDescendant, test)) > 0
			if _, ok, _ := d.Root.Named(test.Name); ok != present {
				t.Fatalf("doc %d: list for %q built = %v, name in document = %v", i, test.Name, ok, present)
			}
		}
	}
}

// TestIndexedStepQueriesMatchWalk runs path queries with positional and
// existential predicates over generated documents under both executors,
// each query four times so later runs step over built lists. The oracle is
// the same query over a constructed copy of the document, which never gets
// lists and so always walks.
func TestIndexedStepQueriesMatchWalk(t *testing.T) {
	queries := []string{
		`$d/descendant::b`,
		`$d/descendant::b[2]`,
		`$d//a/descendant::b[1]`,
		`$d//c/descendant-or-self::c[last()]`,
		`$d//a/descendant-or-self::a[position() > 1][1]`,
		`count($d//a[descendant::b = "t"])`,
		`$d//d/descendant::a[descendant::c][1]`,
		`for $x in $d/descendant::a return count($x/descendant::b)`,
		`$d/descendant::c/ancestor::*[1]`,
		`$d//b/preceding-sibling::*[1]`,
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 12; i++ {
		xml := genDocXML(rng)
		d, err := xdm.ParseString(xml, "gen.xml")
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			oracle := run(t, nil, `let $d := document { `+xml+` } return `+q)
			src := `let $d := doc("gen.xml") return ` + q
			for rep := 0; rep < 4; rep++ {
				for _, compile := range []bool{false, true} {
					e := NewEngine(anyDocResolver{d})
					run := queryString
					if !compile {
						run = treeWalkString
					}
					got, err := run(e, src)
					if err != nil {
						t.Fatalf("%s: %v", src, err)
					}
					if serialize(got) != serialize(oracle) {
						t.Fatalf("doc %d, %s (compiled %v, run %d):\n got:  %s\n want: %s\n doc: %s",
							i, q, compile, rep, serialize(got), serialize(oracle), xml)
					}
				}
			}
		}
	}
}

// TestConcurrentFirstNamedSteps runs first steps over one served document
// from many goroutines at once: entry creation, counting and the one build
// per name race each other and every step still returns the walk's nodes.
// CI runs it under -race.
func TestConcurrentFirstNamedSteps(t *testing.T) {
	d, err := xdm.ParseString(genDocXML(rand.New(rand.NewSource(3))), "gen.xml")
	if err != nil {
		t.Fatal(err)
	}
	d.ServeNames()
	ctx := contextNodes(d)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for k, n := range ctx {
					test := namedTests[(g+k)%len(namedTests)]
					want := referenceAxisNodes(n, xq.AxisDescendant, test)
					if got := AxisNodes(nil, n, xq.AxisDescendant, test); !slices.Equal(got, want) {
						errs <- fmt.Sprintf("goroutine %d: descendant::%s from pre=%d: %d nodes, want %d",
							g, test.Name, n.Pre(), len(got), len(want))
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestAbsentNamesAddNoEntry: a stream of names the document does not
// contain leaves its table without entries; a name it does contain gets
// one from its first finding walk.
func TestAbsentNamesAddNoEntry(t *testing.T) {
	d := equivDoc(t)
	d.ServeNames()
	for i := 0; i < 200; i++ {
		name := fmt.Sprintf("made-up-%d", i)
		for _, n := range contextNodes(d) {
			AxisNodes(nil, n, xq.AxisDescendantOrSelf, xq.NodeTest{Kind: xq.TestName, Name: name})
		}
		if _, ok, untracked := d.Root.Named(name); ok || !untracked {
			t.Fatalf("absent name %q: list %v, entry %v", name, ok, !untracked)
		}
	}
	if _, _, untracked := d.Root.Named("person"); !untracked {
		t.Fatal("person has an entry before any step asked for it")
	}
	AxisNodes(nil, d.Root, xq.AxisDescendant, xq.NodeTest{Kind: xq.TestName, Name: "person"})
	if _, _, untracked := d.Root.Named("person"); untracked {
		t.Fatal("person has no entry after a walk found it")
	}
}

// TestConstructedDocumentsGetNoTable: trees built by constructors are not
// served, so their steps always walk and never start a table.
func TestConstructedDocumentsGetNoTable(t *testing.T) {
	for _, src := range []string{`document { <a><b/><c><b/></c></a> }`, `<a><b/><c><b/></c></a>`} {
		res := run(t, nil, src)
		n := res[0].(*xdm.Node)
		test := xq.NodeTest{Kind: xq.TestName, Name: "b"}
		for i := 0; i < 20; i++ {
			if got := AxisNodes(nil, n, xq.AxisDescendantOrSelf, test); len(got) != 2 {
				t.Fatalf("%s: %d b elements, want 2", src, len(got))
			}
		}
		if _, ok, untracked := n.Named("b"); ok || untracked {
			t.Fatalf("%s: constructed tree has a name table (list %v, untracked %v)", src, ok, untracked)
		}
	}
}
