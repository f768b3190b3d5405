package xrpc

import (
	"testing"

	"distxq/internal/testkit"
	"distxq/internal/xdm"
)

// referenceCanonicalIndex is the seed's per-node O(n) numbering walk, kept as
// the oracle for the one-pass fragment numbering table.
func referenceCanonicalIndex(root, target *xdm.Node) int {
	idx := 0
	found := 0
	var walk func(n *xdm.Node, prevWasText bool) bool
	walk = func(n *xdm.Node, prevWasText bool) bool {
		merged := n.Kind == xdm.TextNode && prevWasText
		if !merged {
			idx++
		}
		if n == target {
			found = idx
			return false
		}
		prevText := false
		for _, c := range n.Children {
			if !walk(c, prevText) {
				return false
			}
			prevText = c.Kind == xdm.TextNode
		}
		return true
	}
	walk(root, false)
	return found
}

// TestFragmentNumberingTableMatchesReference compares the memoized encode
// table against the reference walk for every node, on a tree that contains
// adjacent text siblings (which must share one nodeid: a re-parsed
// serialization merges them).
func TestFragmentNumberingTableMatchesReference(t *testing.T) {
	d := xdm.NewDocument("table-test")
	root := xdm.NewElement("r")
	d.Root.AppendChild(root)
	a := xdm.NewElement("a")
	a.AppendChild(xdm.NewText("one"))
	a.AppendChild(xdm.NewText("two")) // adjacent texts: one canonical nodeid
	a.AppendChild(xdm.NewComment("c"))
	a.AppendChild(xdm.NewText("three"))
	root.AppendChild(a)
	b := xdm.NewElement("b")
	b.SetAttr("k", "v")
	b.AppendChild(xdm.NewElement("leaf"))
	root.AppendChild(b)
	d.Freeze()

	f := &fragInfo{root: root, origDoc: d}
	root.WalkDescendants(func(n *xdm.Node) bool {
		if got, want := f.idOf(n), referenceCanonicalIndex(root, n); got != want {
			t.Errorf("idOf(%s %s pre=%d) = %d, want %d", n.Kind, n.Name, n.Pre(), got, want)
		}
		return true
	})
	// Nodes outside the fragment resolve to 0 (not covered).
	if got := f.idOf(d.Root); got != 0 {
		t.Errorf("idOf(document node outside fragment) = %d, want 0", got)
	}
}

// TestDecodeTableMatchesNthDescendantOrSelf checks the decode-side numbering
// table against the seed's per-reference walk.
func TestDecodeTableMatchesNthDescendantOrSelf(t *testing.T) {
	d, err := xdm.ParseString(
		`<r><a>onetwo<!--c-->three</a><b k="v"><leaf/></b></r>`, "decode-test")
	if err != nil {
		t.Fatal(err)
	}
	root := d.DocElem()
	st := &decodeState{
		fragRoots: []*xdm.Node{root},
		fragDocs:  []*xdm.Document{d},
		fragNodes: make([][]*xdm.Node, 1),
	}
	n := 0
	root.WalkDescendants(func(*xdm.Node) bool { n++; return true })
	for id := 0; id <= n+1; id++ {
		if got, want := st.nodeByID(0, id), testkit.NthDescendantOrSelf(root, id); got != want {
			t.Errorf("nodeByID(0, %d) differs from NthDescendantOrSelf", id)
		}
	}
}
