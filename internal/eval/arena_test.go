package eval

import (
	"fmt"
	"strings"
	"testing"

	"distxq/internal/xdm"
	"distxq/internal/xq"
)

// arenaDocs serves one document of 300 <x i="k"/> elements, k = 1..300.
func arenaDocs() mapResolver {
	var sb strings.Builder
	sb.WriteString("<r>")
	for k := 1; k <= 300; k++ {
		fmt.Fprintf(&sb, `<x i="%d"/>`, k)
	}
	sb.WriteString("</r>")
	return mapResolver{"d.xml": sb.String()}
}

// arenaTree is the tree iteration k of the arena queries builds.
func arenaTree(k int) string { return fmt.Sprintf(`<t i="%d"><c>%d</c></t>`, k, k) }

// TestRunArenaConstructedTrees: one run builds 300 trees from its builder's
// shared chunks, and each still behaves as a tree of its own.
func TestRunArenaConstructedTrees(t *testing.T) {
	t.Run("fault-keeps-earlier-trees", testArenaFault)
	t.Run("chunk-count", testArenaChunkCount)

	docs := arenaDocs()
	res := run(t, docs, `for $x in doc("d.xml")/child::r/child::x
	 return <t>{$x/attribute::i}<c>{string($x/attribute::i)}</c></t>`)
	if len(res) != 300 {
		t.Fatalf("%d trees, want 300", len(res))
	}
	roots := make([]*xdm.Node, len(res))
	uris := map[string]bool{}
	for k, it := range res {
		n := it.(*xdm.Node)
		roots[k] = n
		if got := xdm.SerializeString(n); got != arenaTree(k+1) {
			t.Fatalf("tree %d: %s, want %s", k+1, got, arenaTree(k+1))
		}
		if n.Parent == nil || n.Parent != n.Doc.Root || n.RootNode() != n.Doc.Root {
			t.Fatalf("tree %d: root() is not its own document node", k+1)
		}
		if uris[n.Doc.URI] {
			t.Fatalf("tree %d: document URI %s repeats", k+1, n.Doc.URI)
		}
		uris[n.Doc.URI] = true
		if k > 0 && (roots[k-1] == n || xdm.Compare(roots[k-1], n) >= 0) {
			t.Fatalf("tree %d does not follow tree %d in document order", k+1, k)
		}
		n.WalkDescendants(func(d *xdm.Node) bool {
			if cap(d.Children) != len(d.Children) || cap(d.Attrs) != len(d.Attrs) {
				t.Fatalf("tree %d: a window's capacity exceeds its length", k+1)
			}
			return true
		})
	}
	// The same order as the evaluator's << sees it, and root() per tree.
	expect(t, docs, `let $ts := for $x in doc("d.xml")/child::r/child::x return <t/>
	 return (count(for $a in $ts, $b in $ts where $a << $b and $b << $a return $a),
	         count(for $a in $ts where root($a) is root($ts[1]) return $a))`, "0 1")

	// Appending to one tree's element must not write into its neighbour's
	// window of the same chunk.
	roots[5].Children[0].AppendChild(xdm.NewText("!"))
	roots[5].AppendChild(xdm.NewElement("extra"))
	for _, k := range []int{4, 6} {
		if got := xdm.SerializeString(roots[k]); got != arenaTree(k+1) {
			t.Fatalf("tree %d changed when tree 6 grew: %s", k+1, got)
		}
	}
}

// testArenaFault: a fault in iteration k of a streamed run leaves the k−1
// trees it already returned intact.
func testArenaFault(t *testing.T) {
	q, err := xq.ParseQuery(`for $x in doc("d.xml")/child::r/child::x
	 return if ($x/attribute::i = "150") then <t>{"late", attribute a {"1"}}</t>
	        else <t>{$x/attribute::i}<c>{string($x/attribute::i)}</c></t>`)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := NewEngine(arenaDocs()).QuerySeq(q)
	if err != nil {
		t.Fatal(err)
	}
	var got []*xdm.Node
	err = seq(func(it xdm.Item) bool {
		got = append(got, it.(*xdm.Node))
		return true
	})
	if err == nil || !strings.Contains(err.Error(), "attribute node after element content") {
		t.Fatalf("run error %v, want the attribute-after-content fault", err)
	}
	if len(got) != 149 {
		t.Fatalf("%d trees before the fault, want 149", len(got))
	}
	for k, n := range got {
		if s := xdm.SerializeString(n); s != arenaTree(k+1) || n.Parent != n.Doc.Root {
			t.Fatalf("tree %d after the fault: %s", k+1, s)
		}
	}
}

// testArenaChunkCount: a run's builder starts at most ⌈nodes/chunkCap⌉ and a
// few growing node chunks, as many window chunks, and one document chunk and
// one URI string per chunkCap trees — not arrays per tree.
func testArenaChunkCount(t *testing.T) {
	const trees, perTree = 300, 4 // <t i=".."><c>text</c></t>
	allocs := testing.AllocsPerRun(10, func() {
		var b treeBuilder
		for k := 0; k < trees; k++ {
			b.open("t", false)
			b.attr("i", "v")
			b.open("c", true)
			b.text("x")
			b.close()
			b.close()
			b.finish(0)
		}
	})
	growing := 3 // the 8-, 16- and 32-entry chunks before the cap
	nodeChunks := (trees*perTree+chunkCap-1)/chunkCap + growing
	docChunks := (trees+chunkCap-1)/chunkCap + 1
	const builderSlices = 6 // ev and stack growing to a tree's events
	if ceiling := float64(2*nodeChunks + 2*docChunks + builderSlices); allocs > ceiling {
		t.Errorf("%.0f allocations for %d trees, ceiling %.0f", allocs, trees, ceiling)
	}
}
