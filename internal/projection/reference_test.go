package projection

import (
	"fmt"
	"strings"
	"testing"

	"distxq/internal/xdm"
)

// refProjected is what the map-based builder produces: D′, its root, and the
// original→copy map (which also holds the copies of trimmed ancestors).
type refProjected struct {
	Doc  *xdm.Document
	Root *xdm.Node
	Map  map[*xdm.Node]*xdm.Node
}

// referenceProject is the node-by-node Algorithm 1 that Project replaced,
// kept as the differential oracle: the cursor walks the document in document
// order recording its decisions in node maps, the whole selected forest is
// copied with AppendChild, and post-processing trims the copy afterwards.
func referenceProject(used, returned []*xdm.Node, doc *xdm.Document, opt Options) (*refProjected, error) {
	for _, n := range append(append([]*xdm.Node(nil), used...), returned...) {
		if n.Doc != doc {
			return nil, fmt.Errorf("projection: node %s not in document %s", n.Name, doc.URI)
		}
	}
	isReturned := map[*xdm.Node]bool{}
	for _, n := range returned {
		isReturned[n] = true
	}
	keepAttr := map[*xdm.Node]bool{}
	inP := map[*xdm.Node]bool{}
	var P []*xdm.Node
	addP := func(n *xdm.Node) {
		if n.Kind == xdm.AttributeNode {
			keepAttr[n] = true
			n = n.Parent
		}
		if !inP[n] {
			inP[n] = true
			P = append(P, n)
		}
	}
	for _, n := range used {
		addP(n)
	}
	for _, n := range returned {
		addP(n)
	}
	P = xdm.SortDocOrder(P)

	selected := map[*xdm.Node]bool{}
	subtree := map[*xdm.Node]bool{}
	pi := 0
	cur := doc.Root
	for pi < len(P) && cur != nil {
		proj := P[pi]
		switch {
		case cur.IsAncestorOf(proj):
			selected[cur] = true
			cur = cur.NextInDocument()
		case proj == cur:
			selected[cur] = true
			if isReturned[cur] {
				subtree[cur] = true
				ret := cur
				cur = cur.Following()
				for pi+1 < len(P) && ret.IsAncestorOf(P[pi+1]) {
					pi++
				}
			} else {
				cur = cur.NextInDocument()
			}
			pi++
		default:
			cur = cur.Following()
		}
	}
	if pi < len(P) {
		return nil, fmt.Errorf("projection: cursor missed %d projection nodes", len(P)-pi)
	}

	out := &refProjected{Map: map[*xdm.Node]*xdm.Node{}}
	d := xdm.NewDocument(doc.URI + "#projected")
	out.Doc = d
	var build func(orig *xdm.Node, parent *xdm.Node, inSubtree bool)
	build = func(orig, parent *xdm.Node, inSubtree bool) {
		keep := inSubtree || selected[orig] || (opt.SchemaKeep != nil && opt.SchemaKeep(orig) && selected[orig.Parent])
		if !keep {
			return
		}
		var cp *xdm.Node
		if orig.Kind == xdm.DocumentNode {
			cp = parent
		} else {
			cp = &xdm.Node{Kind: orig.Kind, Name: orig.Name, Text: orig.Text, BaseURI: orig.BaseURI}
			parent.AppendChild(cp)
		}
		out.Map[orig] = cp
		for _, a := range orig.Attrs {
			if inSubtree || subtree[orig] || keepAttr[a] || opt.KeepAllAttributes {
				ca := xdm.NewAttr(a.Name, a.Text)
				ca.Parent = cp
				cp.Attrs = append(cp.Attrs, ca)
				out.Map[a] = ca
			}
		}
		for _, c := range orig.Children {
			build(c, cp, inSubtree || subtree[orig])
		}
	}
	build(doc.Root, d.Root, false)

	curO := doc.Root
	for {
		cp := out.Map[curO]
		if cp == nil || inP[curO] || keepAttr[curO] || len(cp.Children) != 1 {
			break
		}
		var nextO *xdm.Node
		for _, c := range curO.Children {
			if out.Map[c] != nil {
				nextO = c
				break
			}
		}
		if nextO == nil {
			break
		}
		curO = nextO
	}
	root := out.Map[curO]
	if root == nil {
		root = d.Root
	}
	if root != d.Root {
		d.Root.Children = []*xdm.Node{root}
		root.Parent = d.Root
	}
	d.Freeze()
	out.Root = root
	return out, nil
}

// fuzzNames are the element names fuzzDoc draws from: the semijoin's, plus
// c for the SchemaKeep option.
var fuzzNames = [4]string{"seller", "annotation", "author", "c"}

// semijoinPaths are the §VII semijoin's projection path sets.
var semijoinPaths = []string{
	`child::seller/attribute::person`,
	`attribute::id`,
	`child::annotation/child::author/descendant-or-self::node()`,
}

// fuzzDoc builds a small document from fuzz bytes: one byte per element
// picks its name, its id and person attributes and up to four children,
// each text, a comment or (to depth four) an element. It is parsed, so no
// two texts start out adjacent.
func fuzzDoc(data []byte) *xdm.Document {
	var sb strings.Builder
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		pos++
		return data[pos-1]
	}
	var elem func(depth int)
	elem = func(depth int) {
		b := next()
		name := fuzzNames[b%4]
		sb.WriteString("<" + name)
		if b&4 != 0 {
			fmt.Fprintf(&sb, ` id="i%d"`, pos)
		}
		if b&8 != 0 {
			sb.WriteString(` person="p"`)
		}
		sb.WriteString(">")
		for n := int(b>>4) % 5; n > 0 && pos < len(data); n-- {
			switch c := next(); {
			case c%4 == 0:
				fmt.Fprintf(&sb, "t%d", pos)
			case c%4 == 1:
				sb.WriteString("<!--c-->")
			case depth < 4:
				elem(depth + 1)
			}
		}
		sb.WriteString("</" + name + ">")
	}
	elem(0)
	return xdm.MustParseString(sb.String(), "fuzz.xml")
}

// fuzzNodes lists every node of d in document order, attributes included.
func fuzzNodes(d *xdm.Document) []*xdm.Node {
	var all []*xdm.Node
	d.Root.WalkDescendants(func(n *xdm.Node) bool {
		all = append(all, n)
		all = append(all, n.Attrs...)
		return true
	})
	return all
}

// ranks numbers the nodes of root's subtree in document order, attributes
// included and the skipped nodes left out.
func ranks(root *xdm.Node, skip map[*xdm.Node]bool) map[*xdm.Node]int {
	out := map[*xdm.Node]int{}
	root.WalkDescendants(func(n *xdm.Node) bool {
		if skip[n] {
			return true
		}
		out[n] = len(out)
		for _, a := range n.Attrs {
			out[a] = len(out)
		}
		return true
	})
	return out
}

// sameTree reports how the D′ of Project (got, with shells skipped) differs
// from the reference's D′ (want), or "" when the two trees match node for
// node.
func sameTree(got, want *xdm.Node, shell map[*xdm.Node]bool) string {
	if got.Kind != want.Kind || got.Name != want.Name || got.Text != want.Text || got.BaseURI != want.BaseURI {
		return fmt.Sprintf("%s %q/%q vs %s %q/%q", got.Kind, got.Name, got.Text, want.Kind, want.Name, want.Text)
	}
	if len(got.Attrs) != len(want.Attrs) {
		return fmt.Sprintf("<%s>: %d attributes vs %d", got.Name, len(got.Attrs), len(want.Attrs))
	}
	for i, a := range got.Attrs {
		if a.Name != want.Attrs[i].Name || a.Text != want.Attrs[i].Text {
			return fmt.Sprintf("<%s>: attribute %d differs", got.Name, i)
		}
	}
	var kids []*xdm.Node
	for _, c := range got.Children {
		if !shell[c] {
			kids = append(kids, c)
		}
	}
	if len(kids) != len(want.Children) {
		return fmt.Sprintf("<%s>: %d children vs %d", got.Name, len(kids), len(want.Children))
	}
	for i, c := range kids {
		if diff := sameTree(c, want.Children[i], shell); diff != "" {
			return diff
		}
	}
	return ""
}

// adjacentTexts reports whether n or a node below it has two text children
// in a row.
func adjacentTexts(n *xdm.Node) bool {
	for i, c := range n.Children {
		if c.Kind == xdm.TextNode && i > 0 && n.Children[i-1].Kind == xdm.TextNode || adjacentTexts(c) {
			return true
		}
	}
	return false
}

// FuzzProjectMatchesReference checks Project against the map-based builder it
// replaced, on small mixed-content documents with random used and returned
// subsets and options. The subsets are picked node by node and, like the
// codec does, by the semijoin's path sets evaluated from picked context
// elements. D′ must serialize identically and CopyOf must agree with the
// reference map for every original node. Where pruning leaves two kept texts
// adjacent in the reference, Project must instead keep exactly one empty
// shell between them and otherwise build the same tree.
//
// opts: bit 0 KeepAllAttributes, bit 1 SchemaKeep of c elements, bits 2–4
// the semijoin paths that add used nodes, bits 5–7 those that add returned
// nodes.
func FuzzProjectMatchesReference(f *testing.F) {
	// <c id><annotation><author person>t<seller/>t</author><c/></annotation></c>:
	// the semijoin's used id and returned author subtree from the root, then
	// the two texts shipped alone (a shell).
	semijoin := []byte{0x17, 0x02, 0x21, 0x02, 0x3a, 0x00, 0x02, 0x00, 0x00, 0x02, 0x03}
	f.Add(semijoin, uint64(0b1), uint64(0), uint64(0), uint8(0b100_010_00))
	f.Add(semijoin, uint64(0), uint64(0b1010_0000), uint64(0), uint8(0))
	// <annotation id><seller person><author person>t<author id/></author></seller><c/><!--c--></annotation>:
	// the seller's person used and the id returned, with both options.
	f.Add([]byte{0x45, 0x02, 0x18, 0x02, 0x2a, 0x00, 0x02, 0x06, 0x02, 0x03, 0x01}, uint64(0b1), uint64(0), uint64(0), uint8(0b010_001_11))
	f.Add([]byte{0xfe, 0x7d, 0x4c, 0x22, 0x91, 0x0a, 0x33, 0x58}, uint64(0), uint64(0xf0f0), uint64(0x0f0f), uint8(0b000_000_11))
	f.Fuzz(func(t *testing.T, data []byte, ctxBits, usedBits, retBits uint64, opts uint8) {
		d := fuzzDoc(data)
		var ctx, used, returned []*xdm.Node
		for i, n := range fuzzNodes(d)[1:] { // never the document node
			bit := uint64(1) << (i % 64)
			if ctxBits&bit != 0 && n.Kind == xdm.ElementNode {
				ctx = append(ctx, n)
			}
			if usedBits&bit != 0 {
				used = append(used, n)
			}
			if retBits&bit != 0 {
				returned = append(returned, n)
			}
		}
		for k, src := range semijoinPaths {
			p, err := ParsePath(src)
			if err != nil {
				t.Fatal(err)
			}
			if opts>>(2+k)&1 != 0 {
				used = append(append(used, EvalPaths(ctx, PathSet{p})...), ctx...)
			}
			if opts>>(5+k)&1 != 0 {
				returned = append(returned, EvalPaths(ctx, PathSet{p})...)
			}
		}
		used, returned = xdm.SortDocOrder(used), xdm.SortDocOrder(returned)
		opt := Options{KeepAllAttributes: opts&1 != 0}
		if opts&2 != 0 {
			opt.SchemaKeep = func(n *xdm.Node) bool { return n.Name == "c" }
		}
		got, err := Project(used, returned, d, opt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := referenceProject(used, returned, d, opt)
		if err != nil {
			t.Fatal(err)
		}

		copies := map[*xdm.Node]bool{}
		for _, n := range fuzzNodes(d) {
			if c := got.CopyOf(n); c != nil {
				copies[c] = true
			}
		}
		for _, n := range fuzzNodes(fuzzDoc(data)) { // same ranks, other nodes
			if c := got.CopyOf(n); c != nil {
				t.Fatalf("CopyOf(%s %q) of another document = %v", n.Kind, n.Name, c)
			}
		}
		shell := map[*xdm.Node]bool{}
		got.Root.WalkDescendants(func(n *xdm.Node) bool {
			if n != got.Doc.Root && !copies[n] {
				shell[n] = true
			}
			return true
		})
		gotRank, wantRank := ranks(got.Root, shell), ranks(want.Root, nil)
		for _, n := range fuzzNodes(d) {
			// The reference also maps the trimmed ancestors it copied (and
			// the document node); their copies are outside its projected root.
			c, w := got.CopyOf(n), want.Map[n]
			if _, inD := wantRank[w]; !inD {
				w = nil
			}
			if (c == nil) != (w == nil) || c != nil && (c.Kind != w.Kind || c.Doc != got.Doc || gotRank[c] != wantRank[w]) {
				t.Fatalf("CopyOf(%s %q pre=%d) = %v, reference %v", n.Kind, n.Name, n.Pre(), c, w)
			}
		}

		if !adjacentTexts(want.Root) {
			if len(shell) != 0 {
				t.Fatalf("%d shells where no texts meet", len(shell))
			}
			if g, w := xdm.SerializeString(got.Root), xdm.SerializeString(want.Root); g != w {
				t.Fatalf("D′ differs:\n got %s\nwant %s", g, w)
			}
		}
		for n := range shell {
			i := int(n.SiblingIndex())
			sibs := n.Parent.Children
			if n.Kind == xdm.TextNode || len(n.Children)+len(n.Attrs) != 0 || n.Text != "" ||
				i == 0 || i == len(sibs)-1 || sibs[i-1].Kind != xdm.TextNode || sibs[i+1].Kind != xdm.TextNode {
				t.Fatalf("shell %s %q is not one empty node between two texts: %s", n.Kind, n.Name, xdm.SerializeString(got.Root))
			}
		}
		if adjacentTexts(got.Root) {
			t.Fatalf("kept texts left adjacent: %s", xdm.SerializeString(got.Root))
		}
		if diff := sameTree(got.Root, want.Root, shell); diff != "" {
			t.Fatalf("D′ differs from the reference beyond shells: %s\n got %s\nwant %s", diff,
				xdm.SerializeString(got.Root), xdm.SerializeString(want.Root))
		}
	})
}
