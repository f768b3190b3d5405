package projection

import (
	"cmp"
	"fmt"
	"slices"

	"distxq/internal/eval"
	"distxq/internal/xdm"
	"distxq/internal/xq"
)

// Projected is the outcome of projecting a document: a fresh frozen document
// D′ holding the pruned copy and its post-processed root (the LCA of the
// projection nodes). CopyOf translates original nodes to their copies for
// fragment references.
type Projected struct {
	Doc  *xdm.Document
	Root *xdm.Node
	// copies pairs every original node D′ holds a copy of with that copy, in
	// document order of the originals.
	copies []nodeCopy
}

type nodeCopy struct{ orig, copy *xdm.Node }

// CopyOf returns the copy of an original node in D′, or nil when the
// projection pruned it (nodes above the projected root included).
func (p *Projected) CopyOf(orig *xdm.Node) *xdm.Node {
	i, found := slices.BinarySearchFunc(p.copies, orig.Pre(), func(c nodeCopy, pre int32) int {
		return cmp.Compare(c.orig.Pre(), pre)
	})
	if found && p.copies[i].orig == orig {
		return p.copies[i].copy
	}
	return nil
}

// Options tune the projection (schema-aware variant of §VI-B).
type Options struct {
	// KeepAllAttributes retains every attribute of kept elements, not just
	// the attributes in the projection node sets. XRPC's schema-respecting
	// mode uses this to avoid dropping mandatory attributes.
	KeepAllAttributes bool
	// SchemaKeep, when non-nil, reports elements that must not be pruned
	// even when outside the projection sets (the minOccurs>0 rule).
	SchemaKeep func(*xdm.Node) bool
}

// Marks, one byte per preorder rank of the source document (attributes have
// ranks too), record every decision Project takes; no node map is built.
const (
	mSel   uint8 = 1 << iota // a projection node or an ancestor of one
	mProj                    // in P: a used or returned node, or the owner of such an attribute
	mRet                     // a returned node: its whole subtree joins D′
	mKeep                    // copied into D′: a used or returned attribute, or marked by count
	mShell                   // kept as an empty separator of two kept texts (count)
)

// projector carries one Project call: the marks, then the slab D′ is cut from
// and the original→copy pairs the build appends.
type projector struct {
	marks  []uint8
	opt    Options
	slab   xdm.Slab
	copies []nodeCopy
}

// Project implements Algorithm 1 (RUNTIMEXMLPROJECTION): given the used node
// set U and returned node set R (both within the frozen doc), it computes the
// projected document D′ containing all used and returned nodes, the
// descendants of returned nodes, their ancestors, and nothing else;
// post-processing trims ancestors above the lowest common ancestor of the
// projection nodes.
//
// Algorithm 1's cursor walks the document in pre order to find the ancestors
// of each projection node. Over a frozen document the Parent links name them
// directly, so marking walks up from each projection node and stops at the
// first ancestor already selected: the same node set, in time proportional to
// P and D′ rather than to the nodes the cursor steps over. The trim then runs
// on the marks, and only the projected root's subtree is copied, from one
// slab sized by a count pass.
func Project(used, returned []*xdm.Node, doc *xdm.Document, opt Options) (*Projected, error) {
	if !doc.Frozen() {
		return nil, fmt.Errorf("projection: document %s is not frozen", doc.URI)
	}
	pr := projector{marks: make([]uint8, doc.NodeCount()), opt: opt}
	for set, nodes := range [2][]*xdm.Node{used, returned} {
		for _, n := range nodes {
			if n.Doc != doc {
				return nil, fmt.Errorf("projection: node %s not in document %s", n.Name, doc.URI)
			}
			pr.mark(n, set == 1)
		}
	}
	d := xdm.NewDocument(doc.URI + "#projected")
	out := &Projected{Doc: d, Root: d.Root}
	root := doc.Root
	if pr.marks[root.Pre()]&mSel == 0 {
		d.Freeze() // nothing to project
		return out, nil
	}
	// Post-processing (lines 24–27): descend from the root while the current
	// node is not itself a projection node and keeps exactly one child,
	// leaving the lowest common ancestor as the projected root.
	for pr.marks[root.Pre()]&mProj == 0 {
		var only *xdm.Node
		kept := 0
		for _, c := range root.Children {
			if pr.keeps(c) {
				only = c
				kept++
			}
		}
		if kept != 1 {
			break
		}
		root = only
	}
	n := pr.count(root)
	pr.slab.Reserve(n)
	pr.copies = make([]nodeCopy, 0, n)
	if root.Kind != xdm.DocumentNode {
		out.Root = pr.copyNode(root)
		d.Root.Children = pr.slab.Window(1)
		d.Root.Children[0] = out.Root
	}
	pr.build(root, out.Root, false)
	d.Freeze()
	out.copies = pr.copies
	return out, nil
}

// mark records one used or returned node: a selected projection node with
// its ancestors selected up to the first one already marked. An attribute is
// kept, and its owner becomes the projection node.
func (pr *projector) mark(n *xdm.Node, returned bool) {
	m := mProj
	if n.Kind == xdm.AttributeNode {
		pr.marks[n.Pre()] |= mKeep
		n = n.Parent
	} else if returned {
		m |= mRet
	}
	pr.marks[n.Pre()] |= m
	for ; n != nil && pr.marks[n.Pre()]&mSel == 0; n = n.Parent {
		pr.marks[n.Pre()] |= mSel
	}
}

// keeps reports whether D′ keeps c, a child of a selected node outside any
// returned subtree: selected, or required by the schema.
func (pr *projector) keeps(c *xdm.Node) bool {
	return pr.marks[c.Pre()]&mSel != 0 || (pr.opt.SchemaKeep != nil && pr.opt.SchemaKeep(c))
}

// count returns the number of nodes D′ holds for the kept node n (n, its kept
// attributes and descendants, and separators) and marks n's kept attributes
// and children for build. A returned subtree is kept whole; a schema-kept
// node that is not selected is kept as a leaf.
//
// Pruning can leave two kept text siblings adjacent, and a re-parsed
// serialization would merge them into one node. The first pruned non-text
// sibling between them therefore stays as an empty shell (kind and name
// only), so every kept text keeps its own identity on the wire.
func (pr *projector) count(n *xdm.Node) int {
	m := pr.marks[n.Pre()]
	if m&mRet != 0 {
		return int(n.SubtreeSize())
	}
	total := 1
	for _, a := range n.Attrs {
		if pr.opt.KeepAllAttributes || pr.marks[a.Pre()]&mKeep != 0 {
			pr.marks[a.Pre()] |= mKeep
			total++
		}
	}
	if m&mSel == 0 {
		return total
	}
	afterText := false // the last kept child is a text node
	var gap *xdm.Node  // the first pruned non-text sibling since then
	for _, c := range n.Children {
		if !pr.keeps(c) {
			if afterText && gap == nil && c.Kind != xdm.TextNode {
				gap = c
			}
			continue
		}
		pr.marks[c.Pre()] |= mKeep
		isText := c.Kind == xdm.TextNode
		if isText && gap != nil {
			pr.marks[gap.Pre()] |= mShell
			total++
		}
		afterText, gap = isText, nil
		total += pr.count(c)
	}
	return total
}

// copyNode takes a copy of orig from the slab, without attributes or
// children.
func (pr *projector) copyNode(orig *xdm.Node) *xdm.Node {
	cp := pr.slab.Node(orig.Kind, orig.Name, orig.Text)
	cp.BaseURI = orig.BaseURI
	return cp
}

// build fills cp, the copy of orig, with the attributes and children count
// marked (all of them inside a returned subtree), recording the pairs.
func (pr *projector) build(orig, cp *xdm.Node, all bool) {
	pr.copies = append(pr.copies, nodeCopy{orig, cp})
	all = all || pr.marks[orig.Pre()]&mRet != 0
	cp.Attrs = pr.fill(orig.Attrs, all)
	cp.Children = pr.fill(orig.Children, all)
}

// fill returns a slab window holding the copies and shells of the nodes of
// src that build keeps.
func (pr *projector) fill(src []*xdm.Node, all bool) []*xdm.Node {
	k := 0
	for _, c := range src {
		if all || pr.marks[c.Pre()]&(mKeep|mShell) != 0 {
			k++
		}
	}
	w := pr.slab.Window(k)
	k = 0
	for _, c := range src {
		switch {
		case all || pr.marks[c.Pre()]&mKeep != 0:
			w[k] = pr.copyNode(c)
			pr.build(c, w[k], all)
		case pr.marks[c.Pre()]&mShell != 0:
			w[k] = pr.slab.Node(c.Kind, c.Name, "")
		default:
			continue
		}
		k++
	}
	return w
}

// EvalPaths evaluates relative projection paths over a context node
// sequence, returning the union of their results in document order. root()
// jumps to tree roots; id()/idref() conservatively select every element
// carrying an ID (resp. IDREF) attribute in the tree, per §VI-B.
func EvalPaths(ctx []*xdm.Node, paths PathSet) []*xdm.Node {
	var out []*xdm.Node
	// Every step appends into one of two buffers that alternate between
	// steps and are reused across paths; step i reads what step i-1 wrote
	// (the context itself for the first step).
	var bufs [2][]*xdm.Node
	for _, p := range paths {
		cur := ctx
		for i, st := range p.Steps {
			next := bufs[i%2][:0]
			ordered := false
			switch st.Fn {
			case FnRoot:
				for _, n := range cur {
					next = append(next, n.RootNode())
				}
			case FnID:
				next = appendIDBearing(next, cur, []string{"id", "xml:id"})
			case FnIDRef:
				next = appendIDBearing(next, cur, []string{"idref", "idrefs"})
			default:
				// The evaluator's streaming precondition applies here too:
				// when the context is ordered and subtree-disjoint and the
				// axis only descends, per-node segments concatenate already
				// strictly increasing, so the sort pass can be skipped.
				// Streamed responses project every chunk independently, which
				// puts this loop on the per-frame hot path.
				ordered = downwardAxis(st.Axis) && xdm.OrderedDisjointNodes(cur)
				for _, n := range cur {
					next = eval.AxisNodes(next, n, st.Axis, st.Test)
				}
			}
			if !ordered {
				next = xdm.SortDocOrder(next)
			}
			bufs[i%2], cur = next, next
		}
		out = append(out, cur...)
	}
	return xdm.SortDocOrder(out)
}

// downwardAxis reports whether the axis selects only nodes within the
// context node's subtree (attributes included): the per-context-node result
// segments of such a step inherit document order from an ordered-disjoint
// context.
func downwardAxis(a xq.Axis) bool {
	switch a {
	case xq.AxisChild, xq.AxisAttribute, xq.AxisSelf, xq.AxisDescendant, xq.AxisDescendantOrSelf:
		return true
	}
	return false
}

// appendIDBearing appends, once per tree of the context, every element of
// that tree carrying one of the attributes.
func appendIDBearing(out, ctx []*xdm.Node, attrNames []string) []*xdm.Node {
	seenRoot := map[*xdm.Node]bool{}
	for _, n := range ctx {
		root := n.RootNode()
		if seenRoot[root] {
			continue
		}
		seenRoot[root] = true
		root.WalkDescendants(func(m *xdm.Node) bool {
			for _, an := range attrNames {
				if m.Attr(an) != nil {
					out = append(out, m)
					return true
				}
			}
			return true
		})
	}
	return out
}
