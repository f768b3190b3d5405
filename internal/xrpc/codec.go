package xrpc

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"sync/atomic"

	"distxq/internal/projection"
	"distxq/internal/xdm"
)

var decodedDocSeq atomic.Uint64

// ---------------------------------------------------------------- encode --

// encodeState carries the fragment table built for one message and the
// buffer the message is written into.
type encodeState struct {
	wireBuf
	sem Semantics
	// paramUsed/paramReturned: relative projection paths per parameter
	// position (pass-by-projection requests) or a single entry for results.
	paramUsed     []projection.PathSet
	paramReturned []projection.PathSet
	projOpts      projection.Options

	frags []fragInfo
	// items and ranks size the buffer: the items of every sequence, and the
	// preorder ranks (xdm.Node.SubtreeSize) of every subtree the message will
	// serialize — fragment roots, or the node items themselves by value.
	items, ranks int
}

// resultEncoder starts the encoding of a message that carries result
// sequences (a response or a chunk frame): the projection paths, if any,
// apply to every result alike, as parameter position 0.
func resultEncoder(sem Semantics, used, returned projection.PathSet, opts projection.Options) *encodeState {
	st := &encodeState{sem: sem, projOpts: opts}
	if sem == ByProjection {
		st.paramUsed = []projection.PathSet{used}
		st.paramReturned = []projection.PathSet{returned}
	}
	return st
}

// fragInfo is one fragment of the preamble.
type fragInfo struct {
	// root is the serialized fragment root: an original node (by-fragment)
	// or a projected copy (by-projection).
	root *xdm.Node
	// origDoc/origRoot identify where the fragment came from.
	origDoc *xdm.Document
	// proj translates original nodes to projected copies (by-projection only).
	proj *projection.Projected
	// isDoc records that the fragment root is a document node.
	isDoc bool
	// ids numbers every node below root with its canonical nodeid, built by
	// one walk on the first reference to a node other than root, so encoding
	// n references costs O(size + n) instead of O(size × n).
	ids map[*xdm.Node]int
}

// idOf returns the canonical 1-based nodeid of target within the fragment
// (0 when target is not below the fragment root). A reference to the root
// itself — every reference of a scatter result — needs no table.
func (f *fragInfo) idOf(target *xdm.Node) int {
	if target == f.root {
		return 1
	}
	if f.ids == nil {
		f.ids = make(map[*xdm.Node]int, max(int(f.root.SubtreeSize()), 8))
		f.number(f.root, false, 0)
	}
	return f.ids[target]
}

// number records the nodeids of n's subtree, continuing after idx, and
// returns the last id used. Adjacent text siblings share one nodeid: a
// re-parsed serialization merges them.
func (f *fragInfo) number(n *xdm.Node, prevWasText bool, idx int) int {
	if !(n.Kind == xdm.TextNode && prevWasText) {
		idx++
	}
	f.ids[n] = idx
	prevText := false
	for _, c := range n.Children {
		idx = f.number(c, prevText, idx)
		prevText = c.Kind == xdm.TextNode
	}
	return idx
}

// docGroup is the shipped nodes of one source document, with the parameter
// position each came from.
type docGroup struct {
	doc    *xdm.Document
	nodes  []*xdm.Node
	params []int
}

// buildFragments collects every node item of every sequence and constructs
// the fragments preamble per the message semantics. paramOf[i], when given,
// is the parameter position of the i-th sequence (for per-parameter
// projection paths); calls × params are flattened.
func (st *encodeState) buildFragments(seqs []xdm.Sequence, paramOf []int) error {
	for _, s := range seqs {
		st.items += len(s)
	}
	var groups []docGroup
	// Most messages ship nodes of one document; the index exists only from
	// the second document on.
	var index map[*xdm.Document]int
	cur := -1
	for si, s := range seqs {
		for _, it := range s {
			n, isNode := it.(*xdm.Node)
			if !isNode {
				continue
			}
			if st.sem == ByValue {
				st.ranks += int(n.SubtreeSize())
				continue
			}
			if n.Doc == nil {
				return fmt.Errorf("xrpc: cannot ship node %q outside a frozen document", n.Name)
			}
			if cur < 0 || groups[cur].doc != n.Doc {
				if index == nil && len(groups) > 0 {
					index = map[*xdm.Document]int{groups[0].doc: 0}
				}
				gi, known := index[n.Doc]
				if !known {
					gi = len(groups)
					groups = append(groups, docGroup{doc: n.Doc, nodes: make([]*xdm.Node, 0, len(s))})
					if index != nil {
						index[n.Doc] = gi
					}
				}
				cur = gi
			}
			g := &groups[cur]
			g.nodes = append(g.nodes, n)
			if st.sem == ByProjection {
				p := 0
				if paramOf != nil {
					p = paramOf[si]
				}
				g.params = append(g.params, p)
			}
		}
	}
	if len(groups) > 1 {
		slices.SortFunc(groups, func(a, b docGroup) int { return cmp.Compare(a.doc.Seq(), b.doc.Seq()) })
	}
	for gi := range groups {
		g := &groups[gi]
		switch st.sem {
		case ByFragment:
			// One fragment per maximal node: a shipped node nested in
			// another shipped node reuses the outer fragment (§V).
			roots := maximalNodes(g.nodes)
			st.frags = slices.Grow(st.frags, len(roots))
			for _, r := range roots {
				st.ranks += int(r.SubtreeSize())
				st.frags = append(st.frags, fragInfo{
					root:    r,
					origDoc: g.doc,
					isDoc:   r.Kind == xdm.DocumentNode,
				})
			}
		case ByProjection:
			// One projected fragment per source document, rooted at the LCA
			// that the projection post-processing determines.
			var used, returned []*xdm.Node
			for p := 0; p <= slices.Max(g.params); p++ {
				var nodes []*xdm.Node
				for i, n := range g.nodes {
					if g.params[i] == p {
						nodes = append(nodes, n)
					}
				}
				if len(nodes) == 0 {
					continue
				}
				var uPaths, rPaths projection.PathSet
				if p < len(st.paramUsed) {
					uPaths = st.paramUsed[p]
				}
				if p < len(st.paramReturned) {
					rPaths = st.paramReturned[p]
				}
				ctx := normalizeCtx(nodes)
				used = append(used, projection.EvalPaths(ctx, uPaths)...)
				returned = append(returned, projection.EvalPaths(ctx, rPaths)...)
				// Shipped nodes must exist in the fragment as reference
				// targets, but only as used nodes: whether their subtrees
				// travel is exactly what the returned paths decide (§VI —
				// "until now, when sending nodes, we had to serialize all
				// descendants").
				used = append(used, nodes...)
			}
			used = xdm.SortDocOrder(used)
			returned = xdm.SortDocOrder(returned)
			proj, err := projection.Project(used, returned, g.doc, st.projOpts)
			if err != nil {
				return err
			}
			st.ranks += proj.Doc.NodeCount()
			st.frags = append(st.frags, fragInfo{
				root:    proj.Root,
				origDoc: g.doc,
				proj:    proj,
				isDoc:   proj.Root.Kind == xdm.DocumentNode,
			})
		}
	}
	return nil
}

// normalizeCtx replaces attribute nodes by their owners for path evaluation
// (projection paths navigate from elements; the attribute itself is added to
// the returned set separately by the caller).
func normalizeCtx(nodes []*xdm.Node) []*xdm.Node {
	out := make([]*xdm.Node, 0, len(nodes))
	for _, n := range nodes {
		if n.Kind == xdm.AttributeNode {
			out = append(out, n.Parent)
			continue
		}
		out = append(out, n)
	}
	return xdm.SortDocOrder(out)
}

// maximalNodes returns the nodes of set (all of one document) that have no
// proper ancestor in set, in document order; an attribute is shipped via its
// owner element's fragment. It sorts set in place.
func maximalNodes(set []*xdm.Node) []*xdm.Node {
	sorted := xdm.SortDocOrder(set)
	out := make([]*xdm.Node, 0, len(sorted))
	for _, n := range sorted {
		if n.Kind == xdm.AttributeNode && n.Parent != nil {
			n = n.Parent
		}
		// In document order a node's ancestors precede it and everything
		// after an ancestor's subtree follows it, so only the last maximal
		// node can cover n.
		if k := len(out); k > 0 && (out[k-1] == n || out[k-1].IsAncestorOf(n)) {
			continue
		}
		out = append(out, n)
	}
	return out
}

// grow sizes the message buffer before the first byte is written. fixed is
// the header text the caller knows exactly; framing, item references and
// fragment wrappers have known sizes; only node content is estimated, from
// the preorder ranks buildFragments counted, at 20 bytes a rank (measured:
// 13 on XMark names, 20–34 on whole persons and auctions). An estimate that
// falls short costs one append growth, nothing else.
func (st *encodeState) grow(fixed int) {
	n := fixed + 320 + 40*st.items + 20*st.ranks
	for i := range st.frags {
		n += 48
		if d := st.frags[i].origDoc; d != nil {
			n += len(d.URI)
		}
	}
	st.b = make([]byte, 0, n)
}

// refFor locates the fragment reference of a node; ok=false means the node
// is not covered by any fragment (caller falls back to by-value copying —
// only happens for by-value semantics).
func (st *encodeState) refFor(n *xdm.Node) (fragid, nodeid int, attrName string, ok bool) {
	target := n
	if n.Kind == xdm.AttributeNode {
		attrName = n.Name
		target = n.Parent
	}
	for fi := range st.frags {
		f := &st.frags[fi]
		if f.origDoc != target.Doc && f.proj == nil {
			continue
		}
		var within *xdm.Node
		if f.proj != nil {
			// D′ holds nothing above its root, so every copy is within.
			if within = f.proj.CopyOf(target); within == nil {
				continue
			}
		} else {
			if f.root != target && !f.root.IsAncestorOf(target) {
				continue
			}
			within = target
		}
		id := f.idOf(within)
		if id == 0 {
			continue
		}
		return fi + 1, id, attrName, true
	}
	return 0, 0, "", false
}

// writeFragments emits the fragments preamble.
func (st *encodeState) writeFragments() {
	if len(st.frags) == 0 {
		st.str("<" + elFragments + "/>")
		return
	}
	st.str("<" + elFragments + ">")
	for i := range st.frags {
		f := &st.frags[i]
		st.str("<" + elFragment + ` base-uri="`)
		if f.origDoc != nil {
			st.attr(f.origDoc.URI)
		}
		if f.isDoc {
			st.str(`" kind="document">`)
		} else {
			st.str(`">`)
		}
		st.node(f.root)
		st.str("</" + elFragment + ">")
	}
	st.str("</" + elFragments + ">")
}

// writeSequence emits one xrpc:sequence for a value sequence.
func (st *encodeState) writeSequence(s xdm.Sequence) error {
	st.str("<" + elSequence + ">")
	for _, it := range s {
		switch v := it.(type) {
		case xdm.Atomic:
			st.atomic(v)
		case *xdm.Node:
			if st.sem == ByValue {
				st.valueCopy(v)
				continue
			}
			fragid, nodeid, attrName, ok := st.refFor(v)
			if !ok {
				return fmt.Errorf("xrpc: node %s not covered by any fragment", v.Name)
			}
			st.str("<")
			st.str(refElName(v.Kind))
			st.str(` fragid="`)
			st.num(int64(fragid))
			st.str(`" nodeid="`)
			st.num(int64(nodeid))
			if attrName != "" {
				st.str(`" name="`)
				st.attr(attrName)
			}
			st.str(`"/>`)
		}
	}
	st.str("</" + elSequence + ">")
	return nil
}

func refElName(k xdm.Kind) string {
	switch k {
	case xdm.AttributeNode:
		return elAttribute
	case xdm.TextNode:
		return elTextNode
	case xdm.CommentNode:
		return elCommentEl
	case xdm.DocumentNode:
		return elDocumentEl
	default:
		return elElement
	}
}

// valueCopy serializes a deep copy of a node (pass-by-value, Fig. 1).
func (w *wireBuf) valueCopy(n *xdm.Node) {
	base := ""
	if n.Doc != nil {
		base = n.Doc.URI
	}
	switch n.Kind {
	case xdm.AttributeNode:
		w.str("<" + elAttribute + ` name="`)
		w.attr(n.Name)
		w.str(`" value="`)
		w.attr(n.Text)
		w.str(`" base-uri="`)
		w.attr(base)
		w.str(`"/>`)
	case xdm.TextNode:
		w.str("<" + elTextNode + ">")
		w.text(n.Text)
		w.str("</" + elTextNode + ">")
	case xdm.CommentNode:
		w.str("<" + elCommentEl + ">")
		w.text(n.Text)
		w.str("</" + elCommentEl + ">")
	default:
		el := elElement
		if n.Kind == xdm.DocumentNode {
			el = elDocumentEl
		}
		w.str("<")
		w.str(el)
		w.str(` base-uri="`)
		w.attr(base)
		w.str(`">`)
		w.node(n)
		w.str("</")
		w.str(el)
		w.str(">")
	}
}

// ---------------------------------------------------------------- decode --

// Decoding leans on how xdm.ParseBytes lays a message out: nodes and their
// Children/Attrs arrays sit in slabs owned by the message tree, each array
// capped at its length. Adopting a fragment therefore moves no nodes — the
// fresh document takes over the fragment element's child array as it is —
// and the decoded nodes keep the message's slabs (and the one string copy
// of its bytes) alive for as long as a query result references them. Nothing
// is recycled: who holds a decoded node holds its memory.

// decodeState resolves references against decoded fragment documents.
type decodeState struct {
	fragRoots []*xdm.Node // numbering roots, one per fragment
	fragDocs  []*xdm.Document
	// fragNodes memoizes, per fragment, the descendant-or-self sequence of
	// its numbering root (attributes excluded), built by one walk on the
	// first reference below the root so decoding n references costs
	// O(size + n) instead of O(size × n). Decoded fragments went through the
	// parser, which already merged adjacent text siblings, so plain preorder
	// matches the encoder's canonical numbering.
	fragNodes [][]*xdm.Node
}

// nodeByID resolves the 1-based nodeid within fragment frag (0-based), or nil
// when the id is out of range. nodeid 1 is the numbering root itself and
// needs no table.
func (st *decodeState) nodeByID(frag, nodeid int) *xdm.Node {
	root := st.fragRoots[frag]
	if nodeid == 1 {
		return root
	}
	if st.fragNodes == nil {
		st.fragNodes = make([][]*xdm.Node, len(st.fragRoots))
	}
	tbl := st.fragNodes[frag]
	if tbl == nil {
		tbl = make([]*xdm.Node, 0, root.SubtreeSize())
		root.WalkDescendants(func(m *xdm.Node) bool {
			tbl = append(tbl, m)
			return true
		})
		st.fragNodes[frag] = tbl
	}
	if nodeid < 1 || nodeid > len(tbl) {
		return nil
	}
	return tbl[nodeid-1]
}

const fragmentURIPrefix = "xrpc-fragment://"

// fragmentURIs hands out the URIs of a message's n fragment documents,
// numbered consecutively from the process-wide sequence and cut from one
// string.
type fragmentURIs struct {
	rest string
	id   uint64
}

func newFragmentURIs(n int) fragmentURIs {
	last := decodedDocSeq.Add(uint64(n))
	u := fragmentURIs{id: last - uint64(n) + 1}
	b := make([]byte, 0, n*(len(fragmentURIPrefix)+decimalWidth(last)))
	for id := u.id; id <= last; id++ {
		b = strconv.AppendUint(append(b, fragmentURIPrefix...), id, 10)
	}
	u.rest = string(b)
	return u
}

func (u *fragmentURIs) next() string {
	w := len(fragmentURIPrefix) + decimalWidth(u.id)
	uri := u.rest[:w]
	u.rest = u.rest[w:]
	u.id++
	return uri
}

func decimalWidth(v uint64) int {
	w := 1
	for ; v >= 10; v /= 10 {
		w++
	}
	return w
}

// valueDocURI names the document of one decoded pass-by-value copy.
func valueDocURI() string {
	return "xrpc-value://" + strconv.FormatUint(decodedDocSeq.Add(1), 10)
}

// adoptInto moves the content of el — an element of the transient message
// tree — under the root of a fresh document: the child array changes owner
// (see the note above), Freeze renumbers the nodes for their new document.
func adoptInto(uri string, el *xdm.Node) *xdm.Document {
	d := xdm.NewDocument(uri)
	d.Root.Children, el.Children = el.Children, nil
	d.Freeze()
	return d
}

// decodeFragments parses the fragments preamble into fresh documents, in
// message order (which the encoder arranged to be original document order,
// preserving inter-fragment node ordering).
func decodeFragments(fragsEl *xdm.Node) (*decodeState, error) {
	st := &decodeState{}
	if fragsEl == nil || len(fragsEl.Children) == 0 {
		return st, nil
	}
	n := len(fragsEl.Children)
	st.fragRoots = make([]*xdm.Node, 0, n)
	st.fragDocs = make([]*xdm.Document, 0, n)
	uris := newFragmentURIs(n)
	for _, f := range fragsEl.Children {
		if f.Kind != xdm.ElementNode {
			continue
		}
		if !nameIs(f, elFragment) {
			return nil, fmt.Errorf("xrpc: unexpected %s in fragments", f.Name)
		}
		d := adoptInto(uris.next(), f)
		if base := attrOr(f, "base-uri", ""); base != "" {
			d.Root.BaseURI = base
		}
		numberingRoot := d.Root
		if attrOr(f, "kind", "") != "document" {
			// The fragment root is the first content node; text and comment
			// nodes are legal roots (a shipped text() result).
			if len(d.Root.Children) == 0 {
				return nil, fmt.Errorf("xrpc: empty fragment")
			}
			numberingRoot = d.Root.Children[0]
		}
		st.fragRoots = append(st.fragRoots, numberingRoot)
		st.fragDocs = append(st.fragDocs, d)
	}
	return st, nil
}

// decodeSequence rebuilds one xrpc:sequence element into a value sequence.
func (st *decodeState) decodeSequence(seqEl *xdm.Node) (xdm.Sequence, error) {
	var out xdm.Sequence
	if len(seqEl.Children) > 0 {
		out = make(xdm.Sequence, 0, len(seqEl.Children))
	}
	for _, item := range seqEl.Children {
		if item.Kind != xdm.ElementNode {
			continue
		}
		switch {
		case nameIs(item, elAtomic):
			a, err := parseAtomicEl(item)
			if err != nil {
				return nil, err
			}
			out = append(out, a)
		case isNodeItem(item):
			var n *xdm.Node
			var err error
			if item.Attr("fragid") != nil {
				n, err = st.resolveRef(item)
			} else {
				n, err = decodeValueCopy(item)
			}
			if err != nil {
				return nil, err
			}
			out = append(out, n)
		default:
			return nil, fmt.Errorf("xrpc: unexpected sequence item %s", item.Name)
		}
	}
	return out, nil
}

// isNodeItem reports whether a sequence item element stands for a node (a
// fragment reference or a by-value copy).
func isNodeItem(item *xdm.Node) bool {
	switch localName(item.Name) {
	case localName(elElement), localName(elAttribute), localName(elTextNode),
		localName(elCommentEl), localName(elDocumentEl):
		return true
	}
	return false
}

func (st *decodeState) resolveRef(item *xdm.Node) (*xdm.Node, error) {
	fragid, err := strconv.Atoi(attrOr(item, "fragid", ""))
	if err != nil || fragid < 1 || fragid > len(st.fragRoots) {
		return nil, fmt.Errorf("xrpc: bad fragid %q", attrOr(item, "fragid", ""))
	}
	nodeid, err := strconv.Atoi(attrOr(item, "nodeid", ""))
	if err != nil || nodeid < 1 {
		return nil, fmt.Errorf("xrpc: bad nodeid %q", attrOr(item, "nodeid", ""))
	}
	n := st.nodeByID(fragid-1, nodeid)
	if n == nil {
		return nil, fmt.Errorf("xrpc: nodeid %d out of range in fragment %d", nodeid, fragid)
	}
	if nameIs(item, elAttribute) {
		name := attrOr(item, "name", "")
		a := n.Attr(name)
		if a == nil {
			return nil, fmt.Errorf("xrpc: referenced attribute %q missing on %s", name, n.Name)
		}
		return a, nil
	}
	return n, nil
}

// decodeValueCopy materializes a pass-by-value item as its own document
// (each parameter is a separate XML fragment — exactly the semantics whose
// consequences §II catalogues).
func decodeValueCopy(item *xdm.Node) (*xdm.Node, error) {
	base := attrOr(item, "base-uri", "")
	switch "xrpc:" + localName(item.Name) {
	case elAttribute:
		a := xdm.NewAttr(attrOr(item, "name", ""), attrOr(item, "value", ""))
		a.BaseURI = base
		return a, nil
	case elTextNode, elCommentEl:
		d := xdm.NewDocument(valueDocURI())
		var n *xdm.Node
		if nameIs(item, elTextNode) {
			n = xdm.NewText(item.StringValue())
		} else {
			n = xdm.NewComment(item.StringValue())
		}
		n.BaseURI = base
		d.Root.AppendChild(n)
		d.Freeze()
		return n, nil
	case elDocumentEl, elElement:
		d := adoptInto(valueDocURI(), item)
		if base != "" {
			d.Root.BaseURI = base
		}
		if nameIs(item, elDocumentEl) {
			return d.Root, nil
		}
		for _, c := range d.Root.Children {
			if c.Kind == xdm.ElementNode {
				c.BaseURI = base
				return c, nil
			}
		}
		return nil, fmt.Errorf("xrpc: element copy without element content")
	}
	return nil, fmt.Errorf("xrpc: unknown copy item %s", item.Name)
}
