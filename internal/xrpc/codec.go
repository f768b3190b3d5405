package xrpc

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"distxq/internal/projection"
	"distxq/internal/trace"
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

	// frags keeps its array across the frames of a stream, which share one
	// encodeState: a run-scoped arena.
	frags []fragInfo
	// items and ranks size the buffer: the items of every sequence, and the
	// preorder ranks (xdm.Node.SubtreeSize) of every subtree the message will
	// serialize — fragment roots, or the node items themselves by value.
	items, ranks int
	scans        int // by-fragment references refFor located by a scan (unranked nodes)
}

// resultEncoder starts the encoding of a message that carries result
// sequences (a response or a chunk frame): the projection paths, if any,
// apply to every result alike, as parameter position 0.
func resultEncoder(sem Semantics, used, returned projection.PathSet, opts projection.Options) encodeState {
	st := encodeState{sem: sem, projOpts: opts}
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
	// Most messages ship nodes of one document, whose group needs no heap;
	// the index exists only from the second document on.
	var one [1]docGroup
	groups := one[:0]
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
// owner element's fragment. It sorts and compacts set in place.
func maximalNodes(set []*xdm.Node) []*xdm.Node {
	sorted := xdm.SortDocOrder(set)
	out := sorted[:0]
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
	lo := 0
	if st.sem == ByFragment && target.SubtreeSize() > 0 {
		// buildFragments sorts the fragments by (document, pre) and keeps them
		// disjoint: only the last one starting at or before target can hold it.
		lo = max(sort.Search(len(st.frags), func(i int) bool {
			f := st.frags[i].root
			return cmp.Or(cmp.Compare(f.Doc.Seq(), target.Doc.Seq()), cmp.Compare(f.Pre(), target.Pre())) > 0
		})-1, 0)
	} else if st.sem == ByFragment {
		st.scans++
	}
	for fi := lo; fi < len(st.frags); fi++ {
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

// Decoding is one pass of an xdm.Scanner over the message. The envelope,
// body, payload, fragments, call, sequence and item elements are tokens,
// their attributes read straight off the scanner; only fragment content and
// by-value copies become nodes, filled into fresh documents from the
// scanner's one arena, sized from the bytes of the content it will hold. A
// message's fragment documents come from one slab (xdm.Documents). Nothing
// is recycled: decoded names and text alias the one string copy of the
// message, and a decoded node keeps its arena slabs, its document slab and
// that copy alive for as long as a query result references it.
type decoder struct {
	sc xdm.Scanner
	// frags holds the numbering root of each fragment: the document node of
	// a kind="document" fragment, the first content node of any other.
	frags     []*xdm.Node
	fragsRead bool // the first xrpc:fragments element has been decoded
	// tables memoizes, per fragment, the descendant-or-self sequence of its
	// numbering root (attributes excluded), built by one walk on the first
	// reference below the root, so n references cost O(size + n). The
	// scanner merges adjacent text runs, so plain preorder matches the
	// encoder's canonical numbering.
	tables [][]*xdm.Node
	// left counts the items of the current sequence not yet decoded; copies
	// and copyURIs hold the documents its by-value copies fill, cut from one
	// slab sized by the items left when the first copy arrives.
	left     int
	copies   xdm.Documents
	copyURIs xdm.URIs
	// raw keeps fragments as bytes (raws); any but a whole-fragment reference ends the pass.
	raw      bool
	raws     []xdm.Raw
	rawItems int64
}

// FallbackCauses end a raw pass for the message to decode in full (RawCounts.Fallbacks).
var FallbackCauses = [...]error{errors.New("inner-or-attribute-reference"), errors.New("non-canonical-fragment")}

// decode decodes data with parse, in d reset: raw first for a call whose results are only
// returned (xq.XRPCExpr.ReturnedOnly), and again in full on a fallback cause, as counts records.
func decode[T any](d *decoder, data []byte, returned bool, counts *RawCounts, parse func(*decoder, []byte) (T, error)) (T, error) {
	*d = decoder{raw: returned}
	v, err := parse(d, data)
	if !returned {
		return v, err
	}
	for i, cause := range FallbackCauses {
		if errors.Is(err, cause) {
			counts.Fallbacks[i]++
			*d = decoder{}
			return parse(d, data)
		}
	}
	counts.Items += d.rawItems
	return v, err
}

// attr returns the current start tag's attribute name, def when it has none.
func (d *decoder) attr(name, def string) string {
	if v, ok := d.sc.Attr(name); ok {
		return v
	}
	return def
}

// first reports whether an element is the first of its name, which is the
// one that counts wherever a name may appear once.
func first(seen *bool) bool {
	f := !*seen
	*seen = true
	return f
}

// spans decodes the piggybacked-span element just started into to.
func (d *decoder) spans(to *[]trace.Span) error {
	s, err := d.sc.StringValue()
	*to = decodeSpans(s)
	return err
}

// children runs f on each child element of the element whose start tag was
// just read (at depth 0, of the message) and reads past its end; f must read
// past the end of its child.
func (d *decoder) children(f func(name string) error) error {
	for depth := d.sc.Depth(); ; {
		switch tok, err := d.sc.Next(); {
		case err != nil:
			return err
		case tok == xdm.StartTag:
			if err := f(d.sc.Name); err != nil {
				return err
			}
		case tok == xdm.EOF || tok == xdm.EndTag && d.sc.Depth() < depth:
			return nil
		}
	}
}

// shred scans the whole message, so only a well-formed one decodes. payload
// runs on the first child of the first Body of the first (Envelope)
// element, with want's local name, and must read past its end; a Fault
// anywhere in that Body is returned instead. Anything else is skipped.
func (d *decoder) shred(data []byte, what, want string, payload func() error) error {
	d.sc.Reset(string(data), want)
	var fault *Fault
	env, body, found := false, false, false
	err := d.children(func(name string) error {
		if !first(&env) {
			return d.sc.Skip()
		} else if localName(name) != "Envelope" {
			return fmt.Errorf("xrpc: not a SOAP envelope")
		}
		return d.children(func(name string) error {
			if localName(name) != "Body" || !first(&body) {
				return d.sc.Skip()
			}
			return d.children(func(name string) (err error) {
				switch local := localName(name); {
				case fault == nil && local == "Fault":
					fault, err = d.fault()
				case fault == nil && local == localName(want) && first(&found):
					err = payload()
				default:
					err = d.sc.Skip()
				}
				return err
			})
		})
	})
	switch {
	case d.sc.Err() != nil:
		return fmt.Errorf("xrpc: malformed %s: %w", what, d.sc.Err())
	case err != nil:
		return err
	case !env:
		return fmt.Errorf("xrpc: not a SOAP envelope")
	case !body:
		return fmt.Errorf("xrpc: envelope without body")
	case fault != nil:
		return fault
	case !found:
		return fmt.Errorf("xrpc: body lacks %s", want)
	}
	return nil
}

// payload runs f on each child of the payload element just started but the
// fragments preamble: the first one it decodes, later ones it skips.
// Children with the local name refs hold references into the fragments,
// and the encoder writes them after the preamble; one that comes first is
// put off, and once the payload has been read to its end (decoding a
// preamble that follows), it is read again from there, for its refs alone.
func (d *decoder) payload(refs string, f func(name string) error) error {
	pos, depth := -1, 0
	err := d.children(func(name string) error {
		switch local := localName(name); {
		case local == "fragments" && first(&d.fragsRead):
			return d.fragments(name)
		case local == "fragments":
			return d.sc.Skip()
		case local == refs && (pos >= 0 || !d.fragsRead):
			if pos < 0 {
				pos, depth = d.sc.Mark()
			}
			return d.sc.Skip()
		}
		return f(name)
	})
	if err != nil || pos < 0 {
		return err
	}
	d.sc.Rewind(pos, depth)
	return d.children(func(name string) error {
		if localName(name) != refs {
			return d.sc.Skip()
		}
		return f(name)
	})
}

// fragments decodes the preamble just started, in message order (which the
// encoder arranged to be original document order, preserving
// inter-fragment node ordering): each fragment's content fills a fresh
// document, all of them cut from one slab — or, decoding raw, stays bytes.
func (d *decoder) fragments(name string) error {
	k := d.sc.Reserve("<" + strings.TrimSuffix(name, "s"))
	if d.raw { // the fragments stay bytes: no documents
		d.raws, k = make([]xdm.Raw, 0, k), 0
	}
	docs, uris := make(xdm.Documents, k), xdm.NewURIs(&decodedDocSeq, fragmentURIPrefix, k)
	d.frags = make([]*xdm.Node, 0, k)
	return d.children(func(name string) error {
		if localName(name) != "fragment" {
			return fmt.Errorf("xrpc: unexpected %s in fragments", name)
		}
		base, isDoc := d.attr("base-uri", ""), d.attr("kind", "") == "document"
		if d.raw {
			xml, kind, ok, err := d.sc.Canonical(isDoc)
			if err == nil && !ok {
				err = FallbackCauses[1]
			}
			d.raws = append(d.raws, xdm.Raw{Kind: kind, XML: xml})
			return err
		}
		doc := docs.New(uris.Next())
		if err := d.sc.Fill(doc.Root); err != nil {
			return err
		}
		doc.Root.BaseURI = base
		doc.Freeze()
		root := doc.Root
		if !isDoc {
			// The fragment root is the first content node; text and
			// comment nodes are legal roots (a shipped text() result).
			if len(root.Children) == 0 {
				return fmt.Errorf("xrpc: empty fragment")
			}
			root = root.Children[0]
		}
		d.frags = append(d.frags, root)
		return nil
	})
}

// nodeByID resolves the 1-based nodeid within fragment frag (0-based), or nil
// when the id is out of range. nodeid 1 is the numbering root itself and
// needs no table.
func (d *decoder) nodeByID(frag, nodeid int) *xdm.Node {
	root := d.frags[frag]
	if nodeid == 1 {
		return root
	}
	if d.tables == nil {
		d.tables = make([][]*xdm.Node, len(d.frags))
	}
	tbl := d.tables[frag]
	if tbl == nil {
		tbl = make([]*xdm.Node, 0, root.SubtreeSize())
		root.WalkDescendants(func(m *xdm.Node) bool {
			tbl = append(tbl, m)
			return true
		})
		d.tables[frag] = tbl
	}
	if nodeid < 1 || nodeid > len(tbl) {
		return nil
	}
	return tbl[nodeid-1]
}

// sequence decodes the items of the xrpc:sequence just started, named name;
// its items are counted, and its by-value copies sized, from its bytes.
func (d *decoder) sequence(name string) (xdm.Sequence, error) {
	n := d.sc.Reserve("<" + name[:strings.IndexByte(name, ':')+1])
	var out xdm.Sequence
	if n > 0 {
		out = make(xdm.Sequence, 0, n)
	}
	err := d.children(func(name string) error {
		d.left = n - len(out)
		it, err := d.item(name)
		out = append(out, it)
		return err
	})
	return out, err
}

// item decodes the sequence item just started: an atomic value, a fragment
// reference or a by-value copy.
func (d *decoder) item(name string) (xdm.Item, error) {
	switch local := localName(name); local {
	case "atomic-value":
		tname := d.attr("type", "xs:string")
		s, err := d.sc.StringValue()
		if err != nil {
			return nil, err
		}
		a, err := parseAtomic(tname, s)
		return a, err
	case "element", "attribute", "text", "comment", "document":
		if _, ok := d.sc.Attr("fragid"); ok {
			return d.ref(local)
		}
		return d.valueCopy(local)
	}
	return nil, fmt.Errorf("xrpc: unexpected sequence item %s", name)
}

// ref resolves the fragid/nodeid reference just started.
func (d *decoder) ref(local string) (xdm.Item, error) {
	fid, nid, aname := d.attr("fragid", ""), d.attr("nodeid", ""), d.attr("name", "")
	if err := d.sc.Skip(); err != nil {
		return nil, err
	}
	fragid, err := strconv.Atoi(fid)
	if d.raw {
		if err != nil || fragid < 1 || fragid > len(d.raws) || nid != "1" || local == "attribute" {
			return nil, FallbackCauses[0]
		}
		d.rawItems++
		return &d.raws[fragid-1], nil
	}
	if err != nil || fragid < 1 || fragid > len(d.frags) {
		return nil, fmt.Errorf("xrpc: bad fragid %q", fid)
	}
	nodeid, err := strconv.Atoi(nid)
	if err != nil || nodeid < 1 {
		return nil, fmt.Errorf("xrpc: bad nodeid %q", nid)
	}
	n := d.nodeByID(fragid-1, nodeid)
	if n == nil {
		return nil, fmt.Errorf("xrpc: nodeid %d out of range in fragment %d", nodeid, fragid)
	}
	if local != "attribute" {
		return n, nil
	}
	if a := n.Attr(aname); a != nil {
		return a, nil
	}
	return nil, fmt.Errorf("xrpc: referenced attribute %q missing on %s", aname, n.Name)
}

// valueCopy materializes the pass-by-value item just started as its own
// document (each parameter is a separate XML fragment — exactly the
// semantics whose consequences §II catalogues), cut from the sequence's
// slab.
func (d *decoder) valueCopy(local string) (xdm.Item, error) {
	base := d.attr("base-uri", "")
	if local == "attribute" {
		a := xdm.NewAttr(d.attr("name", ""), d.attr("value", ""))
		a.BaseURI = base
		return a, d.sc.Skip()
	}
	if len(d.copies) == 0 {
		k := max(d.left, 1)
		d.copies, d.copyURIs = make(xdm.Documents, k), xdm.NewURIs(&decodedDocSeq, valueURIPrefix, k)
	}
	doc := d.copies.New(d.copyURIs.Next())
	if local == "text" || local == "comment" {
		s, err := d.sc.StringValue()
		var n *xdm.Node
		if local == "text" {
			n = xdm.NewText(s)
		} else {
			n = xdm.NewComment(s)
		}
		n.BaseURI = base
		doc.Root.AppendChild(n)
		doc.Freeze()
		return n, err
	}
	if err := d.sc.Fill(doc.Root); err != nil {
		return nil, err
	}
	doc.Root.BaseURI = base
	doc.Freeze()
	if local == "document" {
		return doc.Root, nil
	}
	for _, c := range doc.Root.Children {
		if c.Kind == xdm.ElementNode {
			c.BaseURI = base
			return c, nil
		}
	}
	return nil, fmt.Errorf("xrpc: element copy without element content")
}

// decodeSpans decodes piggybacked spans. Trace data is advisory and never
// fails a message: malformed spans decode as none.
func decodeSpans(s string) []trace.Span {
	spans, err := trace.DecodeSpans([]byte(s))
	if err != nil {
		return nil
	}
	return spans
}

// fault decodes the env:Fault just started: its message is the string value
// of its first env:Reason, else its own; env:Code types it, and xrpc:trace
// carries the server's spans.
func (d *decoder) fault() (*Fault, error) {
	f := &Fault{}
	all, reason, code, traced := "", false, false, false
	for depth := d.sc.Depth(); ; {
		switch tok, err := d.sc.Next(); {
		case err != nil:
			return nil, err
		case tok == xdm.CharData:
			all += d.sc.Text
		case tok == xdm.StartTag:
			local := localName(d.sc.Name)
			v, _ := d.sc.StringValue() // an error sticks: Next returns it
			all += v
			switch {
			case local == "Reason" && first(&reason):
				f.Msg = v
			case local == "Code" && first(&code):
				f.Code = v
			case local == "trace" && first(&traced):
				f.Spans = decodeSpans(v)
			}
		case tok == xdm.EndTag && d.sc.Depth() < depth:
			if !reason {
				f.Msg = all
			}
			return f, nil
		}
	}
}

// The URI schemes of decoded documents, shipped fragments and by-value
// copies, numbered from decodedDocSeq a message's batch at a time
// (xdm.URIs).
const (
	fragmentURIPrefix = "xrpc-fragment://"
	valueURIPrefix    = "xrpc-value://"
)
