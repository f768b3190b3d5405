// Package xdm implements the XQuery Data Model subset needed for distributed
// XQuery processing: XML documents and nodes with stable identity and global
// document order, atomic values, and sequences.
//
// Nodes are identified by pointer: two *Node values are the same XML node
// exactly when the pointers are equal. Document order is total across all
// documents in a process: nodes within one document are ordered by preorder
// rank, and documents are ordered by creation sequence, matching the
// implementation-defined but stable inter-document ordering that XQuery
// requires.
package xdm

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
)

// Kind enumerates the node kinds of the data model.
type Kind uint8

const (
	// DocumentNode is the invisible root above the document element.
	DocumentNode Kind = iota
	// ElementNode is an XML element.
	ElementNode
	// AttributeNode is an attribute; it lives in its owner's Attrs list.
	AttributeNode
	// TextNode is character data.
	TextNode
	// CommentNode is an XML comment.
	CommentNode
)

func (k Kind) String() string {
	switch k {
	case DocumentNode:
		return "document"
	case ElementNode:
		return "element"
	case AttributeNode:
		return "attribute"
	case TextNode:
		return "text"
	case CommentNode:
		return "comment"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// docSeq hands out the global inter-document ordering.
var docSeq atomic.Uint64

// Document owns a tree of nodes. All nodes of a document share its identity
// for order comparisons; a document is immutable once frozen.
type Document struct {
	// URI is the document URI (what fn:document-uri reports). For trees
	// created by element constructors it is an artificial constructor URI.
	URI string
	// Root is the DocumentNode at the top of the tree.
	Root *Node

	seq    uint64
	frozen bool
	nnodes int
	names  atomic.Pointer[nameLists] // set by ServeNames
}

// docNode is a document and its root node, which live and die together.
type docNode struct {
	d    Document
	root Node
}

func (a *docNode) init(uri string) *Document {
	a.d = Document{URI: uri, Root: &a.root, seq: docSeq.Add(1)}
	a.root = Node{Kind: DocumentNode, Doc: &a.d}
	return &a.d
}

// NewDocument creates an empty document with the given URI. The caller
// attaches children to doc.Root and must call Freeze before using document
// order.
func NewDocument(uri string) *Document { return new(docNode).init(uri) }

// Documents is a slab of documents, each paired with its root node: the k
// fragment documents of a message cost one allocation, make(Documents, k),
// which stays reachable while any of its documents is.
type Documents []docNode

// New returns an empty document, as NewDocument does, from the slab while
// it lasts.
func (ds *Documents) New(uri string) *Document {
	if len(*ds) == 0 {
		return NewDocument(uri)
	}
	a := &(*ds)[0]
	*ds = (*ds)[1:]
	return a.init(uri)
}

// URIs hands out document URIs, prefix plus a number from seq: a batch of n
// is numbered by one Add on seq and cut from one string. Numbers a batch
// leaves unused are skipped, never reused.
type URIs struct {
	seq          *atomic.Uint64
	prefix, rest string
	id           uint64
}

// NewURIs numbers the next n URIs from seq consecutively.
func NewURIs(seq *atomic.Uint64, prefix string, n int) URIs {
	last := seq.Add(uint64(n))
	u := URIs{seq: seq, prefix: prefix, id: last - uint64(n) + 1}
	var sb strings.Builder
	sb.Grow(n * (len(prefix) + decimalWidth(last)))
	for id := u.id; id <= last; id++ {
		var num [20]byte
		sb.WriteString(prefix)
		sb.Write(strconv.AppendUint(num[:0], id, 10))
	}
	u.rest = sb.String()
	return u
}

// Next returns the next URI; one beyond the batch gets its own number.
func (u *URIs) Next() string {
	if u.rest == "" {
		return u.prefix + strconv.FormatUint(u.seq.Add(1), 10)
	}
	w := len(u.prefix) + decimalWidth(u.id)
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

// Seq returns the global creation sequence number used to order nodes from
// different documents.
func (d *Document) Seq() uint64 { return d.seq }

// Frozen reports whether Freeze has been called.
func (d *Document) Frozen() bool { return d.frozen }

// NodeCount returns the number of nodes in the frozen document (including the
// document node and attributes).
func (d *Document) NodeCount() int { return d.nnodes }

// DocElem returns the document element (first element child of the document
// node), or nil for an empty document.
func (d *Document) DocElem() *Node {
	for _, c := range d.Root.Children {
		if c.Kind == ElementNode {
			return c
		}
	}
	return nil
}

// Freeze assigns preorder ranks to every node and marks the tree immutable.
// It must be called after construction and before any document-order
// comparison. Freeze is idempotent.
//
// Beyond the preorder rank, Freeze assigns each node its sibling index and
// subtree size (pre/size XPath-accelerator numbering): a node's subtree
// occupies exactly the rank interval [pre, pre+size), attributes included.
// This makes ancestor tests, sibling navigation and Following O(1).
func (d *Document) Freeze() {
	if d.frozen {
		return
	}
	d.nnodes = int(d.number(d.Root, 0))
	d.frozen = true
}

// number assigns the subtree of n its ranks starting at pre and returns the
// first rank after it.
func (d *Document) number(n *Node, pre int32) int32 {
	start := pre
	n.pre = pre
	pre++
	n.Doc = d
	for i, a := range n.Attrs {
		a.pre = pre
		pre++
		a.Doc = d
		a.Parent = n
		a.sibIdx = int32(i)
		a.size = 1
	}
	for i, c := range n.Children {
		c.Parent = n
		c.sibIdx = int32(i)
		pre = d.number(c, pre)
	}
	n.size = pre - start
	return pre
}

// Node is a single XML node. The zero value is not usable; create nodes with
// the NewX constructors or via Parse.
type Node struct {
	Kind Kind
	// Name is the qualified name for elements and attributes ("a", "ns:a").
	Name string
	// Text holds character data for text and comment nodes, and the value
	// for attribute nodes.
	Text string

	Parent   *Node
	Children []*Node
	Attrs    []*Node
	Doc      *Document

	// BaseURI optionally overrides the document URI for fn:base-uri; XRPC
	// sets it on shipped parameter nodes (Problem 5, class 2).
	BaseURI string

	pre    int32
	sibIdx int32 // index within Parent.Children (or Parent.Attrs)
	size   int32 // ranks covered by the subtree incl. attributes; 0 until frozen
}

// NewElement returns a detached element node.
func NewElement(name string) *Node { return &Node{Kind: ElementNode, Name: name} }

// NewText returns a detached text node.
func NewText(s string) *Node { return &Node{Kind: TextNode, Text: s} }

// NewComment returns a detached comment node.
func NewComment(s string) *Node { return &Node{Kind: CommentNode, Text: s} }

// NewAttr returns a detached attribute node.
func NewAttr(name, value string) *Node {
	return &Node{Kind: AttributeNode, Name: name, Text: value}
}

// AppendChild attaches c as the last child of n. The tree must not be frozen.
func (n *Node) AppendChild(c *Node) *Node {
	c.Parent = n
	c.sibIdx = int32(len(n.Children))
	n.Children = append(n.Children, c)
	return n
}

// SetAttr attaches an attribute node, replacing an existing attribute with
// the same name.
func (n *Node) SetAttr(name, value string) *Node {
	for _, a := range n.Attrs {
		if a.Name == name {
			a.Text = value
			return n
		}
	}
	a := NewAttr(name, value)
	a.Parent = n
	a.sibIdx = int32(len(n.Attrs))
	n.Attrs = append(n.Attrs, a)
	return n
}

// Attr returns the attribute node with the given name, or nil.
func (n *Node) Attr(name string) *Node {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Pre returns the preorder rank of n within its frozen document.
func (n *Node) Pre() int32 { return n.pre }

// SiblingIndex returns n's index within its parent's Children (or Attrs for
// attribute nodes). It is maintained by AppendChild/SetAttr and reassigned by
// Freeze, so it is reliable for frozen trees.
func (n *Node) SiblingIndex() int32 { return n.sibIdx }

// SubtreeSize returns the number of preorder ranks covered by n's subtree
// (n itself, its attributes, and all descendants with their attributes), or 0
// when the document has not been frozen. Within one frozen document,
// m is in n's subtree exactly when n.Pre() <= m.Pre() < n.Pre()+n.SubtreeSize().
func (n *Node) SubtreeSize() int32 { return n.size }

// RootNode returns the topmost node reachable via Parent (the document node
// for attached trees). This is what fn:root returns.
func (n *Node) RootNode() *Node {
	r := n
	for r.Parent != nil {
		r = r.Parent
	}
	return r
}

// StringValue returns the typed-value string of the node: concatenated
// descendant text for documents and elements, the literal text for others.
func (n *Node) StringValue() string {
	switch n.Kind {
	case TextNode, CommentNode, AttributeNode:
		return n.Text
	default:
		// The leaf element of data-oriented XML: its one text child is the
		// value, no copy needed.
		if len(n.Children) == 1 && n.Children[0].Kind == TextNode {
			return n.Children[0].Text
		}
		var sb strings.Builder
		n.appendText(&sb)
		return sb.String()
	}
}

func (n *Node) appendText(sb *strings.Builder) {
	for _, c := range n.Children {
		switch c.Kind {
		case TextNode:
			sb.WriteString(c.Text)
		case ElementNode:
			c.appendText(sb)
		}
	}
}

// IsAncestorOf reports whether n is a proper ancestor of m. For nodes of one
// frozen document the answer comes from the pre/size interval in O(1); the
// parent walk remains as the fallback for detached or unfrozen trees.
func (n *Node) IsAncestorOf(m *Node) bool {
	if n.size > 0 && n.Doc != nil && n.Doc == m.Doc {
		return n.pre < m.pre && m.pre < n.pre+n.size
	}
	for p := m.Parent; p != nil; p = p.Parent {
		if p == n {
			return true
		}
	}
	return false
}

// Compare orders two nodes in global document order: negative when n comes
// before m, zero only when n == m. Both documents must be frozen.
func Compare(n, m *Node) int {
	if n == m {
		return 0
	}
	if n.Doc == m.Doc {
		switch {
		case n.pre < m.pre:
			return -1
		case n.pre > m.pre:
			return 1
		default:
			return 0
		}
	}
	var a, b uint64
	if n.Doc != nil {
		a = n.Doc.seq
	}
	if m.Doc != nil {
		b = m.Doc.seq
	}
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Following returns the next node after n in document order that is not a
// descendant of n, or nil at the end of the document. Attribute nodes are
// skipped (they are not part of the descendant axis).
func (n *Node) Following() *Node {
	cur := n
	if cur.Kind == AttributeNode {
		cur = cur.Parent
		if len(cur.Children) > 0 {
			return cur.Children[0]
		}
	}
	for cur != nil {
		p := cur.Parent
		if p == nil {
			return nil
		}
		// sibIdx gives the position in O(1); fall back to a scan for trees
		// assembled without AppendChild.
		idx := int(cur.sibIdx)
		if idx >= len(p.Children) || p.Children[idx] != cur {
			idx = -1
			for i, c := range p.Children {
				if c == cur {
					idx = i
					break
				}
			}
		}
		if idx >= 0 && idx+1 < len(p.Children) {
			return p.Children[idx+1]
		}
		cur = p
	}
	return nil
}

// NextInDocument returns the next node in document order (first child if any,
// else next following), excluding attributes.
func (n *Node) NextInDocument() *Node {
	if n.Kind != AttributeNode && len(n.Children) > 0 {
		return n.Children[0]
	}
	return n.Following()
}

// WalkDescendants visits n and all its descendants (excluding attributes) in
// document order, stopping early if f returns false.
func (n *Node) WalkDescendants(f func(*Node) bool) bool {
	if !f(n) {
		return false
	}
	for _, c := range n.Children {
		if !c.WalkDescendants(f) {
			return false
		}
	}
	return true
}

// Copy returns a deep copy of the subtree rooted at n as a detached node
// (Parent nil, Doc nil). Attribute nodes copy as standalone attributes.
// The copy's nodes come from one Slab.
func (n *Node) Copy() *Node {
	var s Slab
	s.Reserve(n.SubtreeNodes())
	return s.Copy(n)
}

// SubtreeNodes returns the number of nodes in n's subtree, n and every
// attribute included: SubtreeSize once the document is frozen, a count of
// the tree before.
func (n *Node) SubtreeNodes() int {
	if n.size > 0 {
		return int(n.size)
	}
	c := 1 + len(n.Attrs)
	for _, ch := range n.Children {
		c += ch.SubtreeNodes()
	}
	return c
}

// SortDocOrder sorts nodes in place by global document order and removes
// duplicates (by identity), implementing the distinct-doc-order postcondition
// of XPath steps. Already-ordered input (the common case: forward axes over
// ordered context sequences emit in document order) is detected in O(n) and
// returned untouched without allocating.
func SortDocOrder(nodes []*Node) []*Node {
	if len(nodes) < 2 {
		return nodes
	}
	sorted := true
	for i := 1; i < len(nodes); i++ {
		// Strictly increasing input is both ordered and duplicate-free.
		if Compare(nodes[i-1], nodes[i]) >= 0 {
			sorted = false
			break
		}
	}
	if sorted {
		return nodes
	}
	// Stable so that nodes Compare cannot order (detached trees, where every
	// rank is zero) keep their input order, as the previous merge sort did.
	slices.SortStableFunc(nodes, Compare)
	out := nodes[:1]
	for _, n := range nodes[1:] {
		if n != out[len(out)-1] {
			out = append(out, n)
		}
	}
	return out
}

// OrderedDisjointNodes reports whether nodes are in strictly increasing
// global document order with non-overlapping subtrees, all from frozen
// documents. This is the precondition under which a forward downward axis
// step (child, attribute, self, descendant, descendant-or-self) over the
// nodes emits its result already in distinct document order, so the step can
// stream without a SortDocOrder barrier: disjoint subtrees cannot produce
// the same node twice, and ordered disjoint subtrees enumerate their
// descendants in global order when visited left to right.
//
// It returns false for unfrozen or detached nodes (SubtreeSize 0, or nodes
// that Compare cannot order), which callers treat as "materialize instead".
func OrderedDisjointNodes(nodes []*Node) bool {
	for i, n := range nodes {
		if n.size <= 0 || n.Doc == nil {
			return false
		}
		if i == 0 {
			continue
		}
		prev := nodes[i-1]
		if prev.Doc == n.Doc {
			if n.pre < prev.pre+prev.size {
				return false
			}
		} else if Compare(prev, n) >= 0 {
			return false
		}
	}
	return true
}
