package xdm

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseBytes parses an XML document with an allocation-light scanner
// specialized for machine-generated XML such as XRPC messages: element and
// attribute names and text content are sliced out of one backing string
// instead of being tokenized through encoding/xml, and nodes and their
// child/attribute arrays are handed out of slabs sized to the message. It
// accepts the document subset the data model holds (elements, attributes,
// text, comments; prefixed names kept literally, xmlns attributes dropped,
// PIs/directives skipped) and reports an error on anything malformed. It is
// the one XML parser: ParseString, which loads documents, runs it too.
//
// The returned document's strings alias one copy of data, so the whole
// message buffer stays reachable while any of its nodes do — the right trade
// for decoded fragments, whose nodes are referenced by query results anyway.
func ParseBytes(data []byte, uri string) (*Document, error) {
	return parseFast(string(data), uri)
}

// msgArena hands out the nodes of one parsed message, and the backing arrays
// of their Children and Attrs slices, from slabs sized to the message: a
// 12-node request costs a 12-node slab, not a fixed one. est is the parser's
// estimate of the nodes still to come; a slab never exceeds maxSlab entries,
// so an estimate that is off wastes at most one slab.
type msgArena struct {
	nodes []Node
	ptrs  []*Node
	est   int
}

const (
	minSlab = 8
	maxSlab = 1024
)

// estimateNodes guesses the node count of a message from two byte counts:
// every '<' opens an element, a comment or an end tag — and an element with
// an end tag typically holds one text node or is a wrapper — and every ="
// is an attribute.
func estimateNodes(s string) int {
	return strings.Count(s, "<") + strings.Count(s, `="`)
}

func (ar *msgArena) slabSize(need int) int {
	return max(need, min(max(ar.est, minSlab), maxSlab))
}

func (ar *msgArena) take(k Kind, name, text string) *Node {
	if len(ar.nodes) == 0 {
		ar.nodes = make([]Node, ar.slabSize(1))
	}
	n := &ar.nodes[0]
	ar.nodes = ar.nodes[1:]
	ar.est--
	n.Kind, n.Name, n.Text = k, name, text
	return n
}

// alloc returns a slab-backed window of n pointers whose capacity equals its
// length: whoever appends to it later (a constructor adopting the node, say)
// gets a fresh array instead of writing into the neighbouring window.
func (ar *msgArena) alloc(n int) []*Node {
	if n == 0 {
		return nil
	}
	if len(ar.ptrs) < n {
		ar.ptrs = make([]*Node, ar.slabSize(n))
	}
	w := ar.ptrs[:n:n]
	ar.ptrs = ar.ptrs[n:]
	return w
}

// window returns a slab-backed copy of src (see alloc).
func (ar *msgArena) window(src []*Node) []*Node {
	w := ar.alloc(len(src))
	copy(w, src)
	return w
}

// Slab builds trees in code the way the parser builds messages: the nodes of
// one tree, and the backing arrays of their Children and Attrs slices, come
// from two arrays sized up front. A tree of n nodes hanging below a document
// node needs n nodes and n slots (every node sits in exactly one window), so
// Reserve(n) builds it with two allocations; a short reservation costs one
// more slab, never a wrong tree. The zero Slab is ready to use. A Slab must
// not be shared between goroutines, and every array it hands out belongs to
// the tree built from it.
type Slab struct{ a msgArena }

// Reserve replaces the slab's arrays with fresh ones for n nodes and n
// child/attribute slots.
func (s *Slab) Reserve(n int) {
	s.a.nodes = make([]Node, n)
	s.a.ptrs = make([]*Node, n)
}

// Node returns a fresh detached node from the slab.
func (s *Slab) Node(k Kind, name, text string) *Node { return s.a.take(k, name, text) }

// Window returns n child/attribute slots from the slab (nil for n = 0); its
// capacity equals its length.
func (s *Slab) Window(n int) []*Node { return s.a.alloc(n) }

// Copy deep-copies the subtree rooted at n into the slab: Node.Copy, with
// every node and window of the copy taken from the slab.
func (s *Slab) Copy(n *Node) *Node {
	c := s.Node(n.Kind, n.Name, n.Text)
	c.BaseURI = n.BaseURI
	c.Attrs = s.Window(len(n.Attrs))
	for i, a := range n.Attrs {
		ca := s.Node(AttributeNode, a.Name, a.Text)
		ca.Parent, ca.sibIdx = c, int32(i)
		c.Attrs[i] = ca
	}
	c.Children = s.Window(len(n.Children))
	for i, ch := range n.Children {
		cc := s.Copy(ch)
		cc.Parent, cc.sibIdx = c, int32(i)
		c.Children[i] = cc
	}
	return c
}

// openElem is an element whose end tag the parser has not reached; its
// children so far are pending[mark:].
type openElem struct {
	el   *Node
	mark int
}

// ParseString parses an XML document held in a string. Nodes alias s.
func ParseString(s, uri string) (*Document, error) {
	return parseFast(s, uri)
}

func parseFast(s, uri string) (*Document, error) {
	doc := NewDocument(uri)
	arena := msgArena{est: estimateNodes(s)}
	// Children and attributes collect on one pending stack and move into an
	// exactly sized arena window when their element closes. Freeze, at the
	// end, links parents and sibling indexes.
	open := make([]openElem, 1, 16)
	open[0].el = doc.Root
	pending := make([]*Node, 0, 64)
	cur := &open[0]
	// lastText returns the text node a split run (PI, directive or CDATA in
	// the middle of character data) continues, if any.
	lastText := func() *Node {
		if k := len(pending); k > cur.mark && pending[k-1].Kind == TextNode {
			return pending[k-1]
		}
		return nil
	}
	pos := 0
	for pos < len(s) {
		if s[pos] != '<' {
			start := pos
			for pos < len(s) && s[pos] != '<' {
				pos++
			}
			txt, err := decodeCharData(s[start:pos])
			if err != nil {
				return nil, fmt.Errorf("xdm: parse %s: %w", uri, err)
			}
			if len(open) == 1 && strings.TrimSpace(txt) == "" {
				continue // whitespace outside the document element
			}
			if t := lastText(); t != nil {
				t.Text += txt // PI/directive split a text run
				continue
			}
			pending = append(pending, arena.take(TextNode, "", txt))
			continue
		}
		if pos+1 >= len(s) {
			return nil, fmt.Errorf("xdm: parse %s: unexpected EOF after '<'", uri)
		}
		switch s[pos+1] {
		case '/':
			name, p, err := scanXMLName(s, pos+2)
			if err != nil {
				return nil, fmt.Errorf("xdm: parse %s: %w", uri, err)
			}
			p = skipXMLSpace(s, p)
			if p >= len(s) || s[p] != '>' {
				return nil, fmt.Errorf("xdm: parse %s: malformed end tag </%s", uri, name)
			}
			pos = p + 1
			if len(open) == 1 {
				return nil, fmt.Errorf("xdm: parse %s: unbalanced end element", uri)
			}
			if cur.el.Name != name {
				return nil, fmt.Errorf("xdm: parse %s: </%s> closes <%s>", uri, name, cur.el.Name)
			}
			cur.el.Children = arena.window(pending[cur.mark:])
			pending = pending[:cur.mark]
			open = open[:len(open)-1]
			cur = &open[len(open)-1]
		case '!':
			if strings.HasPrefix(s[pos:], "<!--") {
				end := strings.Index(s[pos+4:], "-->")
				if end < 0 {
					return nil, fmt.Errorf("xdm: parse %s: unterminated comment", uri)
				}
				pending = append(pending, arena.take(CommentNode, "", s[pos+4:pos+4+end]))
				pos += 4 + end + 3
			} else if strings.HasPrefix(s[pos:], "<![CDATA[") {
				end := strings.Index(s[pos+9:], "]]>")
				if end < 0 {
					return nil, fmt.Errorf("xdm: parse %s: unterminated CDATA section", uri)
				}
				txt := s[pos+9 : pos+9+end]
				pos += 9 + end + 3
				if len(open) == 1 && strings.TrimSpace(txt) == "" {
					continue
				}
				if t := lastText(); t != nil {
					t.Text += txt
					continue
				}
				pending = append(pending, arena.take(TextNode, "", txt))
			} else {
				// Directive (<!DOCTYPE ...>): skipped.
				end := strings.IndexByte(s[pos:], '>')
				if end < 0 {
					return nil, fmt.Errorf("xdm: parse %s: unterminated directive", uri)
				}
				pos += end + 1
			}
		case '?':
			end := strings.Index(s[pos+2:], "?>")
			if end < 0 {
				return nil, fmt.Errorf("xdm: parse %s: unterminated processing instruction", uri)
			}
			pos += 2 + end + 2
		default:
			name, p, err := scanXMLName(s, pos+1)
			if err != nil {
				return nil, fmt.Errorf("xdm: parse %s: %w", uri, err)
			}
			pos = p
			el := arena.take(ElementNode, name, "")
			amark := len(pending) // the element's attributes are pending[amark:]
			closed := false
			for !closed {
				pos = skipXMLSpace(s, pos)
				if pos >= len(s) {
					return nil, fmt.Errorf("xdm: parse %s: unexpected EOF in <%s>", uri, name)
				}
				switch s[pos] {
				case '>', '/':
					selfClosing := s[pos] == '/'
					if selfClosing && (pos+1 >= len(s) || s[pos+1] != '>') {
						return nil, fmt.Errorf("xdm: parse %s: malformed empty-element tag <%s", uri, name)
					}
					pos++
					if selfClosing {
						pos++
					}
					el.Attrs = arena.window(pending[amark:])
					pending = append(pending[:amark], el)
					if !selfClosing {
						open = append(open, openElem{el: el, mark: len(pending)})
						cur = &open[len(open)-1]
					}
					closed = true
				default:
					aname, p, err := scanXMLName(s, pos)
					if err != nil {
						return nil, fmt.Errorf("xdm: parse %s: in <%s>: %w", uri, name, err)
					}
					pos = skipXMLSpace(s, p)
					if pos >= len(s) || s[pos] != '=' {
						return nil, fmt.Errorf("xdm: parse %s: attribute %s without value", uri, aname)
					}
					pos = skipXMLSpace(s, pos+1)
					if pos >= len(s) || (s[pos] != '"' && s[pos] != '\'') {
						return nil, fmt.Errorf("xdm: parse %s: unquoted value for attribute %s", uri, aname)
					}
					quote := s[pos]
					pos++
					vend := strings.IndexByte(s[pos:], quote)
					if vend < 0 {
						return nil, fmt.Errorf("xdm: parse %s: unterminated value for attribute %s", uri, aname)
					}
					val, err := decodeCharData(s[pos : pos+vend])
					if err != nil {
						return nil, fmt.Errorf("xdm: parse %s: attribute %s: %w", uri, aname, err)
					}
					pos += vend + 1
					if aname == "xmlns" || strings.HasPrefix(aname, "xmlns:") {
						continue
					}
					replaced := false
					for _, a := range pending[amark:] {
						if a.Name == aname {
							a.Text = val
							replaced = true
							break
						}
					}
					if !replaced {
						pending = append(pending, arena.take(AttributeNode, aname, val))
					}
				}
			}
		}
	}
	if len(open) != 1 {
		return nil, fmt.Errorf("xdm: parse %s: unexpected EOF inside element %s", uri, cur.el.Name)
	}
	doc.Root.Children = arena.window(pending)
	doc.Freeze()
	return doc, nil
}

// scanXMLName scans a (possibly prefixed) XML name starting at pos and
// returns it with the position after it.
func scanXMLName(s string, pos int) (string, int, error) {
	start := pos
	for pos < len(s) {
		switch s[pos] {
		case ' ', '\t', '\n', '\r', '=', '/', '>', '<', '"', '\'', '&', ';':
			goto done
		}
		pos++
	}
done:
	if pos == start {
		return "", pos, fmt.Errorf("expected name at offset %d", start)
	}
	return s[start:pos], pos, nil
}

func skipXMLSpace(s string, pos int) int {
	for pos < len(s) {
		switch s[pos] {
		case ' ', '\t', '\n', '\r':
			pos++
		default:
			return pos
		}
	}
	return pos
}

// decodeCharData resolves the predefined entities and character references
// and normalizes line endings. Input without either is returned as-is
// (a zero-copy slice of the message buffer).
func decodeCharData(s string) (string, error) {
	if strings.IndexByte(s, '&') < 0 && strings.IndexByte(s, '\r') < 0 {
		return s, nil
	}
	var sb strings.Builder
	sb.Grow(len(s))
	for i := 0; i < len(s); {
		switch c := s[i]; c {
		case '\r': // XML end-of-line handling: \r\n and bare \r become \n
			sb.WriteByte('\n')
			i++
			if i < len(s) && s[i] == '\n' {
				i++
			}
		case '&':
			semi := strings.IndexByte(s[i:], ';')
			if semi < 0 {
				return "", fmt.Errorf("unterminated entity reference")
			}
			ent := s[i+1 : i+semi]
			switch ent {
			case "amp":
				sb.WriteByte('&')
			case "lt":
				sb.WriteByte('<')
			case "gt":
				sb.WriteByte('>')
			case "quot":
				sb.WriteByte('"')
			case "apos":
				sb.WriteByte('\'')
			default:
				if !strings.HasPrefix(ent, "#") {
					return "", fmt.Errorf("unknown entity &%s;", ent)
				}
				num, base := ent[1:], 10
				if strings.HasPrefix(num, "x") || strings.HasPrefix(num, "X") {
					num, base = num[1:], 16
				}
				v, err := strconv.ParseUint(num, base, 32)
				if err != nil || !isXMLChar(rune(v)) {
					return "", fmt.Errorf("invalid character reference &%s;", ent)
				}
				sb.WriteRune(rune(v))
			}
			i += semi + 1
		default:
			sb.WriteByte(c)
			i++
		}
	}
	return sb.String(), nil
}

// isXMLChar reports whether r is in the XML 1.0 Char production — what a
// character reference may legally denote (encoding/xml rejects the rest too).
func isXMLChar(r rune) bool {
	return r == 0x9 || r == 0xA || r == 0xD ||
		(r >= 0x20 && r <= 0xD7FF) ||
		(r >= 0xE000 && r <= 0xFFFD) ||
		(r >= 0x10000 && r <= 0x10FFFF)
}
