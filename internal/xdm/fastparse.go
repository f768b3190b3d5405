package xdm

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseBytes parses an XML document with the Scanner: names and text are
// slices of one string copy of data, which stays reachable while any node
// does, and nodes and their child/attribute arrays come from slabs sized to
// the text. It accepts the subset the data model holds (elements,
// attributes, text, comments; prefixed names kept literally, xmlns
// attributes dropped, PIs/directives skipped) and rejects anything malformed.
func ParseBytes(data []byte, uri string) (*Document, error) {
	return ParseString(string(data), uri)
}

// msgArena hands out the nodes of one parsed text, and the backing arrays
// of their Children and Attrs slices, from slabs sized to the text: a
// 12-node request costs a 12-node slab, not a fixed one. est is the
// estimate of the nodes still to come, and slots of the window entries
// (every node sits in exactly one window); a slab never exceeds maxSlab
// entries, so an estimate that is off wastes at most one slab.
type msgArena struct {
	nodes      []Node
	ptrs       []*Node
	est, slots int
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

func (ar *msgArena) expect(n int) { ar.est, ar.slots = n, n }

func slabSize(need, est int) int {
	return max(need, min(max(est, minSlab), maxSlab))
}

func (ar *msgArena) take(k Kind, name, text string) *Node {
	if len(ar.nodes) == 0 {
		ar.nodes = make([]Node, slabSize(1, ar.est))
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
		ar.ptrs = make([]*Node, slabSize(n, ar.slots))
	}
	w := ar.ptrs[:n:n]
	ar.ptrs = ar.ptrs[n:]
	ar.slots -= n
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
// more slab, never a wrong tree. Trees built one after another can instead
// share arrays (Expect). The zero Slab is ready to use. A Slab must not be
// shared between goroutines.
type Slab struct{ a msgArena }

// Reserve replaces the slab's arrays with fresh ones for n nodes and n
// child/attribute slots.
func (s *Slab) Reserve(n int) {
	s.a.nodes = make([]Node, n)
	s.a.ptrs = make([]*Node, n)
}

// Expect keeps what is left of the slab's arrays and sizes the next ones for
// n nodes and n slots still to come (within minSlab and maxSlab).
func (s *Slab) Expect(n int) { s.a.expect(n) }

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

// Token is the kind of markup Scanner.Next read.
type Token uint8

const (
	EOF      Token = iota // never returned while an element is open
	StartTag              // Name, and attributes through Attr; an EndTag follows, an empty-element tag's too
	EndTag                // Name
	CharData              // Text: character data with entities resolved, or a CDATA section
	Comment               // Text
)

// Scanner reads an XML text one token at a time — the one XML scanner.
// ParseString runs it over a whole document; the XRPC decoder reads a
// message's envelope as tokens and has only shipped content built into
// trees (Fill), from one arena shared by the whole text. Names and text
// alias the text. Processing instructions and directives are skipped, so
// two CharData tokens in a row belong to one text node. End tags must
// match, the text must not end inside an element; the first error sticks.
type Scanner struct {
	s, uri      string
	pos, tokPos int      // tokPos: where the current token starts
	open        []string // names of the elements whose end tags are to come
	empty       bool     // the current StartTag closed itself
	attrs       []attr   // the current StartTag's attributes
	err         error
	Name, Text  string

	arena   msgArena
	run     []byte     // a text run split into pieces, joined so far
	stack   []openElem // Fill's open elements
	pending []*Node    // their children and attributes so far
	// The first arrays of the stacks: a shallow text costs no allocation
	// beyond the scanner's own.
	openBuf    [12]string
	attrBuf    [10]attr
	stackBuf   [8]openElem
	pendingBuf [16]*Node
}

type attr struct{ name, value string }

// openElem is an element whose end tag Fill has not reached; its children
// so far are pending[mark:].
type openElem struct {
	el   *Node
	mark int
}

// Reset starts scanning s, named uri in errors, with no arena estimate.
func (sc *Scanner) Reset(s, uri string) {
	*sc = Scanner{s: s, uri: uri}
	sc.open, sc.attrs = sc.openBuf[:0], sc.attrBuf[:0]
	sc.stack, sc.pending = sc.stackBuf[:0], sc.pendingBuf[:0]
}

// Err returns the first error, nil while the text is well-formed.
func (sc *Scanner) Err() error { return sc.err }

// Depth returns the number of open elements, one whose StartTag was just
// read included.
func (sc *Scanner) Depth() int { return len(sc.open) }

// Attr returns the value of the current StartTag's attribute name.
func (sc *Scanner) Attr(name string) (string, bool) {
	for _, a := range sc.attrs {
		if a.name == name {
			return a.value, true
		}
	}
	return "", false
}

// Mark returns the position before the current StartTag.
func (sc *Scanner) Mark() (pos, depth int) { return sc.tokPos, len(sc.open) - 1 }

// Rewind returns to a Mark, for a second pass over text already checked.
func (sc *Scanner) Rewind(pos, depth int) { sc.pos, sc.open, sc.empty = pos, sc.open[:depth], false }

// Reserve sizes the arena's next slabs for the content of the element whose
// StartTag was just read, up to the first end tag of its name, less the
// elements in it whose start tags begin with wrapper (one attribute and an
// end tag each, read as tokens), and returns their number. It is one jump
// from '<' to '<' (and a count of =") over the content.
func (sc *Scanner) Reserve(wrapper string) int {
	rest, end := sc.s[sc.pos:], "</"+sc.Name+">"
	tags, n, i := 0, 0, 0
	for !sc.empty {
		j := strings.IndexByte(rest[i:], '<')
		if j < 0 {
			i = len(rest)
			break
		}
		if i += j; strings.HasPrefix(rest[i:], end) {
			break
		}
		if strings.HasPrefix(rest[i:], wrapper) {
			n++
		}
		i, tags = i+1, tags+1
	}
	sc.arena.expect(max(tags+strings.Count(rest[:i], `="`)-3*n, 0))
	return n
}

func (sc *Scanner) fail(format string, args ...any) (Token, error) {
	sc.err = fmt.Errorf("xdm: parse %s: "+format, append([]any{sc.uri}, args...)...)
	return EOF, sc.err
}

// Next reads the next token.
func (sc *Scanner) Next() (Token, error) {
	if sc.err != nil {
		return EOF, sc.err
	}
	if sc.empty {
		sc.empty, sc.open = false, sc.open[:len(sc.open)-1]
		return EndTag, nil
	}
	s := sc.s
	for sc.pos < len(s) {
		pos := sc.pos
		sc.tokPos = pos
		if s[pos] != '<' {
			end := strings.IndexByte(s[pos:], '<')
			if end < 0 {
				end = len(s) - pos
			}
			txt, err := decodeCharData(s[pos : pos+end])
			if err != nil {
				return sc.fail("%w", err)
			}
			sc.pos, sc.Text = pos+end, txt
			return CharData, nil
		}
		if pos+1 >= len(s) {
			return sc.fail("unexpected EOF after '<'")
		}
		switch s[pos+1] {
		case '/':
			name, p, err := scanXMLName(s, pos+2)
			if err != nil {
				return sc.fail("%w", err)
			}
			if p = skipXMLSpace(s, p); p >= len(s) || s[p] != '>' {
				return sc.fail("malformed end tag </%s", name)
			}
			sc.pos = p + 1
			k := len(sc.open) - 1
			if k < 0 {
				return sc.fail("unbalanced end element")
			}
			if sc.open[k] != name {
				return sc.fail("</%s> closes <%s>", name, sc.open[k])
			}
			sc.open, sc.Name = sc.open[:k], name
			return EndTag, nil
		case '!':
			if strings.HasPrefix(s[pos:], "<!--") {
				end := strings.Index(s[pos+4:], "-->")
				if end < 0 {
					return sc.fail("unterminated comment")
				}
				sc.pos, sc.Text = pos+4+end+3, s[pos+4:pos+4+end]
				return Comment, nil
			}
			if strings.HasPrefix(s[pos:], "<![CDATA[") {
				end := strings.Index(s[pos+9:], "]]>")
				if end < 0 {
					return sc.fail("unterminated CDATA section")
				}
				sc.pos, sc.Text = pos+9+end+3, s[pos+9:pos+9+end]
				return CharData, nil
			}
			end := strings.IndexByte(s[pos:], '>') // a directive (<!DOCTYPE ...>)
			if end < 0 {
				return sc.fail("unterminated directive")
			}
			sc.pos = pos + end + 1
		case '?':
			end := strings.Index(s[pos+2:], "?>")
			if end < 0 {
				return sc.fail("unterminated processing instruction")
			}
			sc.pos = pos + 2 + end + 2
		default:
			return sc.startTag(pos)
		}
	}
	if k := len(sc.open); k > 0 {
		return sc.fail("unexpected EOF inside element %s", sc.open[k-1])
	}
	return EOF, nil
}

// startTag reads the start tag at pos. xmlns declarations are dropped; a
// repeated attribute keeps its first place and its last value.
func (sc *Scanner) startTag(pos int) (Token, error) {
	s := sc.s
	name, pos, err := scanXMLName(s, pos+1)
	if err != nil {
		return sc.fail("%w", err)
	}
	sc.attrs = sc.attrs[:0]
	for {
		if pos = skipXMLSpace(s, pos); pos >= len(s) {
			return sc.fail("unexpected EOF in <%s>", name)
		}
		if s[pos] == '>' || s[pos] == '/' {
			sc.empty = s[pos] == '/'
			if sc.empty && (pos+1 >= len(s) || s[pos+1] != '>') {
				return sc.fail("malformed empty-element tag <%s", name)
			}
			sc.pos, sc.Name, sc.open = pos+1, name, append(sc.open, name)
			if sc.empty {
				sc.pos++
			}
			return StartTag, nil
		}
		aname, p, err := scanXMLName(s, pos)
		if err != nil {
			return sc.fail("in <%s>: %w", name, err)
		}
		if pos = skipXMLSpace(s, p); pos >= len(s) || s[pos] != '=' {
			return sc.fail("attribute %s without value", aname)
		}
		if pos = skipXMLSpace(s, pos+1); pos >= len(s) || (s[pos] != '"' && s[pos] != '\'') {
			return sc.fail("unquoted value for attribute %s", aname)
		}
		vend := strings.IndexByte(s[pos+1:], s[pos])
		if vend < 0 {
			return sc.fail("unterminated value for attribute %s", aname)
		}
		val, err := decodeCharData(s[pos+1 : pos+1+vend])
		if err != nil {
			return sc.fail("attribute %s: %w", aname, err)
		}
		pos += vend + 2
		if aname == "xmlns" || strings.HasPrefix(aname, "xmlns:") {
			continue
		}
		i := 0
		for i < len(sc.attrs) && sc.attrs[i].name != aname {
			i++
		}
		if i == len(sc.attrs) {
			sc.attrs = append(sc.attrs, attr{name: aname})
		}
		sc.attrs[i].value = val
	}
}

// Skip reads past the end of the element whose StartTag was just read.
func (sc *Scanner) Skip() error {
	_, err := sc.text(false)
	return err
}

// Canonical reads past the end of the element whose StartTag was just read, as
// Skip does, and returns its content's bytes, the kind of node they hold (a
// document when doc is set), and whether they are one node (unless doc) and exactly
// what Serialize writes for the nodes Fill builds: no CDATA, PI, comment or xmlns.
func (sc *Scanner) Canonical(doc bool) (xml string, kind Kind, ok bool, err error) {
	start, d, top, opened := sc.pos, len(sc.open), 0, false // opened: the last token was <a>
	ok, kind = !sc.empty, DocumentNode                      // <fragment/> is not what the encoder writes
	for end := start; ; end = sc.pos {
		at, synthetic := len(sc.open), sc.empty // synthetic: the EndTag of <a/>
		tok, err := sc.Next()
		switch {
		case err != nil:
			return "", 0, false, err
		case at == d && tok == EndTag: // the element's own
			return sc.s[start:max(start, sc.tokPos)], kind, ok && sc.tokPos == end && (doc || top == 1), nil
		case synthetic:
			opened = false
			continue
		case at == d && !doc:
			top, kind = top+1, kindOf[tok]
		}
		raw := sc.s[sc.tokPos:sc.pos]
		switch tok {
		case StartTag:
			ok = ok && sc.canonicalTag(raw[1+len(sc.Name):])
		case EndTag:
			ok = ok && !opened && len(raw) == len(sc.Name)+3
		case CharData: // a CDATA section never matches: its bytes start with '<'
			rest, same := matchEscaped(raw, sc.Text, &textEscapes)
			ok = ok && same && rest == ""
		default:
			ok = false
		}
		ok, opened = ok && sc.tokPos == end, tok == StartTag && !sc.empty // else a PI was skipped
	}
}

var kindOf = [...]Kind{StartTag: ElementNode, CharData: TextNode, Comment: CommentNode} // by opening token

// canonicalTag reports whether rest, the current StartTag after its name,
// is what Serialize writes there for the tag's attributes.
func (sc *Scanner) canonicalTag(rest string) bool {
	for _, a := range sc.attrs {
		n, ok := len(a.name), false
		if len(rest) < n+3 || rest[0] != ' ' || rest[1:n+1] != a.name || rest[n+1:n+3] != `="` {
			return false
		}
		if rest, ok = matchEscaped(rest[n+3:], a.value, &attrEscapes); !ok || !strings.HasPrefix(rest, `"`) {
			return false
		}
		rest = rest[1:]
	}
	return rest == ">" || sc.empty && rest == "/>"
}

// matchEscaped reports whether raw begins with s escaped as Serialize
// escapes it under esc, and returns the rest of raw.
func matchEscaped(raw, s string, esc *[256]uint8) (string, bool) {
	for i := 0; i < len(s); i++ {
		e := s[i : i+1]
		if c := esc[s[i]]; c != 0 {
			e = escapeEntity[c]
		}
		if !strings.HasPrefix(raw, e) {
			return raw, false
		}
		raw = raw[len(e):]
	}
	return raw, true
}

// StringValue reads past the end of the element whose StartTag was just
// read and returns its string value: the character data of its content,
// descendants included — a slice of the text when it is one run.
func (sc *Scanner) StringValue() (string, error) { return sc.text(true) }

func (sc *Scanner) text(keep bool) (string, error) {
	v := ""
	sc.run = sc.run[:0]
	for d := len(sc.open); ; {
		switch tok, err := sc.Next(); {
		case err != nil:
			return "", err
		case tok == CharData && keep && v == "" && len(sc.run) == 0:
			v = sc.Text
		case tok == CharData && keep:
			sc.join(v)
		case tok == EndTag && len(sc.open) < d:
			if len(sc.run) > 0 {
				v = string(sc.run)
			}
			return v, nil
		}
	}
}

// join appends the current text piece to the run whose pieces so far are
// sc.run, or else start: a run split by CDATA sections, PIs or directives
// is built in one buffer, each piece copied once.
func (sc *Scanner) join(start string) {
	if len(sc.run) == 0 {
		sc.run = append(sc.run, start...)
	}
	sc.run = append(sc.run, sc.Text...)
}

// Fill builds the content of the element whose StartTag was just read,
// through its end tag, into the children of root, a node the caller owns
// and freezes. Whitespace is content here: only a document's top level,
// which fill reads with top set up to the end of the text, drops it.
// Children and attributes collect on one pending stack and move into an
// exactly sized arena window when their element closes.
func (sc *Scanner) Fill(root *Node) error { return sc.fill(root, false) }

func (sc *Scanner) fill(root *Node, top bool) error {
	ar := &sc.arena
	stack, pending := append(sc.stack[:0], openElem{el: root}), sc.pending[:0]
	defer func() { sc.stack, sc.pending = stack[:0], pending[:0] }()
	sc.run = sc.run[:0]
	for {
		tok, err := sc.Next()
		if err != nil {
			return err
		}
		if tok != CharData && len(sc.run) > 0 { // the split run ended
			pending[len(pending)-1].Text = string(sc.run)
			sc.run = sc.run[:0]
		}
		cur := &stack[len(stack)-1]
		switch tok {
		case CharData:
			if k := len(pending); top && len(stack) == 1 && strings.TrimSpace(sc.Text) == "" {
				continue // whitespace outside the document element
			} else if k > cur.mark && pending[k-1].Kind == TextNode {
				sc.join(pending[k-1].Text) // a PI, directive or CDATA split the run
				continue
			}
			pending = append(pending, ar.take(TextNode, "", sc.Text))
		case Comment:
			pending = append(pending, ar.take(CommentNode, "", sc.Text))
		case StartTag:
			el := ar.take(ElementNode, sc.Name, "")
			el.Attrs = ar.alloc(len(sc.attrs))
			for i, a := range sc.attrs {
				el.Attrs[i] = ar.take(AttributeNode, a.name, a.value)
			}
			pending = append(pending, el)
			stack = append(stack, openElem{el: el, mark: len(pending)})
		case EndTag:
			cur.el.Children = ar.window(pending[cur.mark:])
			pending, stack = pending[:cur.mark], stack[:len(stack)-1]
			if len(stack) == 0 {
				return nil // root's element closed
			}
		case EOF:
			root.Children = ar.window(pending)
			return nil
		}
	}
}

// ParseString parses an XML document held in a string. Nodes alias s.
func ParseString(s, uri string) (*Document, error) {
	doc, sc := NewDocument(uri), new(Scanner)
	sc.Reset(s, uri)
	sc.arena.expect(estimateNodes(s))
	if err := sc.fill(doc.Root, true); err != nil {
		return nil, err
	}
	doc.Freeze()
	return doc, nil
}

// nameEnds marks the bytes that end an XML name.
var nameEnds = [256]bool{' ': true, '\t': true, '\n': true, '\r': true, '=': true, '/': true,
	'>': true, '<': true, '"': true, '\'': true, '&': true, ';': true}

// scanXMLName scans a (possibly prefixed) XML name starting at pos and
// returns it with the position after it.
func scanXMLName(s string, pos int) (string, int, error) {
	start := pos
	for pos < len(s) && !nameEnds[s[pos]] {
		pos++
	}
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
