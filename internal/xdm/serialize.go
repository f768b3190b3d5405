package xdm

import (
	"io"
	"strings"
)

// Serialize writes the subtree rooted at n as XML text. Document nodes emit
// their children; attribute nodes emit name="value" (useful in messages).
// A writer that implements io.StringWriter receives the text without any
// intermediate copy, escaped content included.
func Serialize(w io.Writer, n *Node) error {
	sw := newStickyWriter(w)
	serializeNode(&sw, n)
	return sw.err
}

// SerializeSequence writes s as results print, space separated, until a write error.
func SerializeSequence(w io.Writer, s Sequence) error {
	sw := newStickyWriter(w)
	for i, it := range s {
		if i > 0 {
			sw.str(" ")
		}
		switch v := it.(type) {
		case *Node:
			serializeNode(&sw, v)
		case Atomic:
			sw.str(v.ItemString())
		case *Raw:
			sw.str(v.XML)
		}
	}
	return sw.err
}

// SequenceString renders a sequence as SerializeSequence writes it.
func SequenceString(s Sequence) string {
	var sb strings.Builder
	_ = SerializeSequence(&sb, s)
	return sb.String()
}

func newStickyWriter(w io.Writer) stickyWriter {
	if s, ok := w.(io.StringWriter); ok {
		return stickyWriter{w: s}
	}
	return stickyWriter{w: byteWriter{w}}
}

// byteWriter adapts a plain io.Writer to the serializer.
type byteWriter struct{ w io.Writer }

func (b byteWriter) WriteString(s string) (int, error) { return b.w.Write([]byte(s)) }

// SerializeString renders a node subtree to a string.
func SerializeString(n *Node) string {
	var sb strings.Builder
	_ = Serialize(&sb, n)
	return sb.String()
}

// SerializedSize returns the number of bytes the subtree serializes to; the
// benchmark harness uses it to account bandwidth without buffering.
func SerializedSize(n *Node) int64 {
	cw := &countWriter{}
	_ = Serialize(cw, n)
	return cw.n
}

type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

func (c *countWriter) WriteString(s string) (int, error) {
	c.n += int64(len(s))
	return len(s), nil
}

type stickyWriter struct {
	w   io.StringWriter
	err error
}

func (s *stickyWriter) str(ss string) {
	if s.err != nil {
		return
	}
	_, s.err = s.w.WriteString(ss)
}

// textEscapes and attrEscapes map a byte to the index of its entity in
// escapeEntity, 0 for bytes written as they are; attribute values
// additionally escape the double quote. A carriage return travels as a
// character reference: a parser's end-of-line handling turns a literal one
// into a newline.
var (
	textEscapes  = [256]uint8{'&': 1, '<': 2, '>': 3, '\r': 5}
	attrEscapes  = [256]uint8{'&': 1, '<': 2, '>': 3, '"': 4, '\r': 5}
	escapeEntity = [...]string{1: "&amp;", 2: "&lt;", 3: "&gt;", 4: "&quot;", 5: "&#13;"}
)

// escaped writes ss with the bytes esc marks replaced by their entities, run
// by run, so no escaped copy of the string is ever built.
func (s *stickyWriter) escaped(ss string, esc *[256]uint8) {
	// Long character data rarely holds markup, and a vectorised byte search
	// per markup character proves it faster than the table walk below.
	if len(ss) >= 32 && strings.IndexByte(ss, '&') < 0 && strings.IndexByte(ss, '<') < 0 &&
		strings.IndexByte(ss, '>') < 0 && strings.IndexByte(ss, '\r') < 0 &&
		(esc == &textEscapes || strings.IndexByte(ss, '"') < 0) {
		s.str(ss)
		return
	}
	last := 0
	for i := 0; i < len(ss); i++ {
		if c := esc[ss[i]]; c != 0 {
			s.str(ss[last:i])
			s.str(escapeEntity[c])
			last = i + 1
		}
	}
	s.str(ss[last:])
}

func serializeNode(w *stickyWriter, n *Node) {
	switch n.Kind {
	case DocumentNode:
		for _, c := range n.Children {
			serializeNode(w, c)
		}
	case ElementNode:
		w.str("<")
		w.str(n.Name)
		for _, a := range n.Attrs {
			w.str(" ")
			w.str(a.Name)
			w.str(`="`)
			w.escaped(a.Text, &attrEscapes)
			w.str(`"`)
		}
		if len(n.Children) == 0 {
			w.str("/>")
			return
		}
		w.str(">")
		for _, c := range n.Children {
			serializeNode(w, c)
		}
		w.str("</")
		w.str(n.Name)
		w.str(">")
	case TextNode:
		w.escaped(n.Text, &textEscapes)
	case CommentNode:
		w.str("<!--")
		w.str(n.Text)
		w.str("-->")
	case AttributeNode:
		w.str(n.Name)
		w.str(`="`)
		w.escaped(n.Text, &attrEscapes)
		w.str(`"`)
	}
}
