package xdm

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"
)

// Parse reads an XML document from r and returns a frozen Document with the
// given URI. Namespace prefixes are preserved literally in node names; no
// namespace resolution is performed (the XRPC message layer matches on
// prefixed names).
func Parse(r io.Reader, uri string) (*Document, error) {
	dec := xml.NewDecoder(r)
	// Keep entities and raw text simple: the decoder handles the predefined
	// XML entities; we do not load external DTDs.
	dec.Strict = true
	doc := NewDocument(uri)
	cur := doc.Root
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xdm: parse %s: %w", uri, err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			el := NewElement(qname(t.Name))
			for _, a := range t.Attr {
				n := qname(a.Name)
				if n == "xmlns" || strings.HasPrefix(n, "xmlns:") {
					continue
				}
				el.SetAttr(n, a.Value)
			}
			cur.AppendChild(el)
			cur = el
		case xml.EndElement:
			if cur.Parent == nil {
				return nil, fmt.Errorf("xdm: parse %s: unbalanced end element", uri)
			}
			cur = cur.Parent
		case xml.CharData:
			s := string(t)
			if cur == doc.Root && strings.TrimSpace(s) == "" {
				continue // ignore whitespace outside the document element
			}
			if len(cur.Children) > 0 && cur.Children[len(cur.Children)-1].Kind == TextNode {
				cur.Children[len(cur.Children)-1].Text += s
				continue
			}
			cur.AppendChild(NewText(s))
		case xml.Comment:
			cur.AppendChild(NewComment(string(t)))
		case xml.ProcInst, xml.Directive:
			// ignored: not part of our data model subset
		}
	}
	if cur != doc.Root {
		return nil, fmt.Errorf("xdm: parse %s: unexpected EOF inside element %s", uri, cur.Name)
	}
	doc.Freeze()
	return doc, nil
}

// ParseString parses an XML document held in a string.
func ParseString(s, uri string) (*Document, error) {
	return Parse(strings.NewReader(s), uri)
}

func qname(n xml.Name) string {
	// encoding/xml resolves prefixes into Space; we re-derive a readable
	// prefixed name. For unprefixed names Space is the default namespace URI
	// which we drop, keeping the local name.
	if n.Space == "" || strings.Contains(n.Space, "/") || strings.Contains(n.Space, ":") {
		return n.Local
	}
	return n.Space + ":" + n.Local
}
