package xrpc

import (
	"fmt"
	"strconv"

	"distxq/internal/eval"
	"distxq/internal/projection"
	"distxq/internal/trace"
	"distxq/internal/xdm"
)

// This file keeps the tree-walking message decoder the one-pass decoder
// replaced, as the reference FuzzDecodeMatchesReference compares it with:
// it parses the whole message into an xdm tree, then walks the tree. Only
// the entry points are renamed (refParseRequest, refParseResponse,
// refParseResponseChunk); the leaf parsers both decoders share
// (ParseSemantics, parseAtomic, projection.ParsePath, trace.DecodeSpans)
// are the production ones.

// refParseRequest shreds a request message: fragments become fresh documents
// and parameter sequences resolve into them (preserving node identity and
// order among parameters of the same message, §V).
func refParseRequest(data []byte) (*Request, error) {
	doc, err := xdm.ParseBytes(data, "xrpc:request")
	if err != nil {
		return nil, fmt.Errorf("xrpc: malformed request: %w", err)
	}
	reqEl, err := messagePayload(doc, elRequest)
	if err != nil {
		return nil, err
	}
	r := &Request{Method: attrOr(reqEl, "method", "")}
	r.Arity, _ = strconv.Atoi(attrOr(reqEl, "arity", "0"))
	r.Semantics, err = ParseSemantics(attrOr(reqEl, "semantics", "by-value"))
	if err != nil {
		return nil, err
	}
	r.Static = eval.StaticContext{
		BaseURI:          attrOr(reqEl, "base-uri", ""),
		DefaultCollation: attrOr(reqEl, "collation", ""),
		CurrentDateTime:  attrOr(reqEl, "datetime", ""),
	}
	r.BudgetNS, _ = strconv.ParseInt(attrOr(reqEl, "budget-ns", "0"), 10, 64)
	r.TraceID, _ = strconv.ParseUint(attrOr(reqEl, "trace-id", "0"), 10, 64)
	r.TraceSpan, _ = strconv.ParseUint(attrOr(reqEl, "span-id", "0"), 10, 64)
	if m := findChild(reqEl, elModule); m != nil {
		r.Module = m.StringValue()
	}
	if pp := findChild(reqEl, elProjPaths); pp != nil {
		for _, c := range pp.Children {
			if c.Kind != xdm.ElementNode {
				continue
			}
			p, perr := projection.ParsePath(c.StringValue())
			if perr != nil {
				return nil, perr
			}
			switch localName(c.Name) {
			case localName(elUsedPath):
				r.ResultUsed = r.ResultUsed.Add(p)
			case localName(elRetPath):
				r.ResultReturned = r.ResultReturned.Add(p)
			}
		}
	}
	st, err := decodeFragments(findChild(reqEl, elFragments))
	if err != nil {
		return nil, err
	}
	r.frags = st.fragRoots
	for _, callEl := range reqEl.Children {
		if callEl.Kind != xdm.ElementNode || !nameIs(callEl, elCall) {
			continue
		}
		params := make([]xdm.Sequence, 0, len(callEl.Children))
		for _, seqEl := range callEl.Children {
			if seqEl.Kind != xdm.ElementNode {
				continue
			}
			if !nameIs(seqEl, elSequence) {
				return nil, fmt.Errorf("xrpc: unexpected %s in call", seqEl.Name)
			}
			s, err := st.decodeSequence(seqEl)
			if err != nil {
				return nil, err
			}
			params = append(params, s)
		}
		if len(params) != r.Arity {
			return nil, fmt.Errorf("xrpc: call carries %d sequences, arity is %d", len(params), r.Arity)
		}
		r.Calls = append(r.Calls, params)
	}
	if len(r.Calls) == 0 {
		return nil, fmt.Errorf("xrpc: request without calls")
	}
	return r, nil
}

// refParseResponse shreds a response message.
func refParseResponse(data []byte) (*Response, error) {
	doc, err := xdm.ParseBytes(data, "xrpc:response")
	if err != nil {
		return nil, fmt.Errorf("xrpc: malformed response: %w", err)
	}
	respEl, err := messagePayload(doc, elResponse)
	if err != nil {
		return nil, err
	}
	resp := &Response{}
	resp.Semantics, err = ParseSemantics(attrOr(respEl, "semantics", "by-value"))
	if err != nil {
		return nil, err
	}
	resp.ExecNanos, _ = strconv.ParseInt(attrOr(respEl, "exec-ns", "0"), 10, 64)
	resp.SerializeNanos, _ = strconv.ParseInt(attrOr(respEl, "serde-ns", "0"), 10, 64)
	resp.Spans = parseTraceEl(respEl)
	st, err := decodeFragments(findChild(respEl, elFragments))
	if err != nil {
		return nil, err
	}
	resp.frags = st.fragRoots
	resp.Results = make([]xdm.Sequence, 0, len(respEl.Children))
	for _, callEl := range respEl.Children {
		if callEl.Kind != xdm.ElementNode || !nameIs(callEl, elCall) {
			continue
		}
		seqEl := findChild(callEl, elSequence)
		if seqEl == nil {
			return nil, fmt.Errorf("xrpc: response call without sequence")
		}
		s, err := st.decodeSequence(seqEl)
		if err != nil {
			return nil, err
		}
		resp.Results = append(resp.Results, s)
	}
	return resp, nil
}

// refParseResponseChunk shreds one stream frame. A fault frame surfaces as a
// *Fault error, like refParseResponse.
func refParseResponseChunk(data []byte) (*ResponseChunk, error) {
	doc, err := xdm.ParseBytes(data, "xrpc:chunk")
	if err != nil {
		return nil, fmt.Errorf("xrpc: malformed chunk frame: %w", err)
	}
	el, err := messagePayload(doc, elChunk)
	if err != nil {
		return nil, err
	}
	ch := &ResponseChunk{}
	ch.Seq, err = strconv.Atoi(attrOr(el, "seq", ""))
	if err != nil {
		return nil, fmt.Errorf("xrpc: chunk frame without seq")
	}
	ch.SerializeNanos, _ = strconv.ParseInt(attrOr(el, "serde-ns", "0"), 10, 64)
	if attrOr(el, "last", "") == "true" {
		ch.Last = true
		ch.Calls, err = strconv.Atoi(attrOr(el, "calls", ""))
		if err != nil {
			return nil, fmt.Errorf("xrpc: terminal frame without calls count")
		}
		ch.Spans = parseTraceEl(el)
		return ch, nil
	}
	ch.Semantics, err = ParseSemantics(attrOr(el, "semantics", "by-value"))
	if err != nil {
		return nil, err
	}
	if ch.Call, err = strconv.Atoi(attrOr(el, "call", "")); err != nil {
		return nil, fmt.Errorf("xrpc: chunk frame without call index")
	}
	if ch.FirstItem, err = strconv.Atoi(attrOr(el, "first-item", "")); err != nil {
		return nil, fmt.Errorf("xrpc: chunk frame without first-item")
	}
	ch.ExecNanos, _ = strconv.ParseInt(attrOr(el, "exec-ns", "0"), 10, 64)
	st, err := decodeFragments(findChild(el, elFragments))
	if err != nil {
		return nil, err
	}
	seqEl := findChild(el, elSequence)
	if seqEl == nil {
		return nil, fmt.Errorf("xrpc: chunk frame without sequence")
	}
	ch.Items, err = st.decodeSequence(seqEl)
	if err != nil {
		return nil, err
	}
	return ch, nil
}

// parseTraceEl decodes a piggybacked-span child of el, nil when absent or
// malformed — trace data is advisory and never fails message decoding.
func parseTraceEl(el *xdm.Node) []trace.Span {
	tEl := findChild(el, elTrace)
	if tEl == nil {
		return nil
	}
	spans, err := trace.DecodeSpans([]byte(tEl.StringValue()))
	if err != nil {
		return nil
	}
	return spans
}

// messagePayload unwraps Envelope/Body and returns the payload element,
// surfacing faults as errors.
func messagePayload(doc *xdm.Document, want string) (*xdm.Node, error) {
	env := doc.DocElem()
	if env == nil || !nameIs(env, "env:Envelope") {
		return nil, fmt.Errorf("xrpc: not a SOAP envelope")
	}
	body := findChild(env, elBody)
	if body == nil {
		return nil, fmt.Errorf("xrpc: envelope without body")
	}
	if f := findChild(body, "env:Fault"); f != nil {
		fault := &Fault{Msg: f.StringValue()}
		if r := findChild(f, "env:Reason"); r != nil {
			fault.Msg = r.StringValue()
		}
		if c := findChild(f, "env:Code"); c != nil {
			fault.Code = c.StringValue()
		}
		fault.Spans = parseTraceEl(f)
		return nil, fault
	}
	el := findChild(body, want)
	if el == nil {
		return nil, fmt.Errorf("xrpc: body lacks %s", want)
	}
	return el, nil
}

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
	uris := xdm.NewURIs(&decodedDocSeq, fragmentURIPrefix, n)
	for _, f := range fragsEl.Children {
		if f.Kind != xdm.ElementNode {
			continue
		}
		if !nameIs(f, elFragment) {
			return nil, fmt.Errorf("xrpc: unexpected %s in fragments", f.Name)
		}
		d := adoptInto(uris.Next(), f)
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

func parseAtomicEl(n *xdm.Node) (xdm.Atomic, error) {
	tname := "xs:string"
	if a := n.Attr("type"); a != nil {
		tname = a.Text
	}
	return parseAtomic(tname, n.StringValue())
}

// nameIs compares element names modulo namespace prefix.
func nameIs(n *xdm.Node, want string) bool {
	return localName(n.Name) == localName(want)
}

func findChild(n *xdm.Node, name string) *xdm.Node {
	for _, c := range n.Children {
		if c.Kind == xdm.ElementNode && nameIs(c, name) {
			return c
		}
	}
	return nil
}

func attrOr(n *xdm.Node, name, def string) string {
	if a := n.Attr(name); a != nil {
		return a.Text
	}
	return def
}

// valueDocURI names the document of one pass-by-value copy the reference
// decoder builds.
func valueDocURI() string {
	return valueURIPrefix + strconv.FormatUint(decodedDocSeq.Add(1), 10)
}
