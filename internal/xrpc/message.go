// Package xrpc implements the XRPC protocol of the paper: SOAP request/
// response messages carrying shipped XQuery functions and their parameters
// under three passing semantics — pass-by-value (deep copies, Fig. 1),
// pass-by-fragment (a fragments preamble with fragid/nodeid references,
// Fig. 4), and pass-by-projection (runtime-projected fragments plus a
// projection-paths element steering response projection, Fig. 5) — together
// with Bulk RPC, the client (an eval.RemoteCaller), the server handler, and
// byte-counting transports.
//
// The layer's contract: a Client turns eval's remote-call hooks into wire
// exchanges over any Transport (in-memory, HTTP, or a per-peer router) and
// guarantees that what the evaluator gathers is independent of the wiring —
// faults surface as the same *Fault through every transport, scatter lanes
// keep loop order, streamed dispatch (Client.Streamed, chunk frames over a
// StreamTransport) is byte-identical to gather-whole, and under a
// RetryPolicy a lane transparently fails over to replica peers (retry on
// fault, hedge on straggle; retry.go) without changing results. Metrics
// records every exchange, grouped into overlap waves, for the netsim cost
// model.
package xrpc

import (
	"fmt"
	"strconv"
	"strings"

	"distxq/internal/eval"
	"distxq/internal/projection"
	"distxq/internal/trace"
	"distxq/internal/xdm"
)

// Semantics selects the parameter-passing semantics of a message exchange.
type Semantics uint8

// The three passing semantics of the paper.
const (
	ByValue Semantics = iota
	ByFragment
	ByProjection
)

func (s Semantics) String() string {
	switch s {
	case ByValue:
		return "by-value"
	case ByFragment:
		return "by-fragment"
	case ByProjection:
		return "by-projection"
	}
	return fmt.Sprintf("Semantics(%d)", uint8(s))
}

// ParseSemantics parses the message attribute form.
func ParseSemantics(s string) (Semantics, error) {
	switch s {
	case "by-value":
		return ByValue, nil
	case "by-fragment":
		return ByFragment, nil
	case "by-projection":
		return ByProjection, nil
	}
	return ByValue, fmt.Errorf("xrpc: unknown semantics %q", s)
}

// Request is the logical content of an XRPC request message. Calls holds one
// entry per Bulk RPC iteration; a plain call has exactly one.
type Request struct {
	Method    string
	Arity     int
	Semantics Semantics
	// Module carries the generated function declaration(s) shipped inline
	// (source text, self-contained).
	Module string
	// Static context propagated to the remote peer (Problem 5 class 1).
	Static eval.StaticContext
	// ResultUsed/ResultReturned are the relative projection paths the remote
	// peer must apply when serializing the response (pass-by-projection).
	ResultUsed     projection.PathSet
	ResultReturned projection.PathSet
	// BudgetNS, when positive, is the originator's remaining query budget in
	// nanoseconds at marshal time. It travels as a relative duration — never
	// an absolute deadline — so propagation needs no clock synchronization:
	// the server re-clocks it from receipt time and aborts evaluation once
	// the budget is spent, reporting a deadline-coded fault.
	BudgetNS int64
	// TraceID/TraceSpan propagate the originator's trace identity: when
	// TraceID is non-zero the server records its own spans (anchored at
	// request arrival) and piggybacks them on the response so the originator
	// can stitch one cross-peer tree. TraceSpan is the client-side attempt
	// span the server's work logically nests under.
	TraceID   uint64
	TraceSpan uint64
	// Calls: per iteration, per parameter, the encoded sequence.
	Calls [][]xdm.Sequence
	// frags holds the numbering roots of the decoded fragments (server
	// side), so tests can inspect identity preservation.
	frags []*xdm.Node
}

// Response is the logical content of an XRPC response message.
type Response struct {
	Semantics Semantics
	// Results holds one result sequence per call.
	Results []xdm.Sequence
	// ExecNanos reports the server's function-evaluation time, letting the
	// client separate remote-exec from network time in breakdowns.
	ExecNanos int64
	// SerializeNanos reports the server-side (de)serialization time.
	SerializeNanos int64
	// Spans carries the server-side span tree of a traced request, on the
	// peer's own timeline (anchored at request arrival); the originator
	// ingests them under the attempt span that issued the call.
	Spans []trace.Span
	frags []*xdm.Node
}

// Message framing names, as the encoder writes them. The decoder matches
// element names on their local part (localName), whatever the prefix.
const (
	elBody       = "env:Body"
	elRequest    = "xrpc:request"
	elResponse   = "xrpc:response"
	elChunk      = "xrpc:chunk"
	elModule     = "xrpc:module"
	elProjPaths  = "xrpc:projection-paths"
	elUsedPath   = "xrpc:used-path"
	elRetPath    = "xrpc:returned-path"
	elFragments  = "xrpc:fragments"
	elFragment   = "xrpc:fragment"
	elCall       = "xrpc:call"
	elSequence   = "xrpc:sequence"
	elAtomic     = "xrpc:atomic-value"
	elElement    = "xrpc:element"
	elAttribute  = "xrpc:attribute"
	elTextNode   = "xrpc:text"
	elCommentEl  = "xrpc:comment"
	elDocumentEl = "xrpc:document"
	// elTrace carries piggybacked server-side spans (JSON text payload) on
	// responses, terminal stream frames, and faults. Parsers that predate it
	// skip unknown children, so the element is backward compatible.
	elTrace = "xrpc:trace"
)

const envelopeOpen = `<env:Envelope xmlns:env="http://www.w3.org/2003/05/soap-envelope" xmlns:xrpc="http://monetdb.cwi.nl/XQuery">`

// wireBuf is the one append buffer a message is encoded into. Every Marshal*
// function sizes it once from what it knows about the message, writes
// literals, strconv-formatted numbers and escaped text straight into it, and
// hands the finished slice to its caller — who owns it from then on: a
// transport, a frame sink or a recorder may keep a message for as long as it
// likes, so the buffer is never pooled or reused. xdm.Serialize writes node
// content through the io.StringWriter side.
type wireBuf struct{ b []byte }

func (w *wireBuf) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

func (w *wireBuf) WriteString(s string) (int, error) {
	w.b = append(w.b, s...)
	return len(s), nil
}

func (w *wireBuf) str(s string)     { w.b = append(w.b, s...) }
func (w *wireBuf) num(v int64)      { w.b = strconv.AppendInt(w.b, v, 10) }
func (w *wireBuf) unum(v uint64)    { w.b = strconv.AppendUint(w.b, v, 10) }
func (w *wireBuf) text(s string)    { w.b = appendEscaped(w.b, s, '>') }
func (w *wireBuf) attr(s string)    { w.b = appendEscaped(w.b, s, '"') }
func (w *wireBuf) node(n *xdm.Node) { _ = xdm.Serialize(w, n) } // appends cannot fail

// appendEscaped appends s with &, < and the carriage return replaced by
// their references (a literal \r would decode as \n), plus the one further
// character the position requires: > in element content, the double quote
// in attribute values.
func appendEscaped(b []byte, s string, third byte) []byte {
	last := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '&' && c != '<' && c != '\r' && c != third {
			continue
		}
		b = append(b, s[last:i]...)
		switch c {
		case '&':
			b = append(b, "&amp;"...)
		case '<':
			b = append(b, "&lt;"...)
		case '\r':
			b = append(b, "&#13;"...)
		case '>':
			b = append(b, "&gt;"...)
		default:
			b = append(b, "&quot;"...)
		}
		last = i + 1
	}
	return append(b, s[last:]...)
}

func (w *wireBuf) atomic(a xdm.Atomic) {
	w.str("<" + elAtomic + ` type="`)
	w.str(a.T.String())
	w.str(`">`)
	if a.T == xdm.TInteger {
		w.num(a.I)
	} else {
		w.text(a.ItemString())
	}
	w.str("</" + elAtomic + ">")
}

// parseAtomic decodes the text of an xrpc:atomic-value of type tname.
func parseAtomic(tname, s string) (xdm.Atomic, error) {
	t, ok := xdm.ParseAtomType(tname)
	if !ok {
		return xdm.Atomic{}, fmt.Errorf("xrpc: unknown atomic type %q", tname)
	}
	switch t {
	case xdm.TBoolean:
		switch s {
		case "true", "1":
			return xdm.NewBoolean(true), nil
		case "false", "0":
			return xdm.NewBoolean(false), nil
		}
		return xdm.Atomic{}, fmt.Errorf("xrpc: bad boolean %q", s)
	case xdm.TInteger:
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return xdm.Atomic{}, fmt.Errorf("xrpc: bad integer %q", s)
		}
		return xdm.NewInteger(i), nil
	case xdm.TDouble:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return xdm.Atomic{}, fmt.Errorf("xrpc: bad double %q", s)
		}
		return xdm.NewDouble(f), nil
	case xdm.TUntyped:
		return xdm.NewUntyped(s), nil
	default:
		return xdm.NewString(s), nil
	}
}

// localName strips a namespace prefix: message decoding matches element
// names on their local part, whatever prefix the sender declared.
func localName(name string) string {
	if i := strings.IndexByte(name, ':'); i >= 0 {
		return name[i+1:]
	}
	return name
}
