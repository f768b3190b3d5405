package xrpc

import (
	"context"
	"fmt"
	"net/http"

	"distxq/internal/trace"
)

// This file carries trace identity across the two places the protocol layer
// cannot pass it structurally: error returns (a server that faults mid-work
// still owes the originator its partial spans) and the HTTP hop (the header
// mirrors the in-band request attributes for proxies and log correlation).

// tracedError attaches server-side spans to an error so they survive the
// trip through MarshalFault on any transport — the in-memory transport, the
// HTTP handler's 200-fault path, and the mid-stream fault frame all funnel
// handler errors through MarshalFault unchanged.
type tracedError struct {
	err   error
	spans []trace.Span
}

func (e *tracedError) Error() string { return e.err.Error() }

func (e *tracedError) Unwrap() error { return e.err }

// TracedError wraps err with the spans a faulting server recorded; err is
// returned unchanged when there are no spans.
func TracedError(err error, spans []trace.Span) error {
	if err == nil || len(spans) == 0 {
		return err
	}
	return &tracedError{err: err, spans: spans}
}

// faultSpans extracts piggybacked spans from an error chain.
func faultSpans(err error) []trace.Span {
	for ; err != nil; err = unwrapOnce(err) {
		if te, ok := err.(*tracedError); ok {
			return te.spans
		}
	}
	return nil
}

func unwrapOnce(err error) error {
	u, ok := err.(interface{ Unwrap() error })
	if !ok {
		return nil
	}
	return u.Unwrap()
}

// TraceHeader mirrors the request's trace identity on the HTTP hop as
// "<trace-id>-<span-id>", so intermediaries can correlate without parsing
// the SOAP body.
const TraceHeader = "X-Xrpc-Trace"

// traceCtxKey carries the (TraceID, SpanID) pair of the in-flight request
// from the client call site to the HTTP transport.
type traceCtxKey struct{}

type traceCtxVal struct {
	id   uint64
	span uint64
}

// withTraceInfo stamps the request's trace identity into ctx for the
// transport layer to surface as TraceHeader.
func withTraceInfo(ctx context.Context, id, span uint64) context.Context {
	if id == 0 {
		return ctx
	}
	return context.WithValue(ctx, traceCtxKey{}, traceCtxVal{id: id, span: span})
}

// setTraceHeader adds TraceHeader to req when ctx carries trace identity.
func setTraceHeader(req *http.Request, ctx context.Context) {
	v, ok := ctx.Value(traceCtxKey{}).(traceCtxVal)
	if !ok {
		return
	}
	req.Header.Set(TraceHeader, fmt.Sprintf("%d-%d", v.id, v.span))
}
