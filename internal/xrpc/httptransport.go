package xrpc

// This file implements XRPC over HTTP POST — the wire protocol of the
// paper (SOAP request messages sent as synchronous POST requests) — plus
// the streaming variant, which delivers the response as length-prefixed
// chunk frames over a chunked HTTP response body so the originator decodes
// results while the peer is still producing them, and RouteTransport,
// which lets one federation mix in-memory and HTTP peers.

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"
)

// BudgetHeader duplicates the request message's relative budget (see
// Request.BudgetNS) as an HTTP header, so daemons can make layer-7
// admission decisions — shed on overload, fast-reject an already-expired
// query — without shredding the SOAP body first.
const BudgetHeader = "X-Xrpc-Budget-Ns"

// setBudgetHeader stamps the remaining budget of ctx onto an outgoing
// request; a context without a deadline sends none.
func setBudgetHeader(req *http.Request, ctx context.Context) {
	if dl, ok := ctx.Deadline(); ok {
		req.Header.Set(BudgetHeader, strconv.FormatInt(time.Until(dl).Nanoseconds(), 10))
	}
}

// headerBudgetExpired reports whether an incoming request declares a budget
// that is already spent — the cheapest possible rejection.
func headerBudgetExpired(r *http.Request) bool {
	h := r.Header.Get(BudgetHeader)
	if h == "" {
		return false
	}
	ns, err := strconv.ParseInt(h, 10, 64)
	return err == nil && ns <= 0
}

// HTTPTransport performs XRPC over HTTP POST. It implements Transport,
// ContextTransport and StreamTransport.
type HTTPTransport struct {
	// Client defaults to http.DefaultClient.
	Client *http.Client
	// URLFor maps a peer name to the gather-whole endpoint URL. The default
	// prepends http:// and appends /xrpc; the streaming endpoint is that URL
	// plus /stream.
	URLFor func(peer string) string
}

var _ Transport = (*HTTPTransport)(nil)
var _ ContextTransport = (*HTTPTransport)(nil)
var _ StreamTransport = (*HTTPTransport)(nil)

func (t *HTTPTransport) client() *http.Client {
	if t.Client != nil {
		return t.Client
	}
	return http.DefaultClient
}

func (t *HTTPTransport) urlFor(peer string) string {
	if t.URLFor != nil {
		return t.URLFor(peer)
	}
	return "http://" + peer + "/xrpc"
}

// RoundTrip implements Transport.
func (t *HTTPTransport) RoundTrip(peer string, request []byte) ([]byte, error) {
	return t.RoundTripContext(context.Background(), peer, request)
}

// RoundTripContext implements ContextTransport: cancelling ctx tears down
// the in-flight HTTP exchange.
func (t *HTTPTransport) RoundTripContext(ctx context.Context, peer string, request []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.urlFor(peer), bytes.NewReader(request))
	if err != nil {
		return nil, fmt.Errorf("xrpc: POST to %s: %w", peer, err)
	}
	req.Header.Set("Content-Type", "application/soap+xml")
	setBudgetHeader(req, ctx)
	setTraceHeader(req, ctx)
	resp, err := t.client().Do(req)
	if err != nil {
		return nil, fmt.Errorf("xrpc: POST to %s: %w", peer, err)
	}
	defer resp.Body.Close()
	body, err := ReadBody(resp.Body, resp.ContentLength)
	if err != nil {
		return nil, fmt.Errorf("xrpc: reading response from %s: %w", peer, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("xrpc: peer %s returned HTTP %d: %s", peer, resp.StatusCode, truncate(body))
	}
	return body, nil
}

// RoundTripStream implements StreamTransport: the peer's streaming endpoint
// answers with a chunked body carrying length-prefixed frames, each decoded
// and delivered to sink as it arrives. Backpressure is the TCP window: a
// sink that blocks stops the read loop, which stops the peer's writes. A
// peer without the streaming endpoint (404/405) degrades to one gather-
// whole exchange delivered as a single frame.
func (t *HTTPTransport) RoundTripStream(ctx context.Context, peer string, request []byte, sink func(frame []byte) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.urlFor(peer)+"/stream", bytes.NewReader(request))
	if err != nil {
		return fmt.Errorf("xrpc: POST to %s: %w", peer, err)
	}
	req.Header.Set("Content-Type", "application/soap+xml")
	setBudgetHeader(req, ctx)
	setTraceHeader(req, ctx)
	resp, err := t.client().Do(req)
	if err != nil {
		return fmt.Errorf("xrpc: POST to %s: %w", peer, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound || resp.StatusCode == http.StatusMethodNotAllowed {
		io.Copy(io.Discard, resp.Body)
		whole, err := t.RoundTripContext(ctx, peer, request)
		if err != nil {
			return err
		}
		return sink(whole)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := ReadBody(resp.Body, resp.ContentLength)
		return fmt.Errorf("xrpc: peer %s returned HTTP %d: %s", peer, resp.StatusCode, truncate(body))
	}
	br := bufio.NewReader(resp.Body)
	for {
		frame, err := readFrame(br)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("xrpc: reading stream from %s: %w", peer, err)
		}
		if err := sink(frame); err != nil {
			return err
		}
	}
}

// Frame encoding on a byte stream: ASCII decimal length, '\n', frame bytes.
// (HTTP chunked transfer encoding does not expose chunk boundaries to
// net/http readers, so frames carry their own.)

func writeFrame(w io.Writer, frame []byte) error {
	if _, err := fmt.Fprintf(w, "%d\n", len(frame)); err != nil {
		return err
	}
	_, err := w.Write(frame)
	return err
}

func readFrame(br *bufio.Reader) ([]byte, error) {
	header, err := br.ReadSlice('\n')
	if err != nil {
		if err == io.EOF && len(header) == 0 {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("frame header: %w", err)
	}
	digits := header[:len(header)-1]
	n, err := strconv.ParseInt(string(digits), 10, 64)
	if err != nil || n < 0 {
		return nil, fmt.Errorf("bad frame length %q", digits)
	}
	frame, err := ReadBody(br, n)
	if err != nil {
		return nil, fmt.Errorf("frame body: %w", err)
	}
	return frame, nil
}

// maxUpfront caps what a declared length may allocate before its bytes
// arrive. A message up to this size is read into one exactly sized buffer; a
// larger declaration starts here and grows only as data comes in, so a
// hostile length prefix or Content-Length costs at most this much.
const maxUpfront = 1 << 20

// ReadBody reads a message whose length r's sender declared: exactly
// declared bytes, or up to EOF when declared is negative (unknown). A body
// shorter than its declaration fails with io.ErrUnexpectedEOF. The returned
// slice is owned by the caller; nothing is pooled.
func ReadBody(r io.Reader, declared int64) ([]byte, error) {
	if declared < 0 {
		return io.ReadAll(r)
	}
	buf := make([]byte, 0, min(declared, maxUpfront))
	for int64(len(buf)) < declared {
		if len(buf) == cap(buf) {
			// Every byte so far arrived: double, never past the declaration.
			buf = slices.Grow(buf, int(min(declared-int64(len(buf)), int64(len(buf)))))
		}
		n, err := r.Read(buf[len(buf):min(int64(cap(buf)), declared)])
		buf = buf[:len(buf)+n]
		if err == io.EOF && int64(len(buf)) < declared {
			return nil, io.ErrUnexpectedEOF
		}
		if err != nil && err != io.EOF {
			return nil, err
		}
	}
	return buf, nil
}

// NewHTTPHandler adapts a Handler into an http.Handler serving POST /xrpc.
// The request body is read into one buffer of its declared length (see
// ReadBody) and handed to the Handler, which owns it from then on; every
// reply — response or fault — declares its Content-Length, so nothing is
// chunked and the client reads it the same way.
func NewHTTPHandler(h Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "xrpc requires POST", http.StatusMethodNotAllowed)
			return
		}
		if headerBudgetExpired(r) {
			writeSOAP(w, MarshalFault(fmt.Errorf("xrpc: budget spent before dispatch: %w", ErrDeadlineExceeded)))
			return
		}
		body, err := ReadBody(r.Body, r.ContentLength)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp, err := h.Handle(body)
		if err != nil {
			resp = MarshalFault(err) // faults travel as SOAP messages, status 200
		}
		writeSOAP(w, resp)
	})
}

// writeSOAP sends one whole XRPC message as a 200 reply of declared length.
func writeSOAP(w http.ResponseWriter, msg []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/soap+xml")
	h.Set("Content-Length", strconv.Itoa(len(msg)))
	_, _ = w.Write(msg)
}

// NewStreamHTTPHandler adapts a handler into the streaming endpoint
// (POST /xrpc/stream): response frames leave as they are produced, each
// flushed so the originator sees chunks without buffering delays. A handler
// without streaming support answers with its whole response as one frame;
// errors — upfront or mid-stream — travel as a fault frame.
func NewStreamHTTPHandler(h Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "xrpc requires POST", http.StatusMethodNotAllowed)
			return
		}
		if headerBudgetExpired(r) {
			w.Header().Set("Content-Type", "application/xrpc-stream")
			_ = writeFrame(w, MarshalFault(fmt.Errorf("xrpc: budget spent before dispatch: %w", ErrDeadlineExceeded)))
			return
		}
		body, err := ReadBody(r.Body, r.ContentLength)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/xrpc-stream")
		flusher, _ := w.(http.Flusher)
		wroteOK := true
		emit := func(frame []byte) error {
			if err := writeFrame(w, frame); err != nil {
				wroteOK = false
				return err
			}
			if flusher != nil {
				flusher.Flush()
			}
			return nil
		}
		sh, streams := h.(StreamHandler)
		if !streams {
			resp, err := h.Handle(body)
			if err != nil {
				resp = MarshalFault(err)
			}
			_ = emit(resp)
			return
		}
		if err := sh.HandleStream(body, emit); err != nil && wroteOK {
			_ = emit(MarshalFault(err))
		}
	})
}

// RouteTransport routes each peer name to its own transport, falling back
// to a default for unrouted peers — how an in-process federation reaches
// external HTTP peers. Extension interfaces (ContextTransport,
// StreamTransport) are forwarded per route, degrading gracefully when the
// routed transport lacks them.
type RouteTransport struct {
	// Fallback serves peers without a route; nil means unrouted peers fail.
	Fallback Transport

	mu     sync.RWMutex
	routes map[string]Transport
}

var _ Transport = (*RouteTransport)(nil)
var _ ContextTransport = (*RouteTransport)(nil)
var _ StreamTransport = (*RouteTransport)(nil)

// NewRouteTransport returns a router over the given fallback.
func NewRouteTransport(fallback Transport) *RouteTransport {
	return &RouteTransport{Fallback: fallback, routes: map[string]Transport{}}
}

// Route installs (or replaces) the transport serving one peer name.
func (t *RouteTransport) Route(peer string, transport Transport) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.routes[peer] = transport
}

func (t *RouteTransport) transportFor(peer string) (Transport, error) {
	t.mu.RLock()
	tr, ok := t.routes[peer]
	t.mu.RUnlock()
	if ok {
		return tr, nil
	}
	if t.Fallback != nil {
		return t.Fallback, nil
	}
	return nil, fmt.Errorf("xrpc: no route to peer %q", peer)
}

// RoundTrip implements Transport.
func (t *RouteTransport) RoundTrip(peer string, request []byte) ([]byte, error) {
	tr, err := t.transportFor(peer)
	if err != nil {
		return nil, err
	}
	return tr.RoundTrip(peer, request)
}

// RoundTripContext implements ContextTransport.
func (t *RouteTransport) RoundTripContext(ctx context.Context, peer string, request []byte) ([]byte, error) {
	tr, err := t.transportFor(peer)
	if err != nil {
		return nil, err
	}
	return roundTrip(ctx, tr, peer, request)
}

// RoundTripStream implements StreamTransport; a routed transport without
// streaming degrades to one gather-whole exchange delivered as one frame.
func (t *RouteTransport) RoundTripStream(ctx context.Context, peer string, request []byte, sink func(frame []byte) error) error {
	tr, err := t.transportFor(peer)
	if err != nil {
		return err
	}
	if st, ok := tr.(StreamTransport); ok {
		return st.RoundTripStream(ctx, peer, request, sink)
	}
	whole, err := roundTrip(ctx, tr, peer, request)
	if err != nil {
		return err
	}
	return sink(whole)
}
