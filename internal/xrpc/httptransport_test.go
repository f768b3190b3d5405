package xrpc

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"distxq/internal/eval"
	"distxq/internal/projection"
	"distxq/internal/testkit"
	"distxq/internal/xdm"
	"distxq/internal/xq"
)

// httpFederation starts one httptest server per peer (gather and stream
// endpoints) and returns an HTTPTransport routing peer names to them.
func httpFederation(t *testing.T, peers map[string]*Server) *HTTPTransport {
	t.Helper()
	urls := map[string]string{}
	for name, srv := range peers {
		mux := http.NewServeMux()
		mux.Handle("/xrpc", NewHTTPHandler(srv))
		mux.Handle("/xrpc/stream", NewStreamHTTPHandler(srv))
		ts := httptest.NewServer(mux)
		t.Cleanup(ts.Close)
		urls[name] = ts.URL
	}
	return &HTTPTransport{
		URLFor: func(peer string) string { return urls[peer] + "/xrpc" },
	}
}

// TestScatterOverHTTPConcurrent drives concurrent scatter-gather over real
// HTTP connections: many sessions in flight at once, each dispatching one
// Bulk RPC per peer concurrently, gather-whole and streamed.
func TestScatterOverHTTPConcurrent(t *testing.T) {
	tr := httpFederation(t, streamScatterPeers(2))

	gatherEng, _ := wire(t, ByFragment, streamScatterPeers(0))
	want, err := testkit.Query(gatherEng, interleavedScatterSrc)
	if err != nil {
		t.Fatal(err)
	}
	w := serialize(want)

	newEngine := func(streamed bool) *eval.Engine {
		cl := &Client{Transport: tr, Semantics: ByFragment, Static: eval.DefaultStatic(),
			Relatives: map[*xq.XRPCExpr]projection.RelativePaths{}, Metrics: &Metrics{}}
		eng := eval.NewEngine(nil)
		if streamed {
			eng.Remote = &StreamedClient{Client: cl}
		} else {
			eng.Remote = cl
		}
		return eng
	}

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			eng := newEngine(i%2 == 0)
			got, err := testkit.Query(eng, interleavedScatterSrc)
			if err != nil {
				errs <- fmt.Errorf("session %d: %w", i, err)
				return
			}
			if g := serialize(got); g != w {
				errs <- fmt.Errorf("session %d: got %q want %q", i, g, w)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestHTTPStreamDeliversChunkFrames: the streaming endpoint must actually
// deliver multiple chunk frames (not one buffered response).
func TestHTTPStreamDeliversChunkFrames(t *testing.T) {
	tr := httpFederation(t, streamScatterPeers(1))
	var frames int
	err := tr.RoundTripStream(context.Background(), "a",
		mustMarshalScatterRequest(t), func(frame []byte) error {
			frames++
			if _, err := ParseResponseChunk(frame); err != nil {
				return err
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if frames < 3 {
		t.Fatalf("stream delivered %d frames, want several (chunked)", frames)
	}
}

// mustMarshalScatterRequest builds a one-call request for peer function f.
func mustMarshalScatterRequest(t *testing.T) []byte {
	t.Helper()
	req := &Request{
		Method: "f", Arity: 0, Semantics: ByValue,
		Module: `declare function f() as item()* { ("x", doc("d.xml")/child::r/child::v) };`,
		Calls:  [][]xdm.Sequence{{}},
	}
	data, err := MarshalRequest(req, nil, nil, projection.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestHTTPStreamFallbackWithoutEndpoint: a peer serving only /xrpc (no
// stream endpoint) degrades to one gather-whole frame.
func TestHTTPStreamFallbackWithoutEndpoint(t *testing.T) {
	peers := streamScatterPeers(1)
	urls := map[string]string{}
	for name, srv := range peers {
		mux := http.NewServeMux()
		mux.Handle("/xrpc", NewHTTPHandler(srv)) // no /xrpc/stream
		ts := httptest.NewServer(mux)
		t.Cleanup(ts.Close)
		urls[name] = ts.URL
	}
	tr := &HTTPTransport{URLFor: func(p string) string { return urls[p] + "/xrpc" }}
	cl := &StreamedClient{Client: &Client{Transport: tr, Semantics: ByFragment,
		Static: eval.DefaultStatic(), Relatives: map[*xq.XRPCExpr]projection.RelativePaths{},
		Metrics: &Metrics{}}}
	eng := eval.NewEngine(nil)
	eng.Remote = cl
	got, err := testkit.Query(eng, interleavedScatterSrc)
	if err != nil {
		t.Fatal(err)
	}
	gatherEng, _ := wire(t, ByFragment, streamScatterPeers(0))
	want, _ := testkit.Query(gatherEng, interleavedScatterSrc)
	if g, w := serialize(got), serialize(want); g != w {
		t.Fatalf("got %q want %q", g, w)
	}
}

// TestRouteTransportMixedFederation: in-memory peers and HTTP peers in one
// scatter wave.
func TestRouteTransportMixedFederation(t *testing.T) {
	peers := streamScatterPeers(1)
	mem := NewInMemoryTransport()
	mem.Register("a", peers["a"])
	mem.Register("b", peers["b"])
	httpTr := httpFederation(t, map[string]*Server{"c": peers["c"]})
	router := NewRouteTransport(mem)
	router.Route("c", httpTr)

	for _, streamed := range []bool{false, true} {
		cl := &Client{Transport: router, Semantics: ByValue, Static: eval.DefaultStatic(),
			Relatives: map[*xq.XRPCExpr]projection.RelativePaths{}, Metrics: &Metrics{}}
		eng := eval.NewEngine(nil)
		if streamed {
			eng.Remote = &StreamedClient{Client: cl}
		} else {
			eng.Remote = cl
		}
		got, err := testkit.Query(eng, interleavedScatterSrc)
		if err != nil {
			t.Fatalf("streamed=%v: %v", streamed, err)
		}
		gatherEng, _ := wire(t, ByValue, streamScatterPeers(0))
		want, _ := testkit.Query(gatherEng, interleavedScatterSrc)
		if g, w := serialize(got), serialize(want); g != w {
			t.Fatalf("streamed=%v: got %q want %q", streamed, g, w)
		}
	}
}

// TestScatterCancelsInFlightHTTP: when one lane fails, in-flight HTTP calls
// to slower peers are torn down through the request context instead of
// being waited out (and instead of leaking pool workers).
func TestScatterCancelsInFlightHTTP(t *testing.T) {
	slowCancelled := make(chan struct{})
	slowStarted := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Drain the body first: the server only notices a client disconnect
		// (and cancels r.Context()) once the request has been consumed.
		_, _ = io.ReadAll(r.Body)
		close(slowStarted)
		select {
		case <-r.Context().Done():
			close(slowCancelled)
		case <-time.After(30 * time.Second):
		}
	}))
	t.Cleanup(slow.Close)
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Fail only once the slow peer's exchange is in flight, so the
		// cancellation provably tears down an in-flight call (not a lane
		// that never dispatched).
		<-slowStarted
		http.Error(w, "dead peer", http.StatusInternalServerError)
	}))
	t.Cleanup(dead.Close)
	urls := map[string]string{"slow": slow.URL, "dead": dead.URL}
	tr := &HTTPTransport{URLFor: func(p string) string { return urls[p] }}
	cl := &Client{Transport: tr, Semantics: ByValue, Static: eval.DefaultStatic(),
		Relatives: map[*xq.XRPCExpr]projection.RelativePaths{}, Metrics: &Metrics{}}
	eng := eval.NewEngine(nil)
	eng.Remote = cl

	start := time.Now()
	_, err := testkit.Query(eng, `
	declare function f($x as xs:string) as item()* { $x };
	for $p in ("slow", "dead") return execute at {$p} { f($p) }`)
	if err == nil || !strings.Contains(err.Error(), "scatter to dead") {
		t.Fatalf("error = %v, want failure naming the dead peer", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("scatter took %v — the slow lane was waited out instead of cancelled", elapsed)
	}
	select {
	case <-slowCancelled:
	case <-time.After(10 * time.Second):
		t.Fatal("slow peer's request context was never cancelled")
	}
}

// TestExternalContextCancelsDispatch: cancelling Client.Context aborts a
// dispatch outright.
func TestExternalContextCancelsDispatch(t *testing.T) {
	blocked := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.ReadAll(r.Body) // see TestScatterCancelsInFlightHTTP
		<-r.Context().Done()
	}))
	t.Cleanup(blocked.Close)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	tr := &HTTPTransport{URLFor: func(string) string { return blocked.URL }}
	cl := &Client{Transport: tr, Semantics: ByValue, Static: eval.DefaultStatic(),
		Relatives: map[*xq.XRPCExpr]projection.RelativePaths{}, Metrics: &Metrics{}, Context: ctx}
	eng := eval.NewEngine(nil)
	eng.Remote = cl
	_, err := testkit.Query(eng, `
	declare function f($x as xs:string) as item()* { $x };
	for $p in ("p1", "p2") return execute at {$p} { f($p) }`)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
}
