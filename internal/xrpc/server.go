package xrpc

import (
	"fmt"
	"hash/maphash"
	"slices"
	"strings"
	"sync"
	"time"

	"distxq/internal/eval"
	"distxq/internal/projection"
	"distxq/internal/trace"
	"distxq/internal/xq"
)

// Server executes shipped XQuery functions against a peer-local engine and
// serializes responses under the request's passing semantics. It implements
// Handler (gather-whole responses) and StreamHandler (chunked streams).
type Server struct {
	// Engine evaluates shipped functions; its Resolver serves the peer's
	// local documents. Required.
	Engine *eval.Engine
	// Name identifies this peer in the server-side spans it piggybacks on
	// traced responses; empty renders as "remote" in assembled trees.
	Name string
	// ProjOpts tunes response projection.
	ProjOpts projection.Options
	// Metrics, when non-nil, accumulates server-side measurements.
	Metrics *Metrics
	// ChunkItems bounds the result items per frame of streamed responses;
	// zero means DefaultChunkItems.
	ChunkItems int

	modules moduleCache
}

// moduleCacheSize bounds the shipped modules a server keeps parsed and
// compiled. An originator ships one module per execute-at site of the
// queries it runs, so a peer serving a handful of query shapes hits every
// time.
const moduleCacheSize = 32

// moduleCache memoizes shipped modules, parsed, normalized and compiled, by
// source text, evicting oldest-first. Only normalized queries are published:
// xq.Normalize rewrites the AST in place until it has succeeded once, so a
// raw parse shared between concurrent requests would race. A text is
// admitted on its second sighting — a cached module keeps its tree and its
// compiled program alive, and a peer answering ad-hoc queries that never
// repeat should retain none of them. That second sighting is also the proof
// of reuse that pays for lowering: a module compiles once, at admission, so
// every cache hit runs the retained Program, and a module seen once leaves
// nothing behind — Handle and HandleStream lower it for that one request.
type moduleCache struct {
	mu sync.Mutex
	// entries maps a text to its published module; a nil value is the claim
	// of an admission still compiling (a miss to everyone else).
	entries map[string]*xq.Query
	ring    []string // insertion order; ring[next] is the oldest once full
	next    int
	// seen holds the hashes of the texts most recently refused admission.
	seen     [moduleCacheSize]uint64
	seenNext int
}

var moduleHashSeed = maphash.MakeSeed()

func (c *moduleCache) get(src string) *xq.Query {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries[src]
}

// admit publishes q, compiled on eng's account, as the parsed form of src if
// src was seen before, and remembers the sighting otherwise. The lowering
// runs outside the lock, behind a claim on the entry, so concurrent misses
// of one text compile it once.
func (c *moduleCache) admit(src string, q *xq.Query, eng *eval.Engine) {
	h := maphash.String(moduleHashSeed, src)
	c.mu.Lock()
	if _, ok := c.entries[src]; ok {
		c.mu.Unlock()
		return // a concurrent miss published (or is compiling) it
	}
	if !slices.Contains(c.seen[:], h) {
		c.seen[c.seenNext] = h
		c.seenNext = (c.seenNext + 1) % moduleCacheSize
		c.mu.Unlock()
		return
	}
	// The text aliases the one string copy of its request, which a cached
	// key would pin: the cache keeps a copy of its own.
	src = strings.Clone(src)
	if c.entries == nil {
		c.entries = make(map[string]*xq.Query)
		c.ring = make([]string, moduleCacheSize)
	}
	if len(c.entries) == moduleCacheSize {
		delete(c.entries, c.ring[c.next])
	}
	c.ring[c.next] = src
	c.next = (c.next + 1) % moduleCacheSize
	c.entries[src] = nil
	c.mu.Unlock()
	// q is normalized, so lowering cannot fail; if it did, q would be
	// published without a Program and be lowered per request.
	_, _ = eng.Compile(q)
	c.mu.Lock()
	if _, ok := c.entries[src]; ok { // unless evicted while compiling
		c.entries[src] = q
	}
	c.mu.Unlock()
}

// module returns the parsed, normalized form of a shipped module — from the
// cache, carrying its Program, once the same text has been shipped twice.
func (s *Server) module(src string) (*xq.Query, error) {
	if q := s.modules.get(src); q != nil {
		return q, nil
	}
	q, err := xq.ParseQuery(src + "\n0")
	if err != nil {
		return nil, fmt.Errorf("xrpc: shipped module does not parse: %w", err)
	}
	if xq.Normalize(q) != nil {
		// Not cacheable. Evaluation normalizes again and reports the failure
		// as it always has — from an untouched parse, since a failed
		// Normalize leaves the tree half rewritten.
		return xq.ParseQuery(src + "\n0")
	}
	s.modules.admit(src, q, s.Engine)
	return q, nil
}

var _ Handler = (*Server)(nil)
var _ StreamHandler = (*Server)(nil)

// prepare shreds the request message and compiles the shipped module — the
// common front half of Handle and HandleStream.
func (s *Server) prepare(request []byte) (req *Request, q *xq.Query, static *eval.StaticContext, shredNS int64, err error) {
	if s.Engine == nil {
		return nil, nil, nil, 0, fmt.Errorf("xrpc: server has no engine")
	}
	t0 := time.Now()
	req, err = ParseRequest(request)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	shredNS = time.Since(t0).Nanoseconds()
	q, err = s.module(req.Module)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	// Propagate the caller's static context (Problem 5 class 1): the remote
	// side declares identical values for these context attributes.
	if req.Static != (eval.StaticContext{}) {
		static = &req.Static
	}
	return req, q, static, shredNS, nil
}

// responsePaths returns the projection paths the response serialization
// must apply for this request's semantics.
func responsePaths(req *Request) (used, returned projection.PathSet) {
	if req.Semantics != ByProjection {
		return nil, nil
	}
	used, returned = req.ResultUsed, req.ResultReturned
	if len(returned) == 0 && len(used) == 0 {
		// No projection paths at all: conservatively return the result
		// values whole.
		returned = projection.PathSet{}.Add(projection.Path{})
	}
	return used, returned
}

// serveSpan opens the server-side root span for a traced request, inert for
// untraced ones. The trace anchors at arrival, so server spans sit on the
// peer's own timeline starting near zero and the originator shifts them into
// place at ingest. Shred time — measured before the request's trace identity
// was known — is backfilled as a pre-closed child.
func (s *Server) serveSpan(req *Request, arrival time.Time, name string, shredNS int64) trace.SpanRef {
	if req.TraceID == 0 {
		return trace.SpanRef{}
	}
	peer := s.Name
	if peer == "" {
		peer = "remote"
	}
	tr := trace.NewAt(trace.TraceID(req.TraceID), peer, arrival)
	root := tr.Start(trace.SpanID(req.TraceSpan), name,
		trace.Str("method", req.Method), trace.Int("calls", int64(len(req.Calls))))
	root.Add("shred", 0, shredNS)
	return root
}

// requestDeadline re-clocks the request's relative budget from arrival
// time; the zero time means the request carries no budget.
func requestDeadline(req *Request, arrival time.Time) time.Time {
	if req.BudgetNS <= 0 {
		return time.Time{}
	}
	return arrival.Add(time.Duration(req.BudgetNS))
}

// Handle processes one request message: shred, compile the shipped module,
// evaluate every bulk call, and serialize the response. A request carrying
// a budget is evaluated under the re-clocked deadline: evaluation aborts
// once the originator's budget is spent, and the abort travels back as a
// deadline-coded fault instead of a result nobody is waiting for.
func (s *Server) Handle(request []byte) ([]byte, error) {
	arrival := time.Now()
	req, q, static, shredNS, err := s.prepare(request)
	if err != nil {
		return nil, err
	}
	root := s.serveSpan(req, arrival, "serve", shredNS)
	deadline := requestDeadline(req, arrival)

	t1 := time.Now()
	resp := &Response{Semantics: req.Semantics}
	for _, params := range req.Calls {
		csp := root.Child("call")
		res, err := s.Engine.EvalFunctionDeadline(q, req.Method, params, static, deadline)
		csp.EndErr(err)
		if err != nil {
			err = fmt.Errorf("xrpc: evaluating %s: %w", req.Method, err)
			root.EndErr(err)
			return nil, TracedError(err, root.Trace().ExportSpans())
		}
		resp.Results = append(resp.Results, res)
	}
	resp.ExecNanos = time.Since(t1).Nanoseconds()
	buffered := 0
	for _, res := range resp.Results {
		buffered += len(res)
	}
	// The root must close before marshal so its end time lands inside the
	// exported tree; the marshal cost still reaches the client via serde-ns.
	root.End()
	resp.Spans = root.Trace().ExportSpans()

	t2 := time.Now()
	resultU, resultR := responsePaths(req)
	resp.SerializeNanos = shredNS
	data, err := MarshalResponse(resp, resultU, resultR, s.ProjOpts)
	if err != nil {
		return nil, err
	}
	marshalNS := time.Since(t2).Nanoseconds()
	// The serde figure inside the message must include the marshal time just
	// measured. Instead of re-marshalling the whole response, patch the
	// serde-ns attribute in place.
	resp.SerializeNanos = shredNS + marshalNS
	data = patchSerdeNS(data, resp.SerializeNanos)
	if s.Metrics != nil {
		s.Metrics.Add(&Metrics{
			Requests:      1,
			BytesReceived: int64(len(request)),
			BytesSent:     int64(len(data)),
			RemoteExecNS:  resp.ExecNanos,
			ServerSerdeNS: resp.SerializeNanos,
			// Gather-whole holds every call's full result until marshal.
			PeakBufferedItems: int64(buffered),
		})
	}
	return data, nil
}
