package xrpc

import (
	"fmt"
	"hash/maphash"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"distxq/internal/eval"
	"distxq/internal/projection"
	"distxq/internal/trace"
	"distxq/internal/xdm"
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

// moduleCacheSize bounds the shipped module shapes a server keeps parsed
// and compiled. An originator ships one module per execute-at site of the
// query templates it runs, so a peer serving a handful of them hits every
// time, whatever constants their texts carry.
const moduleCacheSize = 32

// moduleCache memoizes shipped modules, parsed as templates
// (xq.ParseTemplate), normalized and compiled, by shape key
// (xq.AppendShapeKey), evicting oldest-first: two modules that differ only
// in the values of their holed literals share one entry, and each request
// binds its own values. Only normalized queries
// are published: xq.Normalize rewrites the AST in place until it has
// succeeded once, so a raw parse shared between concurrent requests would
// race. A shape is admitted on its second sighting — a cached module keeps
// its tree and its compiled program alive, and a peer answering ad-hoc
// queries that never repeat should retain none of them. That second
// sighting is also the proof of reuse that pays for lowering: a module
// compiles once, at admission, so every cache hit runs the retained
// Program, and a module seen once leaves nothing behind — Handle and
// HandleStream lower it for that one request.
type moduleCache struct {
	mu sync.Mutex
	// entries maps a shape key to its published module; a nil value is the
	// claim of an admission still compiling (a miss to everyone else).
	entries map[string]*xq.Query
	ring    []string // insertion order; ring[next] is the oldest once full
	next    int
	// seen holds the hashes of the keys most recently refused admission.
	seen     [moduleCacheSize]uint64
	seenNext int

	hits, misses, admissions, evictions atomic.Int64
}

// ModuleCacheStats counts a server's module-cache lookups: hits ran a
// retained module, misses parsed the shipped text; admissions published a
// shape on its second sighting and evictions dropped the oldest.
type ModuleCacheStats struct {
	Hits, Misses, Admissions, Evictions int64
}

// ModuleCacheStats returns the server's module-cache counters.
func (s *Server) ModuleCacheStats() ModuleCacheStats {
	c := &s.modules
	return ModuleCacheStats{c.hits.Load(), c.misses.Load(), c.admissions.Load(), c.evictions.Load()}
}

var moduleHashSeed = maphash.MakeSeed()

func (c *moduleCache) get(key []byte) *xq.Query {
	c.mu.Lock()
	q := c.entries[string(key)]
	c.mu.Unlock()
	if q != nil {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return q
}

// admit publishes q, compiled on eng's account, as the template of shape
// key if the key was seen before, and remembers the sighting otherwise. The
// lowering runs outside the lock, behind a claim on the entry, so concurrent
// misses of one shape compile it once.
func (c *moduleCache) admit(key string, q *xq.Query, eng *eval.Engine) {
	h := maphash.String(moduleHashSeed, key)
	c.mu.Lock()
	if _, ok := c.entries[key]; ok {
		c.mu.Unlock()
		return // a concurrent miss published (or is compiling) it
	}
	if !slices.Contains(c.seen[:], h) {
		c.seen[c.seenNext] = h
		c.seenNext = (c.seenNext + 1) % moduleCacheSize
		c.mu.Unlock()
		return
	}
	if c.entries == nil {
		c.entries = make(map[string]*xq.Query)
		c.ring = make([]string, moduleCacheSize)
	}
	if len(c.entries) == moduleCacheSize {
		delete(c.entries, c.ring[c.next])
		c.evictions.Add(1)
	}
	c.ring[c.next] = key
	c.next = (c.next + 1) % moduleCacheSize
	c.entries[key] = nil
	c.admissions.Add(1)
	c.mu.Unlock()
	// q is normalized, so lowering cannot fail; if it did, q would be
	// published without a Program and be lowered per request.
	_, _ = eng.Compile(q)
	c.mu.Lock()
	if _, ok := c.entries[key]; ok { // unless evicted while compiling
		c.entries[key] = q
	}
	c.mu.Unlock()
}

// module returns the parsed, normalized form of a shipped module and the
// argument vector its holes read — from the cache, carrying its Program,
// once a module of the same shape has been shipped twice.
func (s *Server) module(src string) (*xq.Query, []xdm.Atomic, error) {
	var buf [256]byte
	key, args := xq.AppendShapeKey(buf[:0], src)
	if q := s.modules.get(key); q != nil {
		return q, args, nil
	}
	q, exact, err := xq.ParseTemplate(src, "\n0")
	if err != nil {
		return nil, nil, fmt.Errorf("xrpc: shipped module does not parse: %w", err)
	}
	if xq.Normalize(q) != nil {
		// Not cacheable. Evaluation normalizes again and reports the failure
		// as it always has — from an untouched parse, since a failed
		// Normalize leaves the tree half rewritten.
		q, err = xq.ParseQuery(src + "\n0")
		return q, nil, err
	}
	if exact {
		s.modules.admit(string(key), q, s.Engine)
	}
	return q, args, nil
}

var _ Handler = (*Server)(nil)
var _ StreamHandler = (*Server)(nil)

// prepare shreds the request message and compiles the shipped module — the
// common front half of Handle and HandleStream.
func (s *Server) prepare(request []byte) (req *Request, q *xq.Query, holes []xdm.Atomic, static *eval.StaticContext, shredNS int64, err error) {
	if s.Engine == nil {
		return nil, nil, nil, nil, 0, fmt.Errorf("xrpc: server has no engine")
	}
	t0 := time.Now()
	req, err = ParseRequest(request)
	if err != nil {
		return nil, nil, nil, nil, 0, err
	}
	shredNS = time.Since(t0).Nanoseconds()
	q, holes, err = s.module(req.Module)
	if err != nil {
		return nil, nil, nil, nil, 0, err
	}
	// Propagate the caller's static context (Problem 5 class 1): the remote
	// side declares identical values for these context attributes.
	if req.Static != (eval.StaticContext{}) {
		static = &req.Static
	}
	return req, q, holes, static, shredNS, nil
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
	req, q, holes, static, shredNS, err := s.prepare(request)
	if err != nil {
		return nil, err
	}
	root := s.serveSpan(req, arrival, "serve", shredNS)
	deadline := requestDeadline(req, arrival)

	t1 := time.Now()
	resp := &Response{Semantics: req.Semantics}
	for _, params := range req.Calls {
		csp := root.Child("call")
		res, err := s.Engine.EvalFunctionDeadline(q, req.Method, params, static, deadline, holes...)
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
