// Package eval implements the evaluator for the xq dialect over the xdm data
// model. It provides the local XQuery engine that peers run, the document
// resolver abstraction (which is where data-shipping vs. function-shipping
// strategies plug in), and the RemoteCaller hook through which XRPCExpr
// nodes perform remote procedure calls.
//
// One executor runs every call: a Program (compile.go, compiled.go) lowers a
// query to closures once, and a streamed function call runs the same closures
// and emits at its body's top-level boundaries. Every entry point runs one,
// the Program a cache attached to the query or else a fresh lowering; the
// caches decide what is retained. The tree-walker the compiler is checked
// against lives in the package's tests.
//
// The layer's contract: Engine evaluates a normalized query exactly per the
// xq semantics, resolving fn:doc through its Resolver (with single-flighted
// caching, so equal URIs observe equal node identities) and delegating
// every execute-at to its RemoteCaller. A loop over a remote call ships as
// one Bulk RPC, or, when its target varies, as one concurrent wave of
// per-peer Bulk RPCs (with Engine.Replicas naming failover copies per
// target), whose lanes place their results — whole responses or stream
// frames — straight at their loop positions, so results arrive in loop
// order. Evaluation is deterministic — the property the fault-tolerance
// layer relies on when it gathers a replica's answer in place of a dead
// primary's.
package eval

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"distxq/internal/trace"
	"distxq/internal/xdm"
	"distxq/internal/xq"
)

// ErrDeadlineExceeded is the canonical per-query budget fault: an evaluation
// aborted because the originator's deadline passed. Every layer above —
// xrpc lanes, sessions, the federation service — reports budget expiry as an
// error wrapping this one (errors.Is), never as a bare context.Canceled, so
// callers can tell "out of time" from "torn down because something else
// failed".
var ErrDeadlineExceeded = errors.New("eval: query deadline exceeded")

// Resolver turns a document URI into a document. Implementations decide what
// xrpc:// URIs mean: a data-shipping resolver fetches the whole remote
// document; a peer-local resolver serves its own store.
type Resolver interface {
	ResolveDoc(uri string) (*xdm.Document, error)
}

// ResolverFunc adapts a function to the Resolver interface.
type ResolverFunc func(uri string) (*xdm.Document, error)

// ResolveDoc implements Resolver.
func (f ResolverFunc) ResolveDoc(uri string) (*xdm.Document, error) { return f(uri) }

// RemoteCaller executes a decomposed subquery on a remote peer. The xrpc
// package provides the real implementation; tests may supply fakes.
type RemoteCaller interface {
	// CallRemote ships x.Body to target and returns the result sequence.
	// params holds the evaluated values of x.Params in order.
	CallRemote(target string, x *xq.XRPCExpr, params []xdm.Sequence) (xdm.Sequence, error)
	// CallRemoteBulk performs Bulk RPC: one network interaction carrying
	// the parameter bindings of every loop iteration. It returns one result
	// sequence per iteration.
	CallRemoteBulk(target string, x *xq.XRPCExpr, iterations [][]xdm.Sequence) ([]xdm.Sequence, error)
	// CallRemoteScatter dispatches one Bulk RPC per batch — per distinct
	// peer of a variable-target loop — concurrently (scatter-gather), and
	// returns once every lane has finished placing its batch's results
	// through sink. Errors are positional per batch. It must not fail the
	// whole wave because one peer failed: per-peer errors travel in the
	// error slice.
	CallRemoteScatter(x *xq.XRPCExpr, batches []ScatterBatch, sink ScatterSink) []error
}

// ScatterBatch groups the loop iterations bound for one destination peer of
// a variable-target loop (`for $p in $peers return execute at $p {...}`).
// Iterations appear in original loop order relative to each other.
type ScatterBatch struct {
	Target     string
	Iterations [][]xdm.Sequence
	// Replicas lists, in failover order, peers holding data equivalent to
	// Target's — a fault-tolerant dispatcher may re-issue (or hedge) the
	// batch to them and gather the first response instead of failing the
	// query. The evaluator fills it from Engine.Replicas.
	Replicas []string
}

// ScatterSink is where a scatter dispatch delivers: each lane places its
// batch's results straight at their loop positions, a whole response at
// once or a stream frame by frame, so nothing is buffered between a lane and
// the loop it answers.
type ScatterSink interface {
	// Place appends items to the result of iteration k of batch b. A lane
	// places its iterations in order, every one at least once (an empty
	// result as an empty run), from one goroutine at a time; lanes of
	// different batches place concurrently. An error refuses the increment:
	// the lane stops and reports it.
	Place(b, k int, items xdm.Sequence) error
}

// StaticContext carries the static-context values that XRPC propagates to
// remote peers (Problem 5, class 1).
type StaticContext struct {
	BaseURI          string
	DefaultCollation string
	CurrentDateTime  string
}

// DefaultStatic returns the static context used when none is configured.
func DefaultStatic() StaticContext {
	return StaticContext{
		BaseURI:          "local:///",
		DefaultCollation: "http://www.w3.org/2005/xpath-functions/collation/codepoint",
		CurrentDateTime:  "2009-01-01T00:00:00Z",
	}
}

// Engine evaluates queries. An Engine is safe for concurrent use when its
// Resolver and Remote are.
type Engine struct {
	Resolver Resolver
	Remote   RemoteCaller
	Static   StaticContext
	// Options selects optional engine behaviours; under the zero value a
	// call lowers a query that carries no Program without attaching one.
	Options Options
	// Replicas maps a scatter target peer to its ordered failover replicas:
	// peers holding an equivalent copy of the target's data (same documents
	// under the same paths), so a fault-tolerant RemoteCaller can re-route a
	// failed or slow scatter lane without changing the query result.
	// Sessions derive it from replica-aware shard maps; set it before
	// queries dispatch.
	Replicas map[string][]string
	// ReplicaRoutes maps a synthesized scatter call to its own target →
	// replicas routing, overriding Replicas for that call's lanes. Two shard
	// maps may assign the same primary peer different failover orders — one
	// per logical document — and per-expression routes keep each scattered
	// loop failing over within its own document's copies (per-(target,
	// logical-document) replica routing). Sessions fill it from the plan's
	// shard decisions.
	ReplicaRoutes map[*xq.XRPCExpr]map[string][]string
	// Deadline, when non-zero, bounds every evaluation started through this
	// engine: compiled code checks it periodically and abort with
	// ErrDeadlineExceeded once it passes. Sessions set it on their
	// query-local engine from the query budget; peers serving many requests
	// use the per-call EvalFunctionDeadline instead.
	Deadline time.Time
	// TraceSpan, when active, is the span this engine's evaluation records
	// under — sessions set it on their query-local engine so compile work
	// shows up in the query's trace. The zero value disables recording.
	TraceSpan trace.SpanRef
	// Holes is the argument vector Query runs a template with (see
	// xq.ParseTemplate): its holed literals read these values. Nil runs every
	// literal with its own value. Sessions set it on their query-local
	// engine; peers pass a request's vector per call instead.
	Holes []xdm.Atomic

	mu       sync.Mutex
	docCache map[string]*docEntry
	logical  map[string]func() (*xdm.Document, error)

	// Stats counts work done, for the benchmark harness. Guarded by mu
	// while queries are in flight; read it via StatsSnapshot.
	Stats Stats
}

// Stats accumulates evaluation counters.
type Stats struct {
	DocsResolved int
	RemoteCalls  int
	BulkCalls    int
	// ScatterWaves counts variable-target loops dispatched as one
	// concurrent wave of per-peer Bulk RPCs.
	ScatterWaves int
	// DeadlineAborts counts evaluations this engine cut short because their
	// deadline passed — on a peer, server-side work abandoned because the
	// originator's budget expired (the observable half of deadline
	// propagation).
	DeadlineAborts int
	// Compilations counts the lowerings this engine attached to their
	// queries (Compile, or a call under Options.Compile). A lowering that
	// serves one call and is dropped does not count, and neither does
	// running a Program someone else attached.
	Compilations int
}

// Add accumulates another counter snapshot, fieldwise.
func (s *Stats) Add(o Stats) {
	s.DocsResolved += o.DocsResolved
	s.RemoteCalls += o.RemoteCalls
	s.BulkCalls += o.BulkCalls
	s.ScatterWaves += o.ScatterWaves
	s.DeadlineAborts += o.DeadlineAborts
	s.Compilations += o.Compilations
}

// StatsSink aggregates evaluation counters across query-local engines: a
// daemon creates one engine per query (trace threading stays race-free that
// way), so a process-wide /metrics surface needs somewhere durable for the
// counters to land once each engine retires. Nil-safe, like Metrics.
type StatsSink struct {
	mu sync.Mutex
	s  Stats
}

// Add folds one engine's final counters into the sink.
func (k *StatsSink) Add(o Stats) {
	if k == nil {
		return
	}
	k.mu.Lock()
	k.s.Add(o)
	k.mu.Unlock()
}

// Snapshot returns the accumulated counters.
func (k *StatsSink) Snapshot() Stats {
	if k == nil {
		return Stats{}
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.s
}

// docEntry is one single-flight slot of the document cache: concurrent
// doc() calls for the same URI must observe the same node identities, so
// the first caller resolves and every other caller waits on the same entry.
type docEntry struct {
	once sync.Once
	doc  *xdm.Document
	err  error
}

// NewEngine returns an engine with the given resolver and no remote caller.
func NewEngine(r Resolver) *Engine {
	return &Engine{Resolver: r, Static: DefaultStatic()}
}

// RegisterLogical installs a builder for a logical document URI: fn:doc(uri)
// resolves by invoking the builder instead of the Resolver, cached and
// single-flighted like any other document. Sessions over sharded federations
// use it so a logical document that could not be rewritten into the scatter
// form still evaluates — the builder materializes the union of shards.
// Registration must happen before queries resolve the URI.
func (e *Engine) RegisterLogical(uri string, build func() (*xdm.Document, error)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.logical == nil {
		e.logical = map[string]func() (*xdm.Document, error){}
	}
	e.logical[uri] = build
}

// replicasFor resolves the failover replicas of one scatter lane: the
// call's own route table when the session installed one (its absence of a
// target means that shard is unreplicated — falling through to another
// document's merged entry would fail over to copies of the wrong data),
// otherwise the target-keyed Replicas map.
func (e *Engine) replicasFor(x *xq.XRPCExpr, target string) []string {
	if m, ok := e.ReplicaRoutes[x]; ok {
		return m[target]
	}
	return e.Replicas[target]
}

// Doc resolves and caches a document by URI. Two fn:doc calls for the same
// URI observe the same node identities, as XQuery requires — including two
// concurrent calls, which single-flight through one cache entry instead of
// racing to resolve twice. Failed resolutions are not cached.
func (e *Engine) Doc(uri string) (*xdm.Document, error) {
	e.mu.Lock()
	if e.docCache == nil {
		e.docCache = map[string]*docEntry{}
	}
	ent, ok := e.docCache[uri]
	if !ok {
		ent = &docEntry{}
		e.docCache[uri] = ent
	}
	build := e.logical[uri]
	e.mu.Unlock()
	ent.once.Do(func() {
		// Pre-set the error so a panicking resolver (recovered further up,
		// e.g. by net/http) cannot leave a done entry with doc=nil, err=nil.
		ent.err = errDocIncomplete
		var d *xdm.Document
		var err error
		switch {
		case build != nil:
			d, err = build()
		case e.Resolver == nil:
			err = errors.New("no resolver configured")
		default:
			d, err = e.Resolver.ResolveDoc(uri)
		}
		if err != nil {
			ent.err = fmt.Errorf("eval: doc(%q): %w", uri, err)
			return
		}
		d.ServeNames()
		ent.doc, ent.err = d, nil
		e.mu.Lock()
		e.Stats.DocsResolved++
		e.mu.Unlock()
	})
	if ent.err != nil {
		e.mu.Lock()
		if e.docCache[uri] == ent {
			delete(e.docCache, uri)
		}
		e.mu.Unlock()
		if ent.err == errDocIncomplete {
			return nil, fmt.Errorf("eval: doc(%q): %w", uri, errDocIncomplete)
		}
	}
	return ent.doc, ent.err
}

// errDocIncomplete stays in a cache entry whose resolver panicked.
var errDocIncomplete = errors.New("resolution did not complete")

// StatsSnapshot returns a consistent copy of the evaluation counters; use it
// instead of reading Stats directly while queries may be in flight.
func (e *Engine) StatsSnapshot() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.Stats
}

// Query normalizes and evaluates a parsed query eagerly.
func (e *Engine) Query(q *xq.Query) (xdm.Sequence, error) {
	if err := xq.Normalize(q); err != nil {
		return nil, err
	}
	p := e.program(q)
	ctx := e.newContext()
	if err := p.bind(ctx, e.Holes); err != nil {
		return nil, err
	}
	return p.body(newFrame(ctx, p.nslots, p.nitems, nil), nil)
}

// EvalFunctionDeadline evaluates a declared function of q with the given
// arguments; the XRPC server side uses it to run shipped functions. static,
// when non-nil, overrides the engine's static context — how XRPC propagates
// the caller's static-base-uri, default-collation and current-dateTime to
// the remote peer (Problem 5 class 1). A non-zero deadline bounds the call:
// once it passes, evaluation aborts with ErrDeadlineExceeded and the
// engine's DeadlineAborts counter records the abandoned work. This is the
// server-side half of budget propagation — a peer stops evaluating a
// shipped function the moment the originator's budget expires instead of
// computing a result nobody will gather. holes, when given, is the argument
// vector of a template q (xq.ParseTemplate), as Engine.Holes is for Query.
func (e *Engine) EvalFunctionDeadline(q *xq.Query, name string, args []xdm.Sequence, static *StaticContext, deadline time.Time, holes ...xdm.Atomic) (xdm.Sequence, error) {
	return e.evalFunction(q, name, args, static, deadline, holes, nil)
}

// EvalFunctionEmit is EvalFunctionDeadline handing the result to emit while
// the call is still computing, so a streaming server can send frames early:
// at the body's top-level boundaries for a function returning item()*
// (compileTop), else once, whole and type-checked. emit must not keep the
// sequence it is handed; an error it returns stops the evaluation and comes
// back unchanged. What was emitted before a fault is a valid prefix of the
// result.
func (e *Engine) EvalFunctionEmit(q *xq.Query, name string, args []xdm.Sequence, static *StaticContext, deadline time.Time, emit func(xdm.Sequence) error, holes ...xdm.Atomic) error {
	_, err := e.evalFunction(q, name, args, static, deadline, holes, emit)
	return err
}

// evalFunction is both EvalFunction entry points; emit nil returns the result.
func (e *Engine) evalFunction(q *xq.Query, name string, args []xdm.Sequence, static *StaticContext, deadline time.Time, holes []xdm.Atomic, emit func(xdm.Sequence) error) (xdm.Sequence, error) {
	ctx, err := e.callContext(q, static, deadline)
	if err != nil {
		return nil, err
	}
	p := e.program(q)
	if err := p.bind(ctx, holes); err != nil {
		return nil, err
	}
	cf, ok := p.funcs[funcKey{name, len(args)}]
	if !ok {
		return nil, undeclared(name, len(args))
	}
	return cf.call(ctx, nil, args, emit)
}

// callContext normalizes q and builds the context a function call runs in:
// static, when non-nil, replaces the engine's static context, and a non-zero
// deadline installs a stop check.
func (e *Engine) callContext(q *xq.Query, static *StaticContext, deadline time.Time) (*context, error) {
	if err := xq.Normalize(q); err != nil {
		return nil, err
	}
	ctx := e.newContext()
	if static != nil {
		ctx.static = *static
	}
	if !deadline.IsZero() {
		ctx.stop = &stopCheck{eng: e, deadline: deadline}
	}
	return ctx, nil
}

// program returns the Program a call of normalized q runs: the one q
// carries, attached by a cache that saw q reused; else, under
// Options.Compile, a lowering attached now; else a lowering for this call
// alone, which nothing retains and which records its "compile" span under
// TraceSpan like any other.
func (e *Engine) program(q *xq.Query) *Program {
	if p, ok := q.CompiledArtifact().(*Program); ok {
		return p
	}
	// Every caller has normalized q, and lowering fails only where
	// Normalize does, so neither branch can fail.
	if e.Options.Compile {
		p, _ := e.Compile(q)
		return p
	}
	sp := e.TraceSpan.Child("compile")
	p := lower(q)
	sp.End()
	return p
}

// Compile lowers q now, attaches the Program to it and counts the lowering
// in this engine's Stats (and as a "compile" span under TraceSpan). The
// Program is engine-independent — all engine state flows in through the
// execution context — so every engine that later executes the same query
// object runs it.
func (e *Engine) Compile(q *xq.Query) (*Program, error) {
	p, err := CompileTraced(q, e.TraceSpan)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.Stats.Compilations++
	e.mu.Unlock()
	return p, nil
}

func (e *Engine) newContext() *context {
	c := &context{eng: e, static: e.Static}
	if !e.Deadline.IsZero() {
		c.stop = &stopCheck{eng: e, deadline: e.Deadline}
	}
	return c
}

// stopCheck interrupts an evaluation at its deadline. Checking the clock at
// every node would dominate cheap expressions, so evaluation only consults
// time.Now every stopCheckEvery nodes — a bounded-staleness compromise that
// keeps overhead invisible while still cutting runaway evaluations within
// microseconds of the deadline. One stopCheck is shared (by pointer) across
// every frame and derived context of an evaluation, so the node count is
// global to the query, not per subtree.
type stopCheck struct {
	eng      *Engine
	deadline time.Time
	n        uint
	aborted  bool
}

// stopCheckEvery is the node-count stride between clock reads.
const stopCheckEvery = 64

func (s *stopCheck) check() error {
	if s == nil {
		return nil
	}
	if s.aborted {
		return fmt.Errorf("eval: %w", ErrDeadlineExceeded)
	}
	s.n++
	if s.n%stopCheckEvery != 0 {
		return nil
	}
	if time.Now().Before(s.deadline) {
		return nil
	}
	s.aborted = true
	if s.eng != nil {
		s.eng.mu.Lock()
		s.eng.Stats.DeadlineAborts++
		s.eng.mu.Unlock()
	}
	return fmt.Errorf("eval: %w", ErrDeadlineExceeded)
}

// context is the dynamic evaluation context compiled code and the builtins
// read: the engine, the focus, the static context and the deadline check.
// Variables live in the frames of compiled code.
type context struct {
	eng    *Engine
	item   xdm.Item // context item; nil when absent
	pos    int      // 1-based context position within the step's input
	size   int      // context size
	static StaticContext
	// stop, when non-nil, is the shared deadline check of this evaluation;
	// every derived context carries the same pointer.
	stop *stopCheck
	// holes is the run's argument vector, nil when holed literals read their
	// own values (Program.bind).
	holes []xdm.Atomic
}

func (c *context) withItem(it xdm.Item, pos, size int) *context {
	nc := *c
	nc.item, nc.pos, nc.size = it, pos, size
	return &nc
}

// checkSeqType enforces occurrence and a light item-type check.
func checkSeqType(s xdm.Sequence, t xq.SeqType) error {
	switch t.Occur {
	case xq.OccurOne:
		if t.Item == "empty-sequence()" {
			if len(s) != 0 {
				return fmt.Errorf("expected empty-sequence(), got %d items", len(s))
			}
			return nil
		}
		if len(s) != 1 {
			return fmt.Errorf("expected exactly one %s, got %d items", t.Item, len(s))
		}
	case xq.OccurOptional:
		if len(s) > 1 {
			return fmt.Errorf("expected at most one %s, got %d items", t.Item, len(s))
		}
	case xq.OccurPlus:
		if len(s) == 0 {
			return fmt.Errorf("expected at least one %s, got empty sequence", t.Item)
		}
	}
	for _, it := range s {
		if !itemMatches(it, t.Item) {
			return fmt.Errorf("item %v does not match type %s", it, t.Item)
		}
	}
	return nil
}

func itemMatches(it xdm.Item, itemType string) bool {
	switch itemType {
	case "item()", "":
		return true
	case "empty-sequence()":
		return false
	}
	n, isNode := it.(*xdm.Node)
	switch itemType {
	case "node()":
		return isNode
	case "element()":
		return isNode && n.Kind == xdm.ElementNode
	case "attribute()":
		return isNode && n.Kind == xdm.AttributeNode
	case "text()":
		return isNode && n.Kind == xdm.TextNode
	case "document-node()", "document()":
		return isNode && n.Kind == xdm.DocumentNode
	case "boolean()", "xs:boolean":
		a, isA := it.(xdm.Atomic)
		return isA && a.T == xdm.TBoolean
	}
	if isNode {
		return false
	}
	a := it.(xdm.Atomic)
	if at, ok := xdm.ParseAtomType(itemType); ok {
		if at == xdm.TDouble && a.T == xdm.TInteger {
			return true // numeric promotion
		}
		if at == xdm.TString && a.T == xdm.TUntyped {
			return true
		}
		return a.T == at
	}
	return false
}
