// Package eval implements the evaluator for the xq dialect over the xdm data
// model. It provides the local XQuery engine that peers run, the document
// resolver abstraction (which is where data-shipping vs. function-shipping
// strategies plug in), and the RemoteCaller hook through which XRPCExpr
// nodes perform remote procedure calls.
//
// Two executors share one semantics. The eager tree-walker (eval.go,
// axes.go) runs queries nobody has compiled and is the differential oracle.
// A Program (compile.go, compiled.go) lowers a query to closures in an eager
// and a push form; the push form is the only lazy executor, so the lazy
// entry points lower on demand. Both executors hand remote calls to the
// same Engine routines once they have evaluated target and parameters.
//
// The layer's contract: Engine evaluates a normalized query exactly per the
// xq semantics, resolving fn:doc through its Resolver (with single-flighted
// caching, so equal URIs observe equal node identities) and delegating
// every execute-at to its RemoteCaller. A loop over a remote call ships as
// one Bulk RPC, or, when its target varies, as one concurrent wave of
// per-peer Bulk RPCs (with Engine.Replicas naming failover copies per
// target); a StreamCaller additionally yields per-lane results
// incrementally. Either way gathered results are identical and arrive in
// loop order. Evaluation is deterministic — the property the
// fault-tolerance layer relies on when it gathers a replica's answer in
// place of a dead primary's.
package eval

import (
	"errors"
	"fmt"
	"strings"
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
	// peer of a variable-target loop — concurrently (scatter-gather).
	// Results and errors are positional per batch; a batch's result holds
	// one sequence per iteration. It must not fail the whole wave because
	// one peer failed: per-peer errors travel in the error slice.
	CallRemoteScatter(x *xq.XRPCExpr, batches []ScatterBatch) ([][]xdm.Sequence, []error)
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

// StreamChunk is one increment of a streamed scatter lane: a run of
// consecutive result items belonging to one iteration of the lane's batch.
// A lane yields chunks with nondecreasing Iteration (all chunks of an
// iteration precede the first chunk of the next), every iteration of the
// batch appears in at least one chunk (possibly with an empty Items run),
// and the lane's channel is closed after the final chunk. A chunk with Err
// set is terminal for the lane: the batch failed and no further chunks
// follow.
type StreamChunk struct {
	// Iteration indexes into the batch's Iterations.
	Iteration int
	// Items is the next run of result items of that iteration.
	Items xdm.Sequence
	// Err, when non-nil, reports the lane's failure (terminal).
	Err error
}

// StreamCaller is an optional RemoteCaller extension: dispatch like
// CallRemoteScatter, but yield each batch's results incrementally over a
// bounded channel per batch, so the evaluator can process finished lanes
// while slower peers are still computing and transferring. The returned
// cancel function must release every in-flight lane (producers blocked on a
// full channel included); the consumer calls it once it stops reading —
// whether it drained every lane or aborted early on an error.
type StreamCaller interface {
	CallRemoteScatterStream(x *xq.XRPCExpr, batches []ScatterBatch) (lanes []<-chan StreamChunk, cancel func())
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
	// Options selects evaluation-strategy knobs; under the zero value an
	// eager call runs compiled exactly when its query carries a Program.
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
	// engine: both executors check it periodically and abort with
	// ErrDeadlineExceeded once it passes. Sessions set it on their
	// query-local engine from the query budget; peers serving many requests
	// use the per-call EvalFunctionDeadline instead.
	Deadline time.Time
	// TraceSpan, when active, is the span this engine's evaluation records
	// under — sessions set it on their query-local engine so compile work
	// shows up in the query's trace. The zero value disables recording.
	TraceSpan trace.SpanRef

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
	// StreamedWaves counts the scatter waves consumed incrementally through
	// a StreamCaller (a subset of ScatterWaves).
	StreamedWaves int
	// DeadlineAborts counts evaluations this engine cut short because their
	// deadline passed — on a peer, server-side work abandoned because the
	// originator's budget expired (the observable half of deadline
	// propagation).
	DeadlineAborts int
	// Compilations counts queries lowered to closure chains on this engine's
	// account (running a Program someone else attached does not count).
	Compilations int
}

// Add accumulates another counter snapshot, fieldwise.
func (s *Stats) Add(o Stats) {
	s.DocsResolved += o.DocsResolved
	s.RemoteCalls += o.RemoteCalls
	s.BulkCalls += o.BulkCalls
	s.ScatterWaves += o.ScatterWaves
	s.StreamedWaves += o.StreamedWaves
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
		ent.err = fmt.Errorf("eval: doc(%q): resolution did not complete", uri)
		resolve := func(uri string) (*xdm.Document, error) {
			if build != nil {
				return build()
			}
			if e.Resolver == nil {
				return nil, fmt.Errorf("no resolver configured")
			}
			return e.Resolver.ResolveDoc(uri)
		}
		d, err := resolve(uri)
		if err != nil {
			ent.err = fmt.Errorf("eval: doc(%q): %w", uri, err)
			return
		}
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
	}
	return ent.doc, ent.err
}

// StatsSnapshot returns a consistent copy of the evaluation counters; use it
// instead of reading Stats directly while queries may be in flight.
func (e *Engine) StatsSnapshot() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.Stats
}

// Query normalizes and evaluates a parsed query eagerly: through its
// Program's eager form when program selects one, else by tree-walking.
func (e *Engine) Query(q *xq.Query) (xdm.Sequence, error) {
	if err := xq.Normalize(q); err != nil {
		return nil, err
	}
	ctx := e.newContext(q.Funcs)
	if p := e.program(q, false); p != nil {
		return p.run(ctx)
	}
	return ctx.eval(q.Body)
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
// computing a result nobody will gather.
func (e *Engine) EvalFunctionDeadline(q *xq.Query, name string, args []xdm.Sequence, static *StaticContext, deadline time.Time) (xdm.Sequence, error) {
	ctx, err := e.callContext(q, static, deadline)
	if err != nil {
		return nil, err
	}
	if p := e.program(q, false); p != nil {
		return p.callFunction(ctx, name, args)
	}
	for _, f := range q.Funcs {
		if f.Name == name && len(f.Params) == len(args) {
			return ctx.callDeclared(f, args)
		}
	}
	return nil, fmt.Errorf("eval: function %s#%d not declared", name, len(args))
}

// EvalFunctionSeqDeadline is the lazy twin of EvalFunctionDeadline: it
// returns the declared function's result as a pull-based sequence without
// evaluating the body first, so the streaming server can emit chunk frames
// while the call is still computing. Argument types are checked eagerly
// (faults beat frames); the result type streams per item when the declared
// occurrence is `*` and falls back to materialize-then-check otherwise,
// since occurrence constraints need the whole result. The compiled push
// form is the only lazy executor, so a query that carries no Program is
// lowered now.
func (e *Engine) EvalFunctionSeqDeadline(q *xq.Query, name string, args []xdm.Sequence, static *StaticContext, deadline time.Time) (xdm.Seq, error) {
	ctx, err := e.callContext(q, static, deadline)
	if err != nil {
		return nil, err
	}
	return e.program(q, true).callFunctionSeq(ctx, name, args)
}

// callContext normalizes q and builds the context a function call of the
// two EvalFunction entry points runs in: static, when non-nil, replaces the
// engine's static context, and a non-zero deadline installs a stop check.
func (e *Engine) callContext(q *xq.Query, static *StaticContext, deadline time.Time) (*context, error) {
	if err := xq.Normalize(q); err != nil {
		return nil, err
	}
	ctx := e.newContext(q.Funcs)
	if static != nil {
		ctx.static = *static
	}
	if !deadline.IsZero() {
		ctx.stop = &stopCheck{eng: e, deadline: deadline}
	}
	return ctx, nil
}

// program selects q's executor: the Program q carries — attached by a cache
// that saw q reused, or by an earlier call — else a fresh lowering when the
// caller is the lazy entry point EvalFunctionSeqDeadline (lazy) or the
// engine's Compile option is set. Nil means q tree-walks, which only an
// eager entry point can ask for.
func (e *Engine) program(q *xq.Query, lazy bool) *Program {
	p, ok := q.CompiledArtifact().(*Program)
	if !ok && (lazy || e.Options.Compile) {
		// Every caller has normalized q, and CompileQuery fails only where
		// Normalize does, so the lowering cannot fail.
		p, _ = e.Compile(q)
	}
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

func (e *Engine) newContext(funcs []*xq.FuncDecl) *context {
	fm := map[string]*xq.FuncDecl{}
	for _, f := range funcs {
		fm[fmt.Sprintf("%s/%d", f.Name, len(f.Params))] = f
	}
	c := &context{eng: e, funcs: fm, static: e.Static}
	if !e.Deadline.IsZero() {
		c.stop = &stopCheck{eng: e, deadline: e.Deadline}
	}
	return c
}

// stopCheck interrupts a tree-walk at its deadline. Checking the clock at
// every node would dominate cheap expressions, so the walk only consults
// time.Now every stopCheckEvery nodes — a bounded-staleness compromise that
// keeps overhead invisible while still cutting runaway evaluations within
// microseconds of the deadline. One stopCheck is shared (by pointer) across
// every derived context of an evaluation, so the node count is global to the
// query, not per subtree.
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

// frame is one variable binding in a linked environment.
type frame struct {
	name string
	val  xdm.Sequence
	next *frame
	// atoms is set on the frame of a hoisted loop-invariant comparison
	// operand (bindHoisted) and memoizes val.Atomize() and its `=` index:
	// the operand is evaluated once per loop, and without the memo its
	// hundreds of nodes would still be atomized and scanned by every
	// iteration's comparison. A binding never changes and an evaluation
	// runs on one goroutine, so the memo needs no lock.
	atoms *atomMemo
}

// context is the dynamic evaluation context.
type context struct {
	eng    *Engine
	funcs  map[string]*xq.FuncDecl
	vars   *frame
	item   xdm.Item // context item; nil when absent
	pos    int      // 1-based context position within the step's input
	size   int      // context size
	static StaticContext
	// stop, when non-nil, is the shared deadline check of this evaluation;
	// every derived context carries the same pointer.
	stop *stopCheck
}

func (c *context) bind(name string, val xdm.Sequence) *context {
	nc := *c
	nc.vars = &frame{name: name, val: val, next: c.vars}
	return &nc
}

// bindHoisted binds a hoisted comparison operand; see frame.atoms.
func (c *context) bindHoisted(name string, val xdm.Sequence) *context {
	nc := c.bind(name, val)
	nc.vars.atoms = new(atomMemo)
	return nc
}

// atomized returns s.Atomize() for s the value of comparison operand e,
// through the binding's memo, also returned, when e refers to a hoisted
// operand. (A frame chain rebuilt for a compiled fallback carries no memo;
// it atomizes.)
func (c *context) atomized(e xq.Expr, s xdm.Sequence) ([]xdm.Atomic, *atomMemo) {
	if ref, ok := e.(*xq.VarRef); ok && strings.HasPrefix(ref.Name, hoistPrefix) {
		if f := c.binding(ref.Name); f != nil && f.atoms != nil {
			if f.atoms.atoms == nil {
				f.atoms.atoms = s.Atomize()
			}
			return f.atoms.atoms, f.atoms
		}
	}
	return s.Atomize(), nil
}

func (c *context) withItem(it xdm.Item, pos, size int) *context {
	nc := *c
	nc.item, nc.pos, nc.size = it, pos, size
	return &nc
}

// binding returns the innermost frame binding name, or nil.
func (c *context) binding(name string) *frame {
	for f := c.vars; f != nil; f = f.next {
		if f.name == name {
			return f
		}
	}
	return nil
}

func (c *context) lookup(name string) (xdm.Sequence, bool) {
	if f := c.binding(name); f != nil {
		return f.val, true
	}
	return nil, false
}

// callDeclared evaluates a declared function body with a fresh environment
// containing only its parameters (XQuery functions do not close over the
// caller's variables).
func (c *context) callDeclared(f *xq.FuncDecl, args []xdm.Sequence) (xdm.Sequence, error) {
	nc := &context{eng: c.eng, funcs: c.funcs, static: c.static, stop: c.stop}
	for i, p := range f.Params {
		if err := checkSeqType(args[i], p.Type); err != nil {
			return nil, fmt.Errorf("eval: %s($%s): %w", f.Name, p.Name, err)
		}
		nc = nc.bind(p.Name, args[i])
	}
	res, err := nc.eval(f.Body)
	if err != nil {
		return nil, err
	}
	if err := checkSeqType(res, f.Return); err != nil {
		return nil, fmt.Errorf("eval: %s result: %w", f.Name, err)
	}
	return res, nil
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
