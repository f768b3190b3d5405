package xrpc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"distxq/internal/eval"
	"distxq/internal/projection"
	"distxq/internal/trace"
	"distxq/internal/xdm"
	"distxq/internal/xq"
)

// Lane is one peer's request/response exchange within a dispatch wave. The
// network cost model charges overlapped lanes the per-wave maximum instead
// of the serial sum.
type Lane struct {
	Peer          string
	BytesSent     int64
	BytesReceived int64
	RemoteExecNS  int64
	// DeserNS is the client-side time spent shredding this lane's response
	// (the per-lane share of Metrics.DeserializeNS).
	DeserNS int64
	// Chunks, when non-empty, records the streamed arrival of the response
	// frame by frame; gather-whole exchanges leave it empty.
	Chunks []ChunkStat
	// Fault-tolerance provenance, filled by replica-aware dispatch under a
	// RetryPolicy; zero values mean the first attempt on the primary target
	// answered. Peer above is always the peer that produced the winning
	// response; Target is the lane's original scatter target when the two
	// can differ (replica dispatch).
	Target string
	// Replica is the index of the winning peer in the lane's target
	// rotation (0 = the primary).
	Replica int
	// Retries counts fault-triggered re-issues of the exchange.
	Retries int
	// Hedges counts hedge-timer-triggered speculative attempts.
	Hedges int
	// WastedNS is the wall time burned in attempts that did not win.
	WastedNS int64
}

// Metrics accumulates per-exchange measurements used by the benchmark
// harness to reproduce the paper's bandwidth and time-breakdown figures.
type Metrics struct {
	mu            sync.Mutex
	Requests      int64
	BytesSent     int64
	BytesReceived int64
	SerializeNS   int64 // client-side marshal time
	DeserializeNS int64 // client-side shred time
	RemoteExecNS  int64 // as reported by the server
	ServerSerdeNS int64 // server-side (de)serialization, as reported
	RoundTripWall int64 // wall time of Transport.RoundTrip
	// PeakBufferedItems is the high-water mark of result items buffered at
	// once on a server while producing responses — one frame's worth under
	// incremental streaming, the whole result under gather. Unlike the
	// counters it combines by maximum, being a peak.
	PeakBufferedItems int64
	// Waves records the dispatch structure for overlap-aware network
	// accounting: each entry is one wave of exchanges that were in flight
	// together. A sequential call appends a single-lane wave; a scatter
	// dispatch appends one wave with a lane per destination peer.
	Waves [][]Lane
	// WaveCount counts the dispatch waves accounted into these metrics. It
	// equals len(Waves) except in an aggregate sink (AddCounters), which
	// counts waves without retaining their lane records.
	WaveCount int64
	// Raw counts the decoding of results that are returned and never used.
	Raw RawCounts
}

// RawCounts counts result items kept as bytes (xdm.Raw) and full re-decodes by cause.
type RawCounts struct {
	Items     int64
	Fallbacks [len(FallbackCauses)]int64
}

// Add accumulates another metrics snapshot, wave records included. The
// source is snapshotted under its own lock first — most callers pass fresh
// locals, but nothing stops a shared accumulator from being added into
// another while it is still being written (the session-aggregate path does
// exactly that), and reading its fields bare would tear under the race
// detector.
func (m *Metrics) Add(o *Metrics) { m.add(o, true) }

// AddCounters accumulates another metrics snapshot's counters only: its waves
// are counted, their per-lane records are not retained. It is how a sink that
// outlives its queries (a daemon's running totals) stays bounded.
func (m *Metrics) AddCounters(o *Metrics) { m.add(o, false) }

func (m *Metrics) add(o *Metrics, waves bool) {
	if m == nil || o == nil || m == o {
		return
	}
	snap := o.snapshot(waves)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.Requests += snap.Requests
	m.BytesSent += snap.BytesSent
	m.BytesReceived += snap.BytesReceived
	m.SerializeNS += snap.SerializeNS
	m.DeserializeNS += snap.DeserializeNS
	m.RemoteExecNS += snap.RemoteExecNS
	m.ServerSerdeNS += snap.ServerSerdeNS
	m.RoundTripWall += snap.RoundTripWall
	if snap.PeakBufferedItems > m.PeakBufferedItems {
		m.PeakBufferedItems = snap.PeakBufferedItems
	}
	// The snapshot already deep-copied the waves (none for AddCounters).
	m.Waves = append(m.Waves, snap.Waves...)
	m.WaveCount += snap.WaveCount
	m.Raw.Items += snap.Raw.Items
	for i, n := range snap.Raw.Fallbacks {
		m.Raw.Fallbacks[i] += n
	}
}

// AddWave records one dispatch wave of overlapped exchanges.
func (m *Metrics) AddWave(lanes []Lane) {
	if m == nil || len(lanes) == 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.Waves = append(m.Waves, append([]Lane(nil), lanes...))
	m.WaveCount++
}

// Reset zeroes the counters. It must not replace the struct wholesale: that
// would clobber the held mutex and panic the deferred unlock.
func (m *Metrics) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.Requests = 0
	m.BytesSent = 0
	m.BytesReceived = 0
	m.SerializeNS = 0
	m.DeserializeNS = 0
	m.RemoteExecNS = 0
	m.ServerSerdeNS = 0
	m.RoundTripWall = 0
	m.PeakBufferedItems = 0
	m.Waves = nil
	m.WaveCount = 0
	m.Raw = RawCounts{}
}

// Snapshot returns a copy for reading.
func (m *Metrics) Snapshot() Metrics { return m.snapshot(true) }

// snapshot copies the counters and, when waves is set, the wave records.
func (m *Metrics) snapshot(waves bool) Metrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	var copied [][]Lane
	if waves {
		copied = make([][]Lane, 0, len(m.Waves))
		for _, w := range m.Waves {
			copied = append(copied, append([]Lane(nil), w...))
		}
	}
	return Metrics{
		Requests: m.Requests, BytesSent: m.BytesSent, BytesReceived: m.BytesReceived,
		SerializeNS: m.SerializeNS, DeserializeNS: m.DeserializeNS,
		RemoteExecNS: m.RemoteExecNS, ServerSerdeNS: m.ServerSerdeNS,
		RoundTripWall: m.RoundTripWall, PeakBufferedItems: m.PeakBufferedItems,
		Waves: copied, WaveCount: m.WaveCount, Raw: m.Raw,
	}
}

var clientFuncSeq atomic.Uint64

// DefaultMaxConcurrent bounds the per-wave worker pool of scatter-gather
// dispatch when Client.MaxConcurrent is zero.
const DefaultMaxConcurrent = 8

// Client executes XRPCExprs remotely over a Transport. It implements
// eval.RemoteCaller, including Bulk RPC and concurrent scatter-gather
// dispatch. A Client is safe for concurrent use when its Transport is.
type Client struct {
	Transport Transport
	Semantics Semantics
	Static    eval.StaticContext
	// Holes is the argument vector of the template query the client's calls
	// come from (eval.Engine.Holes): shipped modules print their holes with
	// these values. Nil prints each literal's own.
	Holes []xdm.Atomic
	// Relatives carries the §VI-B relative projection paths per decomposed
	// XRPCExpr; the planner fills it for pass-by-projection.
	Relatives map[*xq.XRPCExpr]projection.RelativePaths
	// ProjOpts tunes message projection (schema-aware knobs).
	ProjOpts projection.Options
	// Metrics, when non-nil, accumulates exchange measurements.
	Metrics *Metrics
	// MaxConcurrent bounds the number of in-flight per-peer Bulk RPCs of one
	// scatter wave; zero means DefaultMaxConcurrent.
	MaxConcurrent int
	// Context, when non-nil, is the base context of every dispatch:
	// cancelling it aborts in-flight exchanges (through a ContextTransport
	// or StreamTransport) and releases queued pool workers.
	Context context.Context
	// Retry, when non-nil, makes per-lane dispatch fault-tolerant: a failed
	// exchange is re-issued to the lane's next replica (ScatterBatch.Replicas)
	// and a slow one is hedged after Retry.HedgeAfter. A nil policy with
	// replicas present still fails over on faults (see RetryPolicy).
	Retry *RetryPolicy
	// Health, when non-nil, observes every exchange's latency and faults and
	// makes hedging adaptive: once a peer has enough fresh samples, the hedge
	// trigger is its observed P90 instead of the static Retry.HedgeAfter, and
	// replica spreading (Retry.SpreadReplicas) ranks lanes' initial targets
	// by health instead of blind rotation.
	Health *HealthTracker
	// Streamed carries scatter lanes as chunk streams when the Transport is
	// a StreamTransport, each frame placed as it arrives; sequential calls
	// and other Transports exchange whole responses.
	Streamed bool
	// Trace, when active, is the span every dispatch records under: scatter
	// spans, per-lane spans, and per-attempt spans (winner/loser tagged) hang
	// off it, attempt identity travels on the wire, and remote server-side
	// spans are grafted back in. The zero value disables tracing at the cost
	// of a nil check per span site.
	Trace trace.SpanRef

	// laneSeq numbers dispatched lanes for replica-spread rotation.
	laneSeq atomic.Uint64
}

// observe feeds the health tracker one exchange outcome. Cancellation and
// deadline teardowns are not the peer's fault and are dropped — only a
// genuine failure extends a fault streak. A faulting server still reports
// the spans of the work it did before failing, even mid-stream; they join
// sp, so failed attempts keep their server-side detail.
func (c *Client) observe(sp trace.SpanRef, peer string, wallNS int64, err error) {
	if err != nil {
		var f *Fault
		if errors.As(err, &f) && len(f.Spans) > 0 {
			sp.IngestRemote(f.Spans)
		}
	}
	if c.Health == nil {
		return
	}
	if err == nil {
		c.Health.Observe(peer, time.Duration(wallNS))
		return
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, ErrDeadlineExceeded) {
		return
	}
	c.Health.ObserveFault(peer)
}

// hedgeDelay resolves the hedge trigger for an attempt to peer: the health
// tracker's observed P90 when it has enough fresh samples, else the static
// policy value.
func (c *Client) hedgeDelay(peer string) time.Duration {
	if c.Health != nil {
		if d, ok := c.Health.HedgeAfter(peer); ok {
			return d
		}
	}
	return c.Retry.hedgeAfter()
}

// poolWidth returns the per-wave bound on in-flight lanes.
func (c *Client) poolWidth() int {
	if c.MaxConcurrent > 0 {
		return c.MaxConcurrent
	}
	return DefaultMaxConcurrent
}

// baseContext returns the dispatch base context.
func (c *Client) baseContext() context.Context {
	if c.Context != nil {
		return c.Context
	}
	return context.Background()
}

var _ eval.RemoteCaller = (*Client)(nil)

// CallRemote implements eval.RemoteCaller for a single call.
func (c *Client) CallRemote(target string, x *xq.XRPCExpr, params []xdm.Sequence) (xdm.Sequence, error) {
	results, err := c.CallRemoteBulk(target, x, [][]xdm.Sequence{params})
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// laneSpan opens the span one scatter lane records under.
func laneSpan(parent trace.SpanRef, target string) trace.SpanRef {
	return parent.Child("lane", trace.Str("target", target))
}

// finishLane closes a lane span with its fault-tolerance provenance: the
// winning peer and replica index, retry/hedge counts, and the wall time
// burned by losing attempts.
func finishLane(sp trace.SpanRef, lane Lane, err error) {
	if !sp.Active() {
		return
	}
	if err == nil {
		sp.Set(trace.Str("winner-peer", lane.Peer),
			trace.Int("replica", int64(lane.Replica)),
			trace.Int("retries", int64(lane.Retries)),
			trace.Int("hedges", int64(lane.Hedges)),
			trace.Int("wasted_ns", lane.WastedNS))
	}
	sp.EndErr(err)
}

// CallRemoteBulk implements Bulk RPC: all iterations travel in one message.
// Under a RetryPolicy with MaxAttempts > 1 a failed exchange is re-issued to
// the same target (sequential dispatch carries no replica set — scatter
// batches do).
func (c *Client) CallRemoteBulk(target string, x *xq.XRPCExpr, iterations [][]xdm.Sequence) ([]xdm.Sequence, error) {
	lsp := laneSpan(c.Trace, target)
	call := &laneCall{c: c, x: x, iters: iterations}
	call.runner.batch, call.runner.sp, call.runner.run = eval.ScatterBatch{Target: target, Iterations: iterations}, lsp, call
	lane, err := c.runLane(c.baseContext(), &call.runner)
	finishLane(lsp, lane, err)
	if err != nil {
		return nil, err
	}
	c.Metrics.AddWave([]Lane{lane})
	return call.results, nil
}

// CallRemoteScatter implements eval.RemoteCaller: one Bulk RPC per batch,
// dispatched concurrently through a bounded worker pool, each lane placing
// its results through sink — a whole response at once, or frame by frame
// when the client streams. No lane waits on a consumer, so lanes take pool
// slots in any order. Errors are positional per batch; the successful
// exchanges are recorded as metrics waves no wider than the pool, so the
// cost model charges their transfers as overlapped.
//
// The first lane to fail cancels the dispatch context: exchanges in flight
// over a cancellation-aware Transport (a ContextTransport, or any
// StreamTransport) are torn down, and external cancellation (Client.Context)
// also stops queued lanes before they dispatch. Gather-whole exchanges over
// the synchronous in-memory Transport run to completion, keeping per-lane
// outcomes deterministic. Lanes killed by cancellation report
// context.Canceled — the evaluator reports the genuine failure, never the
// echo. Under a RetryPolicy (or when a batch carries Replicas) a lane fails,
// and only then cancels the wave, once its attempts are exhausted; it
// reports the original fault of its earliest failed attempt (runLane).
func (c *Client) CallRemoteScatter(x *xq.XRPCExpr, batches []eval.ScatterBatch, sink eval.ScatterSink) []error {
	errs := make([]error, len(batches))
	calls := make([]laneCall, len(batches))
	width := c.poolWidth()
	base := c.baseContext()
	ctx, cancel := context.WithCancel(base)
	defer cancel()
	ssp := c.Trace.Child("scatter", trace.Int("lanes", int64(len(batches))))
	defer ssp.End()
	var stx StreamTransport
	if c.Streamed {
		stx, _ = c.Transport.(StreamTransport)
		ssp.Set(trace.Bool("streamed", true))
	}
	sem := make(chan struct{}, width)
	var wg sync.WaitGroup
	for i := range batches {
		l := &calls[i]
		*l = laneCall{c: c, x: x, iters: batches[i].Iterations, stx: stx, sink: sink, b: i}
		l.runner.batch, l.runner.run = batches[i], l
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if err := base.Err(); err != nil {
				// The lane never dispatched; when the budget (not a peer
				// fault elsewhere) killed the wave, say so in type.
				errs[i] = budgetFailure(base, err, batches[i].Target, time.Now())
				return
			}
			l.runner.sp = laneSpan(ssp, batches[i].Target)
			l.lane, errs[i] = c.runLane(ctx, &l.runner)
			finishLane(l.runner.sp, l.lane, errs[i])
			if errs[i] != nil {
				cancel()
			}
		}()
	}
	wg.Wait()
	var ok []Lane
	for i := range calls {
		if errs[i] == nil {
			ok = append(ok, calls[i].lane)
		}
	}
	// Waves no wider than the pool: only width exchanges were ever in flight
	// together, and the overlap model must not pretend otherwise.
	for len(ok) > 0 {
		n := min(width, len(ok))
		c.Metrics.AddWave(ok[:n])
		ok = ok[n:]
	}
	return errs
}

// laneCall is one lane's record and the lane runner's laneAttempt: the Bulk
// RPC its attempts make — streamed over stx when set — where a committed
// attempt delivers (a scatter lane into sink as batch b, a sequential call
// into results), and how much of the lane the sink already holds.
type laneCall struct {
	c        *Client
	x        *xq.XRPCExpr
	iters    [][]xdm.Sequence
	stx      StreamTransport
	sink     eval.ScatterSink
	b        int
	results  []xdm.Sequence
	progress laneProgress
	runner   laneRun // the lane's runner state, which dispatches the lane
	lane     Lane    // the lane's outcome, once the runner returns
}

// exchange implements laneAttempt. A gather attempt commits once its whole
// response has parsed, then places it one increment per call.
func (l *laneCall) exchange(ctx context.Context, a *attempt) (Lane, error) {
	if l.stx != nil {
		return l.stream(ctx, a)
	}
	results, lane, err := l.c.callBulkCtx(ctx, a.peer, l.x, l.iters, a.sp)
	if err != nil {
		return Lane{}, err
	}
	if !a.commit() {
		return Lane{}, context.Canceled
	}
	if err := l.placeAll(results); err != nil {
		return Lane{}, err
	}
	return lane, nil
}

// placeAll delivers a whole response, one increment per call; a sequential
// call keeps the results.
func (l *laneCall) placeAll(results []xdm.Sequence) error {
	if l.sink == nil {
		l.results = results
		return nil
	}
	for k, res := range results {
		if err := l.place(k, 0, res); err != nil {
			return err
		}
	}
	return nil
}

// place hands the sink what an increment — the items of call k from item
// start on — adds to what it already holds: a failover attempt replays the
// prefix an earlier one delivered.
func (l *laneCall) place(k, start int, items xdm.Sequence) error {
	if fresh, ok := l.progress.fresh(k, start, items); ok {
		return l.sink.Place(l.b, k, fresh)
	}
	return nil
}

// marshalCall builds and serializes the request message of one Bulk RPC.
// When ctx carries a deadline, the remaining budget is stamped into the
// request (relative nanoseconds, see Request.BudgetNS); an already-spent
// budget fails the attempt before any bytes move. sp, when active, stamps
// the attempt's trace identity into the request so the server records and
// returns its own spans.
func (c *Client) marshalCall(ctx context.Context, target string, x *xq.XRPCExpr, iterations [][]xdm.Sequence, sp trace.SpanRef) (data []byte, serNS int64, err error) {
	name, module := x.FuncName, x.RetainedModule()
	if module == nil {
		if containsRemote(x.Body) {
			return nil, 0, errNestedRemote
		}
		if name == "" {
			name = fmt.Sprintf("xrpcgen:f%d", clientFuncSeq.Add(1))
		}
		module = shipModule(x, name)
	}
	req := &Request{
		Method:    name,
		Arity:     len(x.Params),
		Semantics: c.Semantics,
		Module:    module.Render(c.Holes),
		Static:    c.Static,
		Calls:     iterations,
	}
	if dl, ok := ctx.Deadline(); ok {
		remaining := time.Until(dl)
		if remaining <= 0 {
			return nil, 0, &DeadlineError{Peer: target}
		}
		req.BudgetNS = remaining.Nanoseconds()
	}
	if sp.Active() {
		req.TraceID = uint64(sp.TraceID())
		req.TraceSpan = uint64(sp.SpanID())
	}
	var paramU, paramR []projection.PathSet
	if c.Semantics == ByProjection {
		rel, ok := c.Relatives[x]
		if ok {
			paramU, paramR = rel.ParamUsed, rel.ParamReturned
			req.ResultUsed = rel.ResultUsed
			req.ResultReturned = rel.ResultReturn
		} else {
			// Without an analysis the safe fallback keeps parameter values
			// whole (self is returned) and the response unprojected.
			for range x.Params {
				paramU = append(paramU, nil)
				paramR = append(paramR, nil)
			}
			req.ResultReturned = projection.PathSet{}.Add(projection.Path{})
		}
	}
	t0 := time.Now()
	data, err = MarshalRequest(req, paramU, paramR, c.ProjOpts)
	if err != nil {
		return nil, 0, err
	}
	return data, time.Since(t0).Nanoseconds(), nil
}

// roundTrip performs a gather-whole exchange, honoring ctx through a
// ContextTransport when the transport provides one. A plain Transport
// ignores cancellation: its exchanges cannot block on a network, so
// letting them finish keeps per-lane outcomes deterministic.
func roundTrip(ctx context.Context, t Transport, peer string, request []byte) ([]byte, error) {
	if ct, ok := t.(ContextTransport); ok {
		return ct.RoundTripContext(ctx, peer, request)
	}
	return t.RoundTrip(peer, request)
}

func (c *Client) callBulkCtx(ctx context.Context, target string, x *xq.XRPCExpr, iterations [][]xdm.Sequence, sp trace.SpanRef) ([]xdm.Sequence, Lane, error) {
	data, serNS, err := c.marshalCall(ctx, target, x, iterations, sp)
	if err != nil {
		return nil, Lane{}, err
	}
	if sp.Active() {
		ctx = withTraceInfo(ctx, uint64(sp.TraceID()), uint64(sp.SpanID()))
	}
	tot := exchangeTotals{sent: int64(len(data)), serNS: serNS}
	t1 := time.Now()
	respData, err := roundTrip(ctx, c.Transport, target, data)
	tot.wallNS = time.Since(t1).Nanoseconds()
	if err == nil {
		t2 := time.Now()
		var resp *Response
		if resp, err = decode(new(decoder), respData, x.ReturnedOnly, &tot.raw, (*decoder).response); err == nil {
			// A response that decodes comes from a live peer, even one that
			// misses calls: the health tracker counts it a success.
			c.observe(sp, target, tot.wallNS, nil)
			if err = tot.whole(sp, resp, len(respData), t2, len(iterations)); err != nil {
				return nil, Lane{}, err
			}
			c.account(&tot)
			return resp.Results, tot.lane(target), nil
		}
	}
	c.observe(sp, target, tot.wallNS, err)
	return nil, Lane{}, err
}

// exchangeTotals is what one exchange moved and spent, as Metrics counts it.
type exchangeTotals struct {
	sent, serNS, wallNS int64
	recvd, deserNS      int64
	execNS, serdeNS     int64
	raw                 RawCounts
}

// whole counts a decoded gather-whole response — a gather attempt's, or the
// one message a non-streaming peer answers a streamed attempt with — into the
// totals, the server's spans into sp; t0 is when its decode began. A response
// that misses calls is an error and counts nothing but its spans.
func (t *exchangeTotals) whole(sp trace.SpanRef, resp *Response, size int, t0 time.Time, calls int) error {
	sp.IngestRemote(resp.Spans)
	if len(resp.Results) != calls {
		return fmt.Errorf("xrpc: response carries %d results for %d calls", len(resp.Results), calls)
	}
	t.recvd += int64(size)
	t.deserNS += time.Since(t0).Nanoseconds()
	t.execNS += resp.ExecNanos
	t.serdeNS += resp.SerializeNanos
	return nil
}

// lane returns the Lane record of an exchange with peer.
func (t *exchangeTotals) lane(peer string) Lane {
	return Lane{Peer: peer, BytesSent: t.sent, BytesReceived: t.recvd, RemoteExecNS: t.execNS, DeserNS: t.deserNS}
}

// account adds one exchange's totals to the client's metrics.
func (c *Client) account(t *exchangeTotals) {
	if c.Metrics == nil {
		return
	}
	c.Metrics.Add(&Metrics{Requests: 1, BytesSent: t.sent, BytesReceived: t.recvd,
		SerializeNS: t.serNS, DeserializeNS: t.deserNS, RemoteExecNS: t.execNS,
		ServerSerdeNS: t.serdeNS, RoundTripWall: t.wallNS, Raw: t.raw})
}

var errNestedRemote = errors.New("xrpc: shipped function body contains a nested execute-at; " +
	"the decomposer never generates these (fcn0 stays local)")

// RetainModules renders, once, the shipped declaration of every XRPC call in
// q and retains it on the call as a template, so later requests only splice
// in their holes' values (Client.Holes) and skip the print and the
// nested-remote walk. Only a cache that has proven q reused should call it
// (the service does on a plan's first hit): a plan executed once pays the
// rendering per call and keeps nothing. Calls without a stable FuncName, or
// whose body nests a remote call, are left to render (or fail) per request.
func RetainModules(q *xq.Query) {
	retain := func(e xq.Expr) bool {
		x, ok := e.(*xq.XRPCExpr)
		if !ok {
			return true
		}
		if x.FuncName != "" && !containsRemote(x.Body) {
			x.RetainModule(shipModule(x, x.FuncName))
		}
		return false // the originator never ships what a shipped body nests
	}
	for _, f := range q.Funcs {
		xq.Walk(f.Body, retain)
	}
	xq.Walk(q.Body, retain)
}

// shipModule renders the self-contained function declaration shipped in the
// request's module element.
func shipModule(x *xq.XRPCExpr, name string) *xq.Template {
	f := &xq.FuncDecl{Name: name, Return: xq.AnyItems, Body: x.Body}
	for i, par := range x.Params {
		typ := xq.AnyItems
		if i < len(x.Types) {
			typ = x.Types[i]
		}
		f.Params = append(f.Params, xq.Param{Name: par.Name, Type: typ})
	}
	return xq.FuncDeclTemplate(f)
}

func containsRemote(e xq.Expr) bool {
	found := false
	xq.Walk(e, func(sub xq.Expr) bool {
		switch sub.(type) {
		case *xq.XRPCExpr, *xq.ExecuteAt:
			found = true
			return false
		}
		return true
	})
	return found
}
