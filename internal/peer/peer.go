// Package peer assembles the full distributed XQuery system: peers hosting
// XML documents behind XRPC endpoints, a federation (Network) connecting
// them, and query sessions that decompose and execute queries under any of
// the paper's four strategies (data-shipping, pass-by-value,
// pass-by-fragment, pass-by-projection), collecting the bandwidth and time
// metrics the evaluation section reports.
//
// The layer's contract: a Session is the one-stop query API — it plans
// (core.Decompose), wires the dispatch stack (xrpc client over the
// federation's transports, streamed or gather-whole, with the session's
// RetryPolicy and replica sets), executes, and returns the result plus a
// Report pricing the run under the netsim cost model: bytes moved, phase
// times, overlap-aware network time, streaming pipeline times, shard
// decisions, and fault-tolerance provenance (retries, hedges, wasted time,
// replica winners). Networks mix in-process peers with external HTTP
// daemons (RouteExternal); KillPeer/RevivePeer inject the failures the
// fault-tolerant dispatch is built to survive.
package peer

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"distxq/internal/core"
	"distxq/internal/eval"
	"distxq/internal/netsim"
	"distxq/internal/trace"
	"distxq/internal/xdm"
	"distxq/internal/xq"
	"distxq/internal/xrpc"
)

// Peer is one XQuery engine owning a set of documents and serving XRPC.
type Peer struct {
	Name string

	mu    sync.RWMutex
	store map[string]*xdm.Document

	Engine *eval.Engine
	Server *xrpc.Server
	net    *Network
}

// Network is a federation of peers connected by an in-memory transport and
// a simulated link model; external peers reached over their own transports
// (e.g. HTTP daemons) can be routed in beside the in-process ones.
type Network struct {
	Transport *xrpc.InMemoryTransport
	Model     netsim.Model

	mu       sync.RWMutex
	peers    map[string]*Peer
	dead     map[string]*Peer
	external map[string]bool
	router   *xrpc.RouteTransport
	// chunkItems is applied to every peer server's ChunkItems (see
	// SetChunkItems); zero leaves the xrpc default.
	chunkItems int
}

// NewNetwork creates an empty federation with the paper's 1 Gb/s LAN model.
func NewNetwork() *Network {
	return &Network{
		Transport: xrpc.NewInMemoryTransport(),
		Model:     netsim.GigabitLAN(),
		peers:     map[string]*Peer{},
		dead:      map[string]*Peer{},
		external:  map[string]bool{},
	}
}

// KillPeer takes a peer down: its XRPC endpoint deregisters from the
// in-memory transport (exchanges naming it fail like a dead host refusing
// connections) and its documents become unreachable for data shipping and
// shard materialization. The peer object survives so RevivePeer can bring
// it back; it still counts as a configured federation member for shard-map
// validation. External (HTTP) peers are not managed here — kill those by
// stopping their daemon.
func (n *Network) KillPeer(name string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	p, ok := n.peers[name]
	if !ok {
		return
	}
	n.Transport.Deregister(name)
	delete(n.peers, name)
	n.dead[name] = p
}

// RevivePeer restores a peer previously taken down by KillPeer.
func (n *Network) RevivePeer(name string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	p, ok := n.dead[name]
	if !ok {
		return
	}
	n.Transport.Register(name, p.Server)
	delete(n.dead, name)
	n.peers[name] = p
}

// RouteExternal maps a peer name to an external transport (for instance an
// xrpc.HTTPTransport reaching a remote xqpeer daemon): sessions dispatch
// execute-at calls naming that peer over it, while in-process peers keep
// using the in-memory transport.
func (n *Network) RouteExternal(name string, t xrpc.Transport) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.router == nil {
		n.router = xrpc.NewRouteTransport(n.Transport)
	}
	n.router.Route(name, t)
	n.external[name] = true
}

// transport returns the transport sessions dispatch over: the in-memory one,
// overlaid with external routes when any are registered.
func (n *Network) transport() xrpc.Transport {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if n.router != nil {
		return n.router
	}
	return n.Transport
}

// AddPeer creates a peer, registers its XRPC endpoint, and returns it.
func (n *Network) AddPeer(name string) *Peer {
	p := &Peer{Name: name, store: map[string]*xdm.Document{}, net: n}
	p.Engine = eval.NewEngine(&peerResolver{peer: p})
	p.Server = &xrpc.Server{Engine: p.Engine, Name: name}
	n.mu.Lock()
	p.Server.ChunkItems = n.chunkItems
	n.peers[name] = p
	n.mu.Unlock()
	n.Transport.Register(name, p.Server)
	return p
}

// SetChunkItems sets the per-frame result-item budget of every in-process
// peer's streamed responses, current and future (zero restores the xrpc
// default). Smaller frames surface first results sooner and bound server
// buffering tighter, at more framing overhead. Externally routed peers are
// not affected — configure those daemons directly (xqpeer -chunk-items).
func (n *Network) SetChunkItems(items int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.chunkItems = items
	for _, p := range n.peers {
		p.Server.ChunkItems = items
	}
	for _, p := range n.dead {
		p.Server.ChunkItems = items
	}
}

// Peer returns a registered peer by name.
func (n *Network) Peer(name string) (*Peer, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	p, ok := n.peers[name]
	return p, ok
}

// PeerNames returns the set of registered peer names, externally routed
// peers included — the engine peer set the decomposer validates shard maps
// against. Killed peers remain members: a shard map naming a down primary
// must still plan, so its lanes can fail over to replicas.
func (n *Network) PeerNames() map[string]bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make(map[string]bool, len(n.peers)+len(n.external)+len(n.dead))
	for name := range n.peers {
		out[name] = true
	}
	for name := range n.external {
		out[name] = true
	}
	for name := range n.dead {
		out[name] = true
	}
	return out
}

// LoadXML parses and stores a document under the given path.
func (p *Peer) LoadXML(path, xmlText string) error {
	d, err := xdm.ParseString(xmlText, "xrpc://"+p.Name+"/"+path)
	if err != nil {
		return err
	}
	p.AddDoc(path, d)
	return nil
}

// AddDoc stores a pre-built document under the given path.
func (p *Peer) AddDoc(path string, d *xdm.Document) {
	p.mu.Lock()
	p.store[path] = d
	p.mu.Unlock()
}

// Doc fetches a stored document.
func (p *Peer) Doc(path string) (*xdm.Document, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	d, ok := p.store[path]
	return d, ok
}

// DocSize returns the serialized size of a stored document in bytes.
func (p *Peer) DocSize(path string) int64 {
	d, ok := p.Doc(path)
	if !ok {
		return 0
	}
	return xdm.SerializedSize(d.Root)
}

// peerResolver resolves doc() URIs on a peer: xrpc:// URIs naming this peer
// hit the local store; other xrpc:// URIs fall back to data shipping (fetch
// the serialized remote document and shred it); plain paths are local.
type peerResolver struct {
	peer *Peer
	// shipStats, when non-nil, accounts data-shipping costs (set on the
	// session-local resolver).
	shipStats *shipStats
}

type shipStats struct {
	bytes   atomic.Int64
	shredNS atomic.Int64
}

func (r *peerResolver) ResolveDoc(uri string) (*xdm.Document, error) {
	if host, ok := core.XRPCHost(uri); ok {
		path := strings.TrimPrefix(uri, "xrpc://"+host+"/")
		if host == r.peer.Name {
			d, found := r.peer.Doc(path)
			if !found {
				return nil, fmt.Errorf("peer %s: no document %q", r.peer.Name, path)
			}
			return d, nil
		}
		// Data shipping: transfer the whole remote document (the W3C
		// fn:doc execution model) and shred it locally.
		remote, found := r.peer.net.Peer(host)
		if !found {
			return nil, fmt.Errorf("peer %s: unknown peer %q in %q", r.peer.Name, host, uri)
		}
		rd, found := remote.Doc(path)
		if !found {
			return nil, fmt.Errorf("peer %s: no document %q", host, path)
		}
		// The transfer is the shred phase end to end: the remote copy
		// serialized to text and that text shredded, none of it local
		// query execution.
		t0 := time.Now()
		xmlText := xdm.SerializeString(rd.Root)
		d, err := xdm.ParseString(xmlText, uri)
		if err != nil {
			return nil, err
		}
		if r.shipStats != nil {
			r.shipStats.bytes.Add(int64(len(xmlText)))
			r.shipStats.shredNS.Add(time.Since(t0).Nanoseconds())
		}
		return d, nil
	}
	d, found := r.peer.Doc(uri)
	if !found {
		return nil, fmt.Errorf("peer %s: no document %q", r.peer.Name, uri)
	}
	return d, nil
}

// Report is the per-query measurement record used to regenerate the
// evaluation figures.
type Report struct {
	Strategy core.Strategy
	// DocBytes counts whole documents transferred by data shipping.
	DocBytes int64
	// MsgBytes counts XRPC request+response message bytes.
	MsgBytes int64
	// Requests counts message exchanges (Bulk RPC counts once; a scatter
	// wave over N peers counts N).
	Requests int64
	// Waves counts dispatch waves: a sequential exchange is a wave of one,
	// a concurrent scatter over N peers one wave of N lanes.
	Waves int64
	// Parallelism is the widest wave observed (max exchanges in flight
	// together); zero when the query sent no requests.
	Parallelism int
	// MaxPeerNS is the slowest single exchange's network + remote-exec
	// time — the critical path through the slowest peer of a scatter wave.
	MaxPeerNS int64
	// SerialNetworkNS is the network time under the serial model (every
	// transfer paid in sequence); NetworkNS charges overlapped waves the
	// per-wave maximum instead. They coincide for fully sequential queries.
	SerialNetworkNS int64
	// Phase times (Figure 8 breakdown).
	ShredNS      int64 // serializing+shredding shipped documents
	LocalExecNS  int64 // local evaluation (excludes the other phases)
	SerdeNS      int64 // client+server message (de)serialization
	RemoteExecNS int64 // remote function evaluation (overlapped: per-wave max)
	NetworkNS    int64 // simulated transfer time (overlapped: per-wave max)
	// Streaming metrics, from the netsim pipeline model (server compute,
	// transfer and client decode overlap chunk by chunk). GatherNS is the
	// same exchanges under the gather-whole model; for a non-streamed query
	// PipelineNS equals GatherNS, and FirstResultNS is the completion of the
	// first request wave (nothing is usable earlier).
	FirstResultNS  int64 // first usable result increment at the originator
	PipelineNS     int64 // completion of all request waves, streamed model
	GatherNS       int64 // completion of all request waves, gather-whole model
	OverlapSavedNS int64 // GatherNS - PipelineNS
	StreamedChunks int64 // response chunk frames received by streamed lanes

	// FirstChunkExecNS is the server evaluation the first wave's slowest
	// lane charged to its first response frame (measured, from the frame's
	// exec-ns): a gather-whole or eager server charges the whole call, an
	// incremental server only what preceded the frame.
	FirstChunkExecNS int64
	// Shards reports the planner's shard-rewrite decisions: which
	// logical-document expressions became scatter loops and which fell back
	// to materialized-union evaluation, with the violated condition.
	Shards []core.ShardDecision
	// Fault tolerance, from replica-aware dispatch under a RetryPolicy.
	// Retries counts fault-triggered lane re-issues, Hedges the speculative
	// attempts the hedge timer launched, and WastedNS the wall time burned
	// in attempts that did not win — the price paid for the tail latency
	// and availability the winners bought.
	Retries  int64
	Hedges   int64
	WastedNS int64
	// WinnerReplica maps each scatter target whose lane was NOT answered by
	// its primary to the replica peer that produced the winning response.
	// Nil when every lane was won by its primary.
	WinnerReplica map[string]string
}

// TotalBytes is the Figure 7 metric: documents plus messages.
func (r *Report) TotalBytes() int64 { return r.DocBytes + r.MsgBytes }

// TotalNS is the Figure 9 metric: the full simulated query time.
func (r *Report) TotalNS() int64 {
	return r.ShredNS + r.LocalExecNS + r.SerdeNS + r.RemoteExecNS + r.NetworkNS
}

// Session executes queries from an originator peer under one strategy.
type Session struct {
	Strategy core.Strategy
	Origin   *Peer
	// Streamed dispatches variable-target loops through the streaming XRPC
	// client: per-peer results arrive as chunk frames consumed in loop
	// order, overlapping slow peers with local processing of finished
	// lanes, instead of gathering whole responses.
	Streamed bool
	// Shards installs shard maps: the planner may rewrite queries over each
	// logical document into the concurrent scatter form, and the logical URI
	// also resolves at the originator by materializing the union of shards
	// (the fallback path).
	Shards []core.ShardMap
	// Holes is the argument vector ExecutePlan runs a template plan with
	// (eval.Engine.Holes); nil runs its literals' own values.
	Holes []xdm.Atomic
	// Retry, when non-nil, makes scatter dispatch fault-tolerant: failed
	// lanes re-issue to replicas and straggling ones are hedged (see
	// xrpc.RetryPolicy). Replica sets come from the installed shard maps
	// and from Replicas; a session with replicas but no policy still fails
	// over on faults.
	Retry *xrpc.RetryPolicy
	// Replicas maps scatter target peers to ordered failover replicas for
	// hand-written variable-target loops; shard maps with Replicas
	// contribute their ReplicaSets automatically.
	Replicas map[string][]string
	// Budget, when non-zero, bounds each query's end-to-end wall time: local
	// evaluation aborts at the deadline, dispatch contexts carry it so lanes
	// tear down, and the remaining allowance travels to remote peers, which
	// abort server-side evaluation when it runs out. A blown budget surfaces
	// as an error matching eval.ErrDeadlineExceeded — never a bare
	// context.Canceled.
	Budget core.Budget
	// Health, when non-nil, drives adaptive hedging and replica spreading:
	// observed lane latencies feed it, and dispatch derives its hedge trigger
	// and initial replica choice from it (see xrpc.HealthTracker).
	Health *xrpc.HealthTracker
	// TraceSpan, when active, parents an "execute" span around each query's
	// evaluation: the engine and the dispatch stack record compile, scatter,
	// lane, attempt and remote server spans under it, and remote peers'
	// piggy-backed spans graft in, so one connected cross-peer tree describes
	// the whole query. A zero SpanRef disables recording at near-zero cost.
	TraceSpan trace.SpanRef
	// AggMetrics, when non-nil, accumulates every query's transport counters
	// (a daemon points all its sessions here so /metrics sums across queries);
	// waves are counted, per-lane records are not retained across queries.
	AggMetrics *xrpc.Metrics
	// AggEval, when non-nil, accumulates every query's evaluation counters.
	AggEval *eval.StatsSink
	net     *Network
}

// UseRetry installs a retry/hedging policy on the session and returns the
// session for chaining.
func (s *Session) UseRetry(pol *xrpc.RetryPolicy) *Session {
	s.Retry = pol
	return s
}

// UseShards installs shard maps on the session (see Shards), replacing any
// map already installed for the same logical document, and returns the
// session for chaining.
func (s *Session) UseShards(maps ...core.ShardMap) *Session {
	s.Shards = core.InstallShards(s.Shards, maps...)
	return s
}

// UseBudget bounds every query of the session by a wall-time budget (see
// Budget) and returns the session for chaining.
func (s *Session) UseBudget(b core.Budget) *Session {
	s.Budget = b
	return s
}

// UseHealth installs a latency tracker for adaptive hedging and replica
// spreading (see Health) and returns the session for chaining.
func (s *Session) UseHealth(h *xrpc.HealthTracker) *Session {
	s.Health = h
	return s
}

// UseTrace parents the session's query execution under a trace span (see
// TraceSpan) and returns the session for chaining.
func (s *Session) UseTrace(sp trace.SpanRef) *Session {
	s.TraceSpan = sp
	return s
}

// NewSession creates a query session originating at the given peer (the
// peer may own no documents; it is the "local peer" of the paper).
func (n *Network) NewSession(origin *Peer, strat core.Strategy) *Session {
	return &Session{Strategy: strat, Origin: origin, net: n}
}

func semanticsOf(s core.Strategy) xrpc.Semantics {
	switch s {
	case core.ByFragment:
		return xrpc.ByFragment
	case core.ByProjection:
		return xrpc.ByProjection
	default:
		return xrpc.ByValue
	}
}

// Query decomposes and executes query source text, returning the result and
// the measurement report.
func (s *Session) Query(src string) (xdm.Sequence, *Report, error) {
	q, err := xq.ParseQuery(src)
	if err != nil {
		return nil, nil, err
	}
	return s.QueryParsed(q)
}

// QueryParsed decomposes and executes a parsed query.
func (s *Session) QueryParsed(q *xq.Query) (xdm.Sequence, *Report, error) {
	opts := core.DefaultOptions()
	opts.Shards = s.Shards
	if len(s.Shards) > 0 {
		opts.KnownPeers = s.net.PeerNames()
	}
	plan, err := core.Decompose(q, s.Strategy, opts)
	if err != nil {
		return nil, nil, err
	}
	return s.ExecutePlan(plan)
}

// ExecutePlan runs an already-decomposed plan (used by the ablation
// benchmarks that tweak decomposition options, and by the service, which
// plans through its epoch-keyed cache and installs the matching snapshot on
// Shards).
func (s *Session) ExecutePlan(plan *core.Plan) (xdm.Sequence, *Report, error) {
	ship := &shipStats{}
	resolver := &peerResolver{peer: s.Origin, shipStats: ship}
	engine := eval.NewEngine(resolver)
	engine.Holes = s.Holes
	engine.TraceSpan = s.TraceSpan.Child("execute",
		trace.Str("strategy", plan.Strategy.String()),
		trace.Bool("streamed", s.Streamed))
	// Logical documents resolve at the originator by materializing the
	// union of shards; each shard transfer is accounted as data shipping.
	for _, m := range s.Shards {
		m := m
		engine.RegisterLogical(m.Logical, func() (*xdm.Document, error) {
			return m.Materialize(m.Logical, func(peerName string) (*xdm.Document, error) {
				return resolver.ResolveDoc("xrpc://" + peerName + "/" + m.ShardPath)
			})
		})
	}
	// Replica sets flow to the dispatcher through the engine on two levels.
	// Each planner-synthesized scatter call gets its own route table from its
	// shard map, so two maps may assign the same primary different failover
	// orders — per-(target, logical-document) routing — and every loop still
	// fails over strictly within its own document's copies. The target-keyed
	// map remains the fallback for hand-written loops; a target whose sets
	// conflict across maps is withheld from it (the loop names a bare peer,
	// so neither document's failover order is provably the right one) rather
	// than rejected outright — session-level Replicas entries override.
	byLogical := map[string]core.ShardMap{}
	for _, m := range s.Shards {
		byLogical[m.Logical] = m
	}
	routes := map[*xq.XRPCExpr]map[string][]string{}
	for _, d := range plan.Shards {
		if !d.Scattered || d.X == nil {
			continue
		}
		if m, ok := byLogical[d.Logical]; ok {
			routes[d.X] = m.ReplicaSets()
		}
	}
	replicas := map[string][]string{}
	conflicted := map[string]bool{}
	for _, m := range s.Shards {
		for p, rs := range m.ReplicaSets() {
			if prev, ok := replicas[p]; ok && !slices.Equal(prev, rs) {
				conflicted[p] = true
			}
			replicas[p] = rs
		}
	}
	for p := range conflicted {
		delete(replicas, p)
	}
	for p, rs := range s.Replicas {
		replicas[p] = append([]string(nil), rs...)
	}
	if len(replicas) > 0 {
		engine.Replicas = replicas
	}
	if len(routes) > 0 {
		engine.ReplicaRoutes = routes
	}
	metrics := &xrpc.Metrics{}
	// A budget pins the query's absolute deadline here, once: the engine
	// aborts local evaluation at it, and the dispatch context carries it so
	// lanes stamp the remaining allowance onto outgoing requests and tear
	// down in-flight exchanges when it passes.
	var queryCtx context.Context
	if deadline, ok := s.Budget.DeadlineFrom(time.Now()); ok {
		engine.Deadline = deadline
		ctx, cancel := context.WithDeadline(context.Background(), deadline)
		defer cancel()
		queryCtx = ctx
	}
	if s.Strategy != core.DataShipping {
		engine.Remote = &xrpc.Client{
			Transport: s.net.transport(),
			Semantics: semanticsOf(s.Strategy),
			Static:    engine.Static,
			Holes:     s.Holes,
			Relatives: plan.Relatives,
			Metrics:   metrics,
			Context:   queryCtx,
			Retry:     s.Retry,
			Health:    s.Health,
			Trace:     engine.TraceSpan,
			Streamed:  s.Streamed,
		}
	}
	t0 := time.Now()
	res, err := engine.Query(plan.Query)
	wallNS := time.Since(t0).Nanoseconds()
	// Retire this query's counters into the session's aggregate sinks before
	// any return: failed queries still moved bytes and burned evaluations.
	s.AggMetrics.AddCounters(metrics)
	s.AggEval.Add(engine.StatsSnapshot())
	engine.TraceSpan.EndErr(err)
	if err != nil {
		return nil, nil, err
	}
	m := metrics.Snapshot()
	rep := &Report{
		Strategy: plan.Strategy,
		DocBytes: ship.bytes.Load(),
		MsgBytes: m.BytesSent + m.BytesReceived,
		Requests: m.Requests,
		Waves:    int64(len(m.Waves)),
		ShredNS:  ship.shredNS.Load(),
		SerdeNS:  m.SerializeNS + m.DeserializeNS + m.ServerSerdeNS,
		Shards:   plan.Shards,
	}
	// Simulated network and remote execution, wave by wave: exchanges that
	// were in flight together cost their per-wave maximum (the slowest peer
	// dominates a scatter wave); sequential exchanges — single-lane waves —
	// sum exactly as in the serial model.
	netNS, serialNS, remoteNS := int64(0), int64(0), int64(0)
	if rep.DocBytes > 0 {
		t := s.net.Model.TransferTime(rep.DocBytes).Nanoseconds()
		netNS += t
		serialNS += t
	}
	waveStreamed := make([]bool, len(m.Waves))
	waveLanes := make([][]netsim.StreamedExchange, len(m.Waves))
	for wi, wave := range m.Waves {
		if len(wave) > rep.Parallelism {
			rep.Parallelism = len(wave)
		}
		lanes := make([]netsim.Exchange, len(wave))
		slanes := make([]netsim.StreamedExchange, len(wave))
		var waveExecNS int64
		for i, lane := range wave {
			lanes[i] = netsim.Exchange{ReqBytes: lane.BytesSent, RespBytes: lane.BytesReceived}
			slanes[i] = streamedExchange(lane)
			rep.StreamedChunks += int64(len(lane.Chunks))
			rep.Retries += int64(lane.Retries)
			rep.Hedges += int64(lane.Hedges)
			rep.WastedNS += lane.WastedNS
			if lane.Replica > 0 && lane.Target != "" {
				if rep.WinnerReplica == nil {
					rep.WinnerReplica = map[string]string{}
				}
				rep.WinnerReplica[lane.Target] = lane.Peer
			}
			firstExec := lane.RemoteExecNS
			if len(lane.Chunks) > 0 {
				waveStreamed[wi] = true
				firstExec = lane.Chunks[0].ExecNS
			}
			if wi == 0 {
				rep.FirstChunkExecNS = max(rep.FirstChunkExecNS, firstExec)
			}
			laneNetNS := s.net.Model.RoundTrip(lane.BytesSent, lane.BytesReceived).Nanoseconds()
			serialNS += laneNetNS
			if lane.RemoteExecNS > waveExecNS {
				waveExecNS = lane.RemoteExecNS
			}
			if peerNS := laneNetNS + lane.RemoteExecNS; peerNS > rep.MaxPeerNS {
				rep.MaxPeerNS = peerNS
			}
		}
		waveLanes[wi] = slanes
		netNS += s.net.Model.WaveTime(lanes).Nanoseconds()
		remoteNS += waveExecNS
	}
	// Streamed-pipeline accounting: compute/transfer/decode overlap chunk by
	// chunk, against the gather-whole model of the same lanes. A run of
	// consecutive streamed waves pipelines across its wave boundaries too
	// (the dispatcher admits the next lane as soon as a slot frees, no
	// barrier) — clamped by the barrier schedule, which any scheduler can
	// fall back to. Gather-only waves contribute their wave completion to
	// both models, so PipelineNS equals GatherNS for non-streamed queries.
	for wi := 0; wi < len(waveLanes); {
		if !waveStreamed[wi] {
			gFirst, gLast := s.net.Model.GatherWaveTime(waveLanes[wi])
			if wi == 0 {
				// Nothing is usable before the gather wave completed.
				rep.FirstResultNS = gFirst.Nanoseconds()
			}
			rep.PipelineNS += gLast.Nanoseconds()
			rep.GatherNS += gLast.Nanoseconds()
			wi++
			continue
		}
		width := len(waveLanes[wi])
		var run []netsim.StreamedExchange
		first := wi
		for wi < len(waveLanes) && waveStreamed[wi] {
			run = append(run, waveLanes[wi]...)
			wi++
		}
		if first == 0 {
			sFirst, _ := s.net.Model.StreamedWaveTime(waveLanes[0])
			rep.FirstResultNS = sFirst.Nanoseconds()
		}
		pipe := s.net.Model.PipelinedTime(run, width)
		barrier := s.net.Model.WaveBarrierTime(run, width)
		if pipe > barrier {
			pipe = barrier
		}
		rep.PipelineNS += pipe.Nanoseconds()
		rep.GatherNS += barrier.Nanoseconds()
	}
	rep.NetworkNS = netNS
	rep.SerialNetworkNS = serialNS
	rep.RemoteExecNS = remoteNS
	rep.OverlapSavedNS = rep.GatherNS - rep.PipelineNS
	// Local execution is what remains of wall time after the accounted
	// phases (message serde and remote exec happen within the wall).
	local := wallNS - rep.ShredNS - rep.SerdeNS - rep.RemoteExecNS
	if local < 0 {
		local = 0
	}
	rep.LocalExecNS = local
	return res, rep, nil
}

// streamedExchange converts a metrics lane into the netsim streamed-lane
// description: a streamed lane hands over its per-chunk stats as they stand
// (xrpc.ChunkStat is netsim.Chunk), plus a trailing pseudo-chunk for the
// terminal frame's bytes; a gather-whole lane collapses to a single chunk
// covering the entire response.
func streamedExchange(lane xrpc.Lane) netsim.StreamedExchange {
	se := netsim.StreamedExchange{ReqBytes: lane.BytesSent, Chunks: lane.Chunks}
	if len(lane.Chunks) == 0 {
		se.Chunks = []netsim.Chunk{{
			Bytes: lane.BytesReceived, ExecNS: lane.RemoteExecNS, DeserNS: lane.DeserNS,
		}}
		return se
	}
	rest := lane.BytesReceived
	for _, c := range lane.Chunks {
		rest -= c.Bytes
	}
	if rest > 0 {
		se.Chunks = append(se.Chunks, netsim.Chunk{Bytes: rest})
	}
	return se
}
