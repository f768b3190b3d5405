package main

import (
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"distxq"
	"distxq/internal/core"
	"distxq/internal/eval"
	"distxq/internal/peer"
	"distxq/internal/projection"
	"distxq/internal/service"
	"distxq/internal/xdm"
	"distxq/internal/xq"
	"distxq/internal/xrpc"
)

// This file is the traced run. It never touches the end-to-end numbers: it
// replays a workload's queries stage by stage through the exported
// functions of each layer, a benchmark-owned span around every call, and
// reports each layer's median self time. Spans inside the program are a
// later change; until then every layer is timed from outside.

// budget splits the traced run's seconds between its parts.
type budget struct{ total time.Duration }

func (b budget) share(pct int) time.Duration { return b.total * time.Duration(pct) / 100 }

// repeat calls fn(i) for i = 0, 1, … until d has passed and at least min
// calls were made.
func repeat(d time.Duration, min int, fn func(i int)) int {
	start := time.Now()
	i := 0
	for ; i < min || time.Since(start) < d; i++ {
		fn(i)
	}
	return i
}

// layerMetrics holds a traced run's numbers. Keys are checked against the
// per-layer table, so the program cannot emit a metric BENCHMARK.json does
// not list.
type layerMetrics map[string]float64

var perLayerNames = func() map[string]bool {
	names := map[string]bool{}
	for _, m := range perLayer {
		names[m.Name] = true
	}
	return names
}()

func (m layerMetrics) set(name string, v float64) {
	if !perLayerNames[name] {
		panic("benchmark: " + name + " is not in the per-layer metric table")
	}
	m[name] = v
}

// tracedFederation is the in-process federation with the recording
// transport in front of every data peer.
type tracedFederation struct {
	net    *peer.Network
	origin *peer.Peer
	tr     *recTransport
}

func newTracedFederation(f *fixture, rec *recorder) (*tracedFederation, error) {
	n, origin, err := federation(f)
	if err != nil {
		return nil, err
	}
	tr := &recTransport{inner: n.Transport, rec: rec}
	for _, name := range f.Peers {
		n.RouteExternal(name, tr)
	}
	return &tracedFederation{net: n, origin: origin, tr: tr}, nil
}

// session mirrors the session Service.Query builds for every query.
func (t *tracedFederation) session(w *workload, f *fixture, health *xrpc.HealthTracker) *peer.Session {
	sess := t.net.NewSession(t.origin, w.Strategy).
		UseBudget(xqdBudget).UseRetry(xqdRetryPolicy()).UseHealth(health)
	sess.Streamed = w.Streamed
	sess.Shards = f.Shards
	return sess
}

// decomposeOptions mirrors Service.plan.
func decomposeOptions(n *peer.Network, f *fixture) core.Options {
	opts := core.DefaultOptions()
	opts.Shards = f.Shards
	if len(f.Shards) > 0 {
		opts.KnownPeers = n.PeerNames()
	}
	return opts
}

// byQuery groups span indices by query id, keeping only the trees whose
// root span has the given name.
func byQuery(spans []span, root string) map[int][]int {
	roots := map[int]bool{}
	for _, s := range spans {
		if s.Parent == 0 && s.Name == root {
			roots[s.Query] = true
		}
	}
	out := map[int][]int{}
	for i, s := range spans {
		if roots[s.Query] {
			out[s.Query] = append(out[s.Query], i)
		}
	}
	return out
}

// perQueryUS is the median over queries of the summed value (self time or
// duration, in µs) of the query's spans with the given name. Queries
// without such a span contribute nothing.
func perQueryUS(spans []span, val []int64, trees map[int][]int, name string) float64 {
	var sums []float64
	for _, idx := range trees {
		sum, seen := int64(0), false
		for _, i := range idx {
			if spans[i].Name == name {
				sum, seen = sum+val[i], true
			}
		}
		if seen {
			sums = append(sums, float64(sum)/1e3)
		}
	}
	return median(sums)
}

// perSpanUS is the median value (µs) over every span with the given name.
func perSpanUS(spans []span, val []int64, name string) float64 {
	var v []float64
	for i, s := range spans {
		if s.Name == name {
			v = append(v, float64(val[i])/1e3)
		}
	}
	return median(v)
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// tracedInstance runs ops through a Service like local does, with the
// benchmark's recorder on: a root span per op and the lanes below it.
type tracedInstance struct {
	*local
	rec *recorder
	tr  *recTransport
	qid int
}

func (t *tracedInstance) do(i int) error {
	t.qid++
	id := t.rec.start("service.op", 0, t.qid)
	t.tr.under(id, t.qid)
	err := t.local.do(i)
	t.rec.end(id)
	return err
}

func setupRecorded(w *workload, f *fixture) (*tracedInstance, error) {
	rec := newRecorder()
	tf, err := newTracedFederation(f, rec)
	if err != nil {
		return nil, err
	}
	inst := &tracedInstance{
		local: &local{fix: f, svc: newService(tf.net, tf.origin, w, f, service.Config{})},
		rec:   rec, tr: tf.tr,
	}
	return inst, warm(inst.do, w)
}

// stager replays a workload's ops stage by stage through the exported
// functions Service.Query and Session.ExecutePlan go through, one tree of
// spans per op.
type stager struct {
	w      *workload
	f      *fixture
	rec    *recorder
	tf     *tracedFederation
	health *xrpc.HealthTracker
	opts   core.Options
	// cold: the workload's texts outnumber the plan cache, so the service
	// plans every query; the stager then does too. Otherwise a text is
	// planned once and its plan reused, as the plan cache does.
	cold  bool
	plans map[string]*core.Plan
	fails *failures

	ops                                         int
	firstFrameUS, serdeUS, remoteUS, modelledUS []float64
	retries, hedges                             int64
}

func newStager(w *workload, f *fixture, rec *recorder, fails *failures) (*stager, error) {
	tf, err := newTracedFederation(f, rec)
	if err != nil {
		return nil, err
	}
	return &stager{
		w: w, f: f, rec: rec, tf: tf, health: xrpc.NewHealthTracker(), opts: decomposeOptions(tf.net, f),
		cold: len(f.Ops) > service.DefaultPlanCacheSize, plans: map[string]*core.Plan{}, fails: fails,
	}, nil
}

// do stages op i and, like instance.do, checks every reply against the oracle.
func (st *stager) do(i int) error {
	st.ops++
	qid := st.ops
	rec := st.rec
	root := rec.start("query", 0, qid)
	defer rec.end(root)
	for _, q := range st.f.Ops[i%len(st.f.Ops)] {
		var ast *xq.Query
		var key string
		var err error
		rec.time("xq.parse", root, qid, func() { ast, err = xq.ParseQuery(q.Src) })
		if err != nil {
			return err
		}
		rec.time("xq.print", root, qid, func() { key = xq.PrintQuery(ast) })
		plan := st.plans[key]
		if plan == nil {
			rec.time("core.decompose", root, qid, func() { plan, err = core.Decompose(ast, st.w.Strategy, st.opts) })
			if err == nil {
				rec.time("xq.normalize", root, qid, func() { err = xq.Normalize(plan.Query) })
			}
			if err != nil {
				return err
			}
			if !st.cold {
				st.plans[key] = plan
			}
		}
		exec := rec.start("peer.execute_plan", root, qid)
		st.tf.tr.under(exec, qid)
		out, rep, err := st.tf.session(st.w, st.f, st.health).ExecutePlan(plan)
		rec.end(exec)
		if err != nil {
			return err
		}
		var got string
		rec.time("xdm.result_serialize", root, qid, func() { got = distxq.Serialize(out) })
		if got != q.Want {
			return mismatch(q, got)
		}
		if ns := st.tf.tr.firstFrameNS.Load(); ns > 0 {
			st.firstFrameUS = append(st.firstFrameUS, float64(ns)/1e3)
		}
		st.serdeUS = append(st.serdeUS, float64(rep.SerdeNS)/1e3)
		st.remoteUS = append(st.remoteUS, float64(rep.RemoteExecNS)/1e3)
		st.modelledUS = append(st.modelledUS, float64(rep.NetworkNS)/1e3)
		st.retries, st.hedges = st.retries+rep.Retries, st.hedges+rep.Hedges
	}
	return nil
}

// queryOnly runs op i through Service.Query alone, without serializing or
// checking the reply.
func (l *local) queryOnly(i int) error {
	for _, q := range l.fix.Ops[i%len(l.fix.Ops)] {
		if _, _, err := l.svc.Query(q.Src, core.Budget{}); err != nil {
			return err
		}
	}
	return nil
}

func runTraced(w *workload, seed uint64, seconds float64, e env) (*result, error) {
	f := w.Gen(seed)
	b := budget{time.Duration(seconds * float64(time.Second))}
	m := layerMetrics{}
	res := &result{Metrics: m}
	var fails failures

	// The in-process replay of the daemon workload is its service without
	// the sockets: the same data, query and strategy.
	inproc := *w
	inproc.HTTP = false

	rec := newRecorder()
	st, err := newStager(&inproc, f, rec, &fails)
	if err != nil {
		return nil, err
	}
	st.tf.tr.capture.Store(true)

	// --- rounds. Each round sets up fresh instances, like a slice of the
	// untraced run, and gives every way of running the ops one latency phase:
	// the plain service (the reference), the service with Config.Trace, the
	// service under the benchmark's recorder, Service.Query alone, and the
	// staged replay. Taking them in turn, round after round, makes a slow
	// stretch of the machine hit all of them alike.
	var (
		refP50, svcP50, recP50, queryP50 []float64
		pooled, speed                    []float64
		plainOps                         int
		cpu, gcs, pauseNS                float64
		hits, lookups, shed              int64
		roundErr                         error
	)
	phaseOps := (w.OpsL + 3) / 4
	phase := func(do func(int) error, idx *opCounter) []float64 {
		res.Attempted += phaseOps
		return timeOps(do, idx, phaseOps, &fails)
	}
	repeat(b.share(65), 5, func(round int) {
		if roundErr != nil {
			return
		}
		plain, err1 := setupLocal(&inproc, f, service.Config{})
		svcTraced, err2 := setupLocal(&inproc, f, service.Config{Trace: true})
		recorded, err3 := setupRecorded(&inproc, f)
		for _, err := range []error{err1, err2, err3} {
			if err != nil {
				roundErr = err
				return
			}
		}
		var idx opCounter
		idx.n.Store(int64(warmOps(&inproc)))

		reference := func() {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			before := probe(1)
			stats0, c0 := plain.svc.Stats(), cpuSeconds()
			lat := phase(plain.do, &idx)
			cpu += cpuSeconds() - c0
			speed = append(speed, speed1(before, probe(1)))
			stats1 := plain.svc.Stats()
			runtime.ReadMemStats(&m1)
			// The phase forces one collection before its ops; it is not the
			// workload's.
			gcs += float64(m1.NumGC-m0.NumGC) - 1
			pauseNS += float64(m1.PauseTotalNs - m0.PauseTotalNs)
			hits += stats1.PlanHits - stats0.PlanHits
			lookups += stats1.PlanHits - stats0.PlanHits + stats1.PlanMisses - stats0.PlanMisses
			shed += stats1.Shed - stats0.Shed
			plainOps += phaseOps
			pooled = append(pooled, lat...)
			refP50 = append(refP50, percentile(lat, 50))
		}
		phases := []func(){
			reference,
			func() { svcP50 = append(svcP50, percentile(phase(svcTraced.do, &idx), 50)) },
			func() { recP50 = append(recP50, percentile(phase(recorded.do, &idx), 50)) },
			func() { queryP50 = append(queryP50, percentile(phase(plain.queryOnly, &idx), 50)) },
			func() {
				if st.ops >= min(len(f.Ops), 24) {
					st.tf.tr.capture.Store(false) // one cycle of messages is enough to replay
				}
				phase(st.do, &idx)
			},
		}
		// The process's heap grows through a round, and with it the cost of
		// each collection: rotate who goes first so every way of running the
		// ops sees every position.
		for i := range phases {
			phases[(round+i)%len(phases)]()
		}
	})
	if roundErr != nil {
		return nil, roundErr
	}
	st.tf.tr.capture.Store(false)
	refMS := median(refP50)
	n := float64(plainOps)
	m.set("bench.machine_speed", median(speed))
	m.set("bench.query_p50_ms", refMS)
	m.set("bench.query_p99_ms", percentile(pooled, 99))
	m.set("runtime.cpu_ms_per_query", cpu/n*1e3)
	m.set("runtime.gc_per_1k_queries", gcs/n*1e3)
	m.set("runtime.gc_pause_ms_per_1k_queries", pauseNS/1e6/n*1e3)
	m.set("trace.overhead_pct", (median(svcP50)-refMS)/refMS*100)
	m.set("bench.trace_overhead_pct", (median(recP50)-refMS)/refMS*100)
	if lookups > 0 {
		m.set("service.plan_hit_ratio", float64(hits)/float64(lookups))
	}
	m.set("service.shed", float64(shed))
	m.set("service.query_us", median(queryP50)*1e3)

	// --- planning stages on fresh parses (Decompose rewrites in place).
	scattered, planned := 0, 0
	repeat(b.share(10), 10, func(i int) {
		qid := -(i + 1)
		root := rec.start("plan", 0, qid)
		for _, q := range f.Ops[i%len(f.Ops)] {
			var ast *xq.Query
			var plan *core.Plan
			var err error
			rec.time("xq.parse", root, qid, func() { ast, err = xq.ParseQuery(q.Src) })
			if err == nil {
				rec.time("core.decompose", root, qid, func() { plan, err = core.Decompose(ast, w.Strategy, st.opts) })
			}
			if err == nil {
				rec.time("xq.normalize", root, qid, func() { err = xq.Normalize(plan.Query) })
			}
			if err == nil {
				rec.time("eval.compile", root, qid, func() { _, err = eval.CompileQuery(plan.Query) })
			}
			if err != nil {
				fails.add(err)
				continue
			}
			planned++
			for _, d := range plan.Shards {
				if d.Scattered {
					scattered++
				}
			}
		}
		rec.end(root)
	})

	// --- codec and remote evaluation, replayed on the captured messages.
	st.tf.tr.mu.Lock()
	captured := st.tf.tr.captured
	st.tf.tr.mu.Unlock()
	var reqBytes, respBytes float64
	for _, x := range captured {
		reqBytes += float64(len(x.Request))
		respBytes += float64(len(x.Response))
		for _, fr := range x.Frames {
			respBytes += float64(len(fr))
		}
	}
	if len(captured) > 0 {
		m.set("xrpc.request_bytes", reqBytes/float64(len(captured)))
		m.set("xrpc.response_bytes", respBytes/float64(len(captured)))
		repeat(b.share(10), 3, func(i int) {
			qid := 1_000_000_000 + i
			root := rec.start("replay", 0, qid)
			for _, x := range captured {
				if err := replayExchange(rec, root, qid, st.tf.net, x); err != nil {
					fails.add(err)
				}
			}
			rec.end(root)
		})
	}

	// --- single-layer measurements on the workload's documents.
	if err := measureXDM(b.share(5), f, m); err != nil {
		return nil, err
	}
	if len(f.Peers) == 0 {
		if err := measureLocalExec(b.share(10), f, m); err != nil {
			return nil, err
		}
	}
	if w.Name == "semijoin_projection" {
		if err := measureProjection(b.share(5), f, m); err != nil {
			return nil, err
		}
		// The paper's Fig. 7: the same query once under each strategy.
		for _, strat := range []core.Strategy{core.DataShipping, core.ByValue, core.ByFragment, core.ByProjection} {
			n, origin, err := federation(f)
			if err != nil {
				return nil, err
			}
			_, report, err := n.NewSession(origin, strat).Query(f.Ops[0][0].Src)
			if err != nil {
				return nil, fmt.Errorf("%s under %s: %w", w.Name, strat, err)
			}
			m.set("peer.wire_bytes."+strategyKey(strat), float64(report.TotalBytes()))
		}
	}

	// --- fold the spans into the layer metrics.
	rec.mu.Lock()
	spans := rec.spans
	rec.mu.Unlock()
	self := selfTimes(spans)
	dur := make([]int64, len(spans))
	for i, s := range spans {
		dur[i] = s.EndNS - s.StartNS
	}
	queries, plans := byQuery(spans, "query"), byQuery(spans, "plan")
	m.set("xq.parse_us", perQueryUS(spans, self, queries, "xq.parse"))
	m.set("xq.print_us", perQueryUS(spans, self, queries, "xq.print"))
	m.set("xq.normalize_us", perQueryUS(spans, self, plans, "xq.normalize"))
	m.set("core.decompose_us", perQueryUS(spans, self, plans, "core.decompose"))
	m.set("eval.compile_us", perQueryUS(spans, self, plans, "eval.compile"))
	if planned > 0 {
		m.set("core.shard_scattered", float64(scattered)/float64(planned))
	}
	m.set("xdm.result_serialize_us", perQueryUS(spans, self, queries, "xdm.result_serialize"))
	m.set("peer.execute_plan_us", perQueryUS(spans, dur, queries, "peer.execute_plan"))
	m.set("peer.gather_self_us", perQueryUS(spans, self, queries, "peer.execute_plan"))
	m.set("peer.report_serde_us", median(st.serdeUS))
	m.set("peer.report_remote_exec_us", median(st.remoteUS))
	m.set("peer.network_modelled_us", median(st.modelledUS))
	m.set("service.overhead_us", m["service.query_us"]-m["peer.execute_plan_us"])
	m.set("xrpc.server_handle_us", perSpanUS(spans, self, "xrpc.lane"))
	m.set("xrpc.lane_sum_us", perQueryUS(spans, dur, queries, "xrpc.lane"))
	// Coverage is wall time: what the staged calls of an op account for on
	// the clock, lanes overlapping as they did, against the reference p50.
	// It is the op's root span minus the root's own self time (the glue
	// between the calls).
	var laneMax, coverage []float64
	lanes := 0
	for _, idx := range queries {
		longest := int64(0)
		for _, i := range idx {
			if spans[i].Name == "xrpc.lane" {
				lanes++
				longest = max(longest, dur[i])
			}
			if spans[i].Parent == 0 {
				coverage = append(coverage, float64(dur[i]-self[i])/1e6/refMS*100)
			}
		}
		if longest > 0 {
			laneMax = append(laneMax, float64(longest)/1e3)
		}
	}
	m.set("xrpc.lane_max_us", median(laneMax))
	m.set("xrpc.lanes_per_query", float64(lanes)/float64(st.ops))
	m.set("xrpc.stream_frames_per_query", float64(st.tf.tr.frames.Load())/float64(st.ops))
	m.set("xrpc.stream_first_frame_us", median(st.firstFrameUS))
	m.set("xrpc.retries", float64(st.retries))
	m.set("xrpc.hedges", float64(st.hedges))
	m.set("bench.coverage_pct", median(coverage))
	for _, name := range []string{"parse_request", "marshal_request", "marshal_response", "parse_response", "parse_chunk"} {
		m.set("xrpc."+name+"_us", perSpanUS(spans, self, "xrpc."+name))
	}
	m.set("eval.remote_fn_us", perSpanUS(spans, self, "eval.remote_fn"))
	if c := m["bench.coverage_pct"]; c < 85 || c > 115 {
		fmt.Fprintf(os.Stderr, "benchmark: %s: staged layers cover %.0f%% of the untraced p50 (%.3f ms): %.0f µs unaccounted\n",
			w.Name, c, refMS, (100-c)/100*refMS*1e3)
	}

	// --- the daemons: what real sockets and process boundaries add.
	if w.HTTP {
		if err := measureFleet(w, f, e, b.share(20), refMS, captured, st.tf.net, m, res, &fails); err != nil {
			return nil, err
		}
	}

	if err := os.MkdirAll(e.ResultsDir, 0o755); err != nil {
		return nil, err
	}
	if err := rec.write(filepath.Join(e.ResultsDir, "trace-"+w.Name+".json")); err != nil {
		return nil, err
	}
	res.Failed = fails.n
	return res, nil
}

func strategyKey(s core.Strategy) string {
	switch s {
	case core.DataShipping:
		return "data_shipping"
	case core.ByValue:
		return "by_value"
	case core.ByFragment:
		return "by_fragment"
	}
	return "by_projection"
}

// replayExchange times the codec and the remote evaluation of one captured
// lane through the exported functions the client and server call.
func replayExchange(rec *recorder, root, qid int, n *peer.Network, x exchange) error {
	var req *xrpc.Request
	var err error
	rec.time("xrpc.parse_request", root, qid, func() { req, err = xrpc.ParseRequest(x.Request) })
	if err != nil {
		return err
	}
	p, ok := n.Peer(x.Peer)
	if !ok {
		return fmt.Errorf("captured lane names unknown peer %s", x.Peer)
	}
	var module *xq.Query
	rec.time("xq.parse_module", root, qid, func() { module, err = xq.ParseQuery(req.Module + "\n0") })
	if err != nil {
		return err
	}
	var static *eval.StaticContext
	if req.Static != (eval.StaticContext{}) {
		static = &req.Static
	}
	resp := &xrpc.Response{Semantics: req.Semantics}
	rec.time("eval.remote_fn", root, qid, func() {
		for _, params := range req.Calls {
			var out xdm.Sequence
			if out, err = p.Engine.EvalFunctionDeadline(module, req.Method, params, static, time.Time{}); err != nil {
				return
			}
			resp.Results = append(resp.Results, out)
		}
	})
	if err != nil {
		return err
	}
	// The server's choice of response paths (xrpc.responsePaths).
	var used, returned projection.PathSet
	whole := projection.PathSet{}.Add(projection.Path{})
	if req.Semantics == xrpc.ByProjection {
		if used, returned = req.ResultUsed, req.ResultReturned; len(used) == 0 && len(returned) == 0 {
			returned = whole
		}
	}
	rec.time("xrpc.marshal_response", root, qid, func() { _, err = xrpc.MarshalResponse(resp, used, returned, projection.Options{}) })
	if err != nil {
		return err
	}
	// The parameters arrived already projected; shipping them whole again
	// costs what marshalling them did.
	params := make([]projection.PathSet, req.Arity)
	for i := range params {
		params[i] = whole
	}
	rec.time("xrpc.marshal_request", root, qid, func() { _, err = xrpc.MarshalRequest(req, nil, params, projection.Options{}) })
	if err != nil {
		return err
	}
	if x.Response != nil {
		rec.time("xrpc.parse_response", root, qid, func() { _, err = xrpc.ParseResponse(x.Response) })
	}
	for _, fr := range x.Frames {
		if err != nil {
			break
		}
		rec.time("xrpc.parse_chunk", root, qid, func() { _, err = xrpc.ParseResponseChunk(fr) })
	}
	return err
}

// measureXDM times the XML parser and serializer on the workload's people
// document and measures the heap a parsed document holds.
func measureXDM(d time.Duration, f *fixture, m layerMetrics) error {
	text := []byte(xdm.SerializeString(f.People.Root))
	var parseUS, serUS []float64
	var perr error
	repeat(d, 5, func(int) {
		t0 := time.Now()
		doc, err := xdm.ParseBytes(text, "bench")
		parseUS = append(parseUS, float64(time.Since(t0))/1e3)
		if err != nil {
			perr = err
			return
		}
		t0 = time.Now()
		_ = xdm.Serialize(io.Discard, doc.Root)
		serUS = append(serUS, float64(time.Since(t0))/1e3)
	})
	if perr != nil {
		return perr
	}
	mb := float64(len(text)) / 1e6
	m.set("xdm.parse_mb_s", mb/(median(parseUS)/1e6))
	m.set("xdm.serialize_mb_s", mb/(median(serUS)/1e6))
	const copies = 4
	before := heapAlloc()
	keep := make([]*xdm.Document, copies)
	for i := range keep {
		keep[i], _ = xdm.ParseBytes(text, "bench")
	}
	m.set("xdm.heap_bytes_per_xml_byte", (heapAlloc()-before)/float64(copies*len(text)))
	runtime.KeepAlive(keep)
	return nil
}

// measureLocalExec runs a local workload's pre-parsed round on a bare
// engine, tree-walking and compiled: evaluation alone, no service.
func measureLocalExec(d time.Duration, f *fixture, m layerMetrics) error {
	doc, err := xdm.ParseString(f.Docs[0].XML, f.Docs[0].Path)
	if err != nil {
		return err
	}
	for _, mode := range []struct {
		metric  string
		compile bool
	}{{"eval.exec_treewalk_us", false}, {"eval.exec_compiled_us", true}} {
		eng := eval.NewEngine(eval.ResolverFunc(func(string) (*xdm.Document, error) { return doc, nil }))
		eng.Options.Compile = mode.compile
		var round []*xq.Query
		for _, q := range f.Ops[0] {
			ast, err := xq.ParseQuery(q.Src)
			if err != nil {
				return err
			}
			if _, err := eng.Query(ast); err != nil { // normalizes, and compiles when asked to
				return err
			}
			round = append(round, ast)
		}
		var us []float64
		var evalErr error
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		rounds := repeat(d/2, 5, func(int) {
			t0 := time.Now()
			for _, ast := range round {
				if _, err := eng.Query(ast); err != nil {
					evalErr = err
				}
			}
			us = append(us, float64(time.Since(t0))/1e3)
		})
		runtime.ReadMemStats(&m1)
		if evalErr != nil {
			return evalErr
		}
		m.set(mode.metric, median(us))
		if !mode.compile {
			m.set("eval.exec_allocs", float64(m1.Mallocs-m0.Mallocs)/float64(rounds))
		}
	}
	return nil
}

// measureProjection times runtime projection of the young-person set out of
// the people document (the Fig. 10/11 set-up) and the share of the document
// it keeps.
func measureProjection(d time.Duration, f *fixture, m layerMetrics) error {
	var selected []*xdm.Node
	for _, p := range personsOf(f.People) {
		if ageOf(p) < youngAge {
			selected = append(selected, p)
		}
	}
	subtree := projection.PathSet{}.Add(projection.Path{Steps: []projection.PStep{{
		Axis: xq.AxisDescendantOrSelf, Test: xq.NodeTest{Kind: xq.TestAnyNode}}}})
	var us []float64
	var kept *projection.Projected
	var perr error
	repeat(d, 5, func(int) {
		t0 := time.Now()
		kept, perr = projection.RuntimeProject(selected, nil, subtree, f.People, projection.Options{KeepAllAttributes: true})
		us = append(us, float64(time.Since(t0))/1e3)
	})
	if perr != nil {
		return perr
	}
	m.set("projection.runtime_project_us", median(us))
	m.set("projection.kept_ratio", float64(xdm.SerializedSize(kept.Root))/float64(xdm.SerializedSize(f.People.Root)))
	return nil
}

// measureFleet runs the daemons for the numbers only they have: the client
// p50 against the in-process p50 on the same data, the CPU each process
// burns per query, and what an HTTP round trip adds to one lane.
func measureFleet(w *workload, f *fixture, e env, d time.Duration, refMS float64, captured []exchange,
	n *peer.Network, m layerMetrics, res *result, fails *failures) error {
	fl, err := setupFleet(w, f, e)
	if err != nil {
		return err
	}
	defer fl.close()
	var idx opCounter
	var p50s []float64
	ops := 0
	xqd0, peers0, err := fl.cpuSeconds()
	if err != nil {
		return err
	}
	repeat(d*3/4, 2, func(int) {
		p50s = append(p50s, percentile(timeOps(fl.do, &idx, w.OpsL/2, fails), 50))
		ops += w.OpsL / 2
	})
	xqd1, peers1, err := fl.cpuSeconds()
	if err != nil {
		return err
	}
	res.Attempted += ops
	m.set("xqd.http_overhead_us", (median(p50s)-refMS)*1e3)
	m.set("xqd.cpu_ms_per_query", (xqd1-xqd0)/float64(ops)*1e3)
	m.set("xqpeer.cpu_ms_per_query", (peers1-peers0)/float64(ops)*1e3)

	if len(captured) == 0 {
		return nil
	}
	x := captured[0]
	p, _ := n.Peer(x.Peer)
	srv := httptest.NewServer(xrpc.NewHTTPHandler(p.Server))
	defer srv.Close()
	ht := &xrpc.HTTPTransport{Client: srv.Client(), URLFor: func(string) string { return srv.URL }}
	var overHTTP, inMemory []float64
	var rerr error
	repeat(d/4, 20, func(int) {
		t0 := time.Now()
		if _, err := ht.RoundTrip(x.Peer, x.Request); err != nil {
			rerr = err
		}
		t1 := time.Now()
		if _, err := n.Transport.RoundTrip(x.Peer, x.Request); err != nil {
			rerr = err
		}
		overHTTP, inMemory = append(overHTTP, float64(t1.Sub(t0))/1e3), append(inMemory, float64(time.Since(t1))/1e3)
	})
	if rerr != nil {
		return rerr
	}
	m.set("xrpc.http_roundtrip_overhead_us", median(overHTTP)-median(inMemory))
	return nil
}
