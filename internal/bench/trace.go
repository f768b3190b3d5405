package bench

// This file holds the trace figure: the live end-to-end tracing run
// (FigTrace — a traced query through the service over a replicated scatter
// federation with one primary killed and a tight hedge trigger, validating
// the assembled cross-peer span tree) and the deterministic waterfall the
// figure prints (SimTraceFig — the same query shape priced on the netsim
// model, so the rendering is byte-stable for the golden test).

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"distxq/internal/core"
	"distxq/internal/netsim"
	"distxq/internal/service"
	"distxq/internal/trace"
	"distxq/internal/xdm"
	"distxq/internal/xrpc"
)

// TraceRow summarizes one live traced run for the figure and the acceptance
// test: the structural facts of the assembled span tree.
type TraceRow struct {
	Peers  int
	Killed string
	// Spans counts every span of the assembled tree; Attempts the per-lane
	// attempt spans; Winners the attempts tagged winner; RemotePeers the
	// distinct non-originator peers whose server-side spans were grafted in.
	Spans       int
	Attempts    int
	Winners     int
	Hedges      int
	Retries     int
	RemotePeers int
	// Connected is true when exactly one root exists and every other span's
	// parent is present — one tree, no orphans.
	Connected bool
	// OpenSpans and DoubleEnds are the invariant counters at snapshot time;
	// both must be zero.
	OpenSpans  int
	DoubleEnds int
	// ResultsEqual is true when the traced killed-primary run returned
	// byte-identical results to the untraced healthy run.
	ResultsEqual bool
	// Rec is the assembled tree; ChromeJSON its trace-event export.
	Rec        *trace.Recorded
	ChromeJSON []byte
}

// FigTrace runs the live tracing figure: a replicated scatter federation,
// the last primary killed, a deliberately tight hedge trigger, one traced
// query through the service (admission, plan, execute), and the assembled
// span tree pulled from the trace ring once every span has ended.
func FigTrace(totalBytes int64, peers int) (*TraceRow, error) {
	f := NewReplicatedScatterFixture(totalBytes, peers)
	healthy, _, err := f.Run(core.ByFragment)
	if err != nil {
		return nil, fmt.Errorf("trace healthy run: %w", err)
	}
	killed := f.Peers[len(f.Peers)-1]
	f.Net.KillPeer(killed)
	defer f.Net.RevivePeer(killed)
	svc := service.New(f.Net, f.Local, core.ByFragment, service.Config{Trace: true}).
		UseRetry(&xrpc.RetryPolicy{HedgeAfter: 200 * time.Microsecond})
	svc.Replicas = f.ShardMap.ReplicaSets()
	res, rep, err := svc.Query(f.Query, core.Budget{})
	if err != nil {
		return nil, fmt.Errorf("traced query with %s killed: %w", killed, err)
	}
	tr := svc.Traces.Last()
	if tr == nil {
		return nil, fmt.Errorf("trace ring is empty after a traced query")
	}
	// Losing attempts over the synchronous in-memory transport outlive the
	// query: they end their spans when their discarded exchange completes.
	// Wait for the tree to settle before snapshotting.
	deadline := time.Now().Add(10 * time.Second)
	for tr.OpenSpans() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	rec := tr.Snapshot()
	row := &TraceRow{
		Peers:        peers,
		Killed:       killed,
		Spans:        len(rec.Spans),
		OpenSpans:    rec.OpenSpans,
		DoubleEnds:   tr.DoubleEnds(),
		Retries:      int(rep.Retries),
		Hedges:       int(rep.Hedges),
		ResultsEqual: xdm.SequenceString(res) == xdm.SequenceString(healthy),
	}
	ids := map[trace.SpanID]bool{}
	for _, s := range rec.Spans {
		ids[s.ID] = true
	}
	roots := 0
	remotes := map[string]bool{}
	for _, s := range rec.Spans {
		if s.Parent == 0 {
			roots++
		} else if !ids[s.Parent] {
			roots = -len(rec.Spans) // orphan: force Connected false
		}
		switch s.Name {
		case "attempt":
			row.Attempts++
			if a, ok := s.Attr("winner"); ok && a.Int == 1 {
				row.Winners++
			}
		case "serve", "serve-stream":
			if s.Peer != "" && s.Peer != rec.Peer {
				remotes[s.Peer] = true
			}
		}
	}
	row.Connected = roots == 1
	row.RemotePeers = len(remotes)
	row.Rec = rec
	row.ChromeJSON, err = trace.ChromeTraceJSON(rec)
	if err != nil {
		return nil, fmt.Errorf("chrome export: %w", err)
	}
	return row, nil
}

// simSpans builds a Recorded span by span with explicit IDs and times.
type simSpans struct {
	rec  *trace.Recorded
	next trace.SpanID
}

func (b *simSpans) span(parent trace.SpanID, name, peer string, startNS, endNS int64, attrs ...trace.Attr) trace.SpanID {
	b.next++
	b.rec.Spans = append(b.rec.Spans, trace.Span{
		ID: b.next, Parent: parent, Name: name, Peer: peer,
		StartNS: startNS, EndNS: endNS, Attrs: attrs,
	})
	if endNS > b.rec.DurationNS {
		b.rec.DurationNS = endNS
	}
	return b.next
}

func (b *simSpans) fail(id trace.SpanID, msg string) {
	b.rec.Spans[int(id)-1].Error = msg
}

// SimTraceFig builds the deterministic waterfall the figure prints: the
// killed-primary hedged 4-peer scatter query priced on the netsim LAN model.
// Lane 3's primary straggles and loses to a hedge; lane 4's primary is dead
// and fails over to its replica. Server-side spans sit inside their winning
// attempt the way IngestRemote places them on a live run.
func SimTraceFig() *trace.Recorded {
	m := netsim.GigabitLAN()
	e := netsim.Exchange{ReqBytes: 2 << 10, RespBytes: 256 << 10}
	b := &simSpans{rec: &trace.Recorded{ID: 1, Peer: "local"}}

	us := func(n int64) int64 { return n * int64(time.Microsecond) }
	execNS := us(300)
	tl := m.Timeline(e, execNS)

	// serve adds one remote serve span (with shred and call children) inside
	// an attempt window, centered the way IngestRemote centers a one-exchange
	// estimate: the network time splits symmetrically around the server work.
	serve := func(attempt trace.SpanID, peer string, attStart, attEnd int64) {
		extent := tl.ExecDoneNS - tl.ReqDoneNS + us(40) // serve span: shred+exec+marshal
		off := attStart + (attEnd-attStart-extent)/2
		sv := b.span(attempt, "serve", peer, off, off+extent, trace.Str("method", "executeIterate"), trace.Int("calls", 1))
		b.span(sv, "shred", peer, off, off+us(20))
		b.span(sv, "call", peer, off+us(20), off+us(20)+execNS)
	}

	root := b.span(0, "query", "", 0, 0, trace.Str("strategy", "pass-by-fragment"))
	b.span(root, "admission", "", 0, us(20))
	plan := b.span(root, "plan", "", us(20), us(140), trace.Str("cache", "miss"))
	b.span(plan, "compile", "", us(30), us(130))
	exec := b.span(root, "execute", "", us(140), 0, trace.Str("strategy", "pass-by-fragment"), trace.Bool("streamed", false))
	scatter := b.span(exec, "scatter", "", us(150), 0, trace.Int("lanes", 4))

	lane := func(target string) trace.SpanID {
		return b.span(scatter, "lane", "", us(160), 0, trace.Str("target", target))
	}
	endLane := func(id trace.SpanID, endNS int64, winner string, replica, retries, hedges, wastedNS int64) {
		s := &b.rec.Spans[int(id)-1]
		s.EndNS = endNS
		s.Attrs = append(s.Attrs,
			trace.Str("winner-peer", winner), trace.Int("replica", replica),
			trace.Int("retries", retries), trace.Int("hedges", hedges),
			trace.Int("wasted_ns", wastedNS))
		if endNS > b.rec.DurationNS {
			b.rec.DurationNS = endNS
		}
	}

	// Lanes 1 and 2: the primary answers; their serve spans come back on the
	// response.
	for i, target := range []string{"peer1", "peer2"} {
		l := lane(target)
		end := us(160+int64(i)*15) + tl.RespDoneNS
		a := b.span(l, "attempt", "", us(160), end,
			trace.Str("peer", target), trace.Int("replica", 0), trace.Str("kind", "primary"),
			trace.Bool("winner", true))
		serve(a, target, us(160), end)
		endLane(l, end, target, 0, 0, 0, 0)
	}

	// Lane 3: the primary straggles (a 6 ms pause); the hedge fires at the
	// trigger, its replica answers first, and the straggler's late response
	// is discarded — its wall time is the lane's wasted spend.
	{
		l := lane("peer3")
		straggleEnd := us(160) + m.Timeline(e, us(6000)).RespDoneNS
		hedgeAt := us(160 + 1500)
		hedgeEnd := hedgeAt + tl.RespDoneNS
		p := b.span(l, "attempt", "", us(160), straggleEnd,
			trace.Str("peer", "peer3"), trace.Int("replica", 0), trace.Str("kind", "primary"))
		b.fail(p, "context canceled")
		h := b.span(l, "attempt", "", hedgeAt, hedgeEnd,
			trace.Str("peer", "rep3"), trace.Int("replica", 1), trace.Str("kind", "hedge"),
			trace.Bool("winner", true))
		serve(h, "rep3", hedgeAt, hedgeEnd)
		endLane(l, hedgeEnd, "rep3", 1, 0, 1, straggleEnd-us(160))
	}

	// Lane 4: the primary is dead — the transport refuses the exchange fast
	// — and the retry to the replica wins. No server span from the dead peer:
	// a host that never answered cannot piggyback one.
	{
		l := lane("peer4")
		failAt := us(160 + 50)
		p := b.span(l, "attempt", "", us(160), failAt,
			trace.Str("peer", "peer4"), trace.Int("replica", 0), trace.Str("kind", "primary"))
		b.fail(p, "xrpc: unknown peer \"peer4\"")
		retryAt := us(160 + 60)
		retryEnd := retryAt + tl.RespDoneNS
		r := b.span(l, "attempt", "", retryAt, retryEnd,
			trace.Str("peer", "rep4"), trace.Int("replica", 1), trace.Str("kind", "retry"),
			trace.Bool("winner", true))
		serve(r, "rep4", retryAt, retryEnd)
		endLane(l, retryEnd, "rep4", 1, 1, 0, failAt-us(160))
	}

	// Close the enclosing spans at the slowest lane plus a little local work.
	var slowest int64
	for _, s := range b.rec.Spans {
		if s.Name == "lane" && s.EndNS > slowest {
			slowest = s.EndNS
		}
	}
	b.rec.Spans[int(scatter)-1].EndNS = slowest
	b.rec.Spans[int(exec)-1].EndNS = slowest + us(120)
	b.rec.Spans[int(root)-1].EndNS = slowest + us(130)
	// The losing straggler outlives the query — the trace extent is the max
	// span end, exactly as Trace.Snapshot defines it.
	b.rec.DurationNS = 0
	for _, s := range b.rec.Spans {
		if s.EndNS > b.rec.DurationNS {
			b.rec.DurationNS = s.EndNS
		}
	}
	return b.rec
}

// PrintFigTrace renders a span tree as a text waterfall: one row per span in
// depth-first start order, the bar positioned on the trace's timeline.
func PrintFigTrace(w io.Writer, rec *trace.Recorded) {
	fmt.Fprintf(w, "Trace waterfall — trace %d, %d spans, %s total\n",
		rec.ID, len(rec.Spans), fmtNS(rec.DurationNS))
	children := map[trace.SpanID][]trace.Span{}
	var roots []trace.Span
	byID := map[trace.SpanID]bool{}
	for _, s := range rec.Spans {
		byID[s.ID] = true
	}
	for _, s := range rec.Spans {
		if s.Parent != 0 && byID[s.Parent] {
			children[s.Parent] = append(children[s.Parent], s)
		} else {
			roots = append(roots, s)
		}
	}
	order := func(spans []trace.Span) {
		sort.Slice(spans, func(i, j int) bool {
			if spans[i].StartNS != spans[j].StartNS {
				return spans[i].StartNS < spans[j].StartNS
			}
			return spans[i].ID < spans[j].ID
		})
	}
	order(roots)
	const cols = 40
	total := rec.DurationNS
	if total <= 0 {
		total = 1
	}
	fmt.Fprintf(w, "%-34s %-6s %9s %9s  %s\n", "span", "peer", "start", "dur", "timeline")
	var walk func(s trace.Span, depth int)
	walk = func(s trace.Span, depth int) {
		label := strings.Repeat("  ", depth) + s.Name
		if a, ok := s.Attr("peer"); ok {
			label += " " + a.Str
		} else if a, ok := s.Attr("target"); ok {
			label += " " + a.Str
		}
		if a, ok := s.Attr("kind"); ok {
			label += " (" + a.Str + ")"
		}
		if a, ok := s.Attr("winner"); ok && a.Int == 1 {
			label += " *"
		}
		if s.Error != "" {
			label += " !"
		}
		if len(label) > 34 {
			label = label[:33] + "…"
		}
		peer := s.Peer
		if peer == "" {
			peer = rec.Peer
		}
		from := int(s.StartNS * cols / total)
		to := int(s.EndNS * cols / total)
		if to <= from {
			to = from + 1
		}
		if to > cols {
			to = cols
		}
		bar := strings.Repeat(" ", from) + strings.Repeat("=", to-from) + strings.Repeat(" ", cols-to)
		fmt.Fprintf(w, "%-34s %-6s %9s %9s  |%s|\n",
			label, peer, fmtNS(s.StartNS), fmtNS(s.DurationNS()), bar)
		kids := children[s.ID]
		order(kids)
		for _, k := range kids {
			walk(k, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
}

// PrintFigTraceRow renders the live run's structural summary.
func PrintFigTraceRow(w io.Writer, totalBytes int64, row *TraceRow) {
	result := "DIVERGED"
	if row.ResultsEqual {
		result = "identical"
	}
	tree := "DISCONNECTED"
	if row.Connected {
		tree = "connected"
	}
	fmt.Fprintf(w, "Traced failover — sharded people (%s total) x2 replication, primary %s killed (live run)\n",
		fmtBytes(totalBytes), row.Killed)
	fmt.Fprintf(w, "%6s %6s %9s %8s %7s %6s %13s %10s\n",
		"peers", "spans", "attempts", "winners", "remote", "open", "tree", "results")
	fmt.Fprintf(w, "%6d %6d %9d %8d %7d %6d %13s %10s\n",
		row.Peers, row.Spans, row.Attempts, row.Winners, row.RemotePeers, row.OpenSpans, tree, result)
}
