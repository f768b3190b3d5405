// Package bench regenerates the evaluation of §VII: Figure 7 (bandwidth
// usage), Figure 8 (query time breakdown), Figure 9 (execution time
// scaling), and Figures 10/11 (runtime vs. compile-time projection precision
// and time). Each experiment returns structured rows that cmd/figures prints
// and bench_test.go drives under testing.B.
package bench

import (
	"fmt"
	"io"
	"time"

	"distxq/internal/core"
	"distxq/internal/peer"
	"distxq/internal/projection"
	"distxq/internal/xdm"
	"distxq/internal/xmark"
	"distxq/internal/xq"
)

// Strategies lists the four §VII strategies in presentation order.
var Strategies = []core.Strategy{
	core.DataShipping, core.ByValue, core.ByFragment, core.ByProjection,
}

// Fixture is a ready-to-query federation for one document scale.
type Fixture struct {
	Net        *peer.Network
	Local      *Peer
	TotalBytes int64
	Query      string
}

// Peer aliases peer.Peer for the harness API.
type Peer = peer.Peer

// NewFixture builds the three-peer XMark federation at roughly the given
// combined document size (the x-axis of Figures 7 and 9).
func NewFixture(totalBytes int64) *Fixture {
	cfg := xmark.ForSize(totalBytes)
	n := peer.NewNetwork()
	p1 := n.AddPeer("peer1")
	p2 := n.AddPeer("peer2")
	local := n.AddPeer("local")
	p1.AddDoc("xmk.xml", xmark.PeopleDocument(cfg, "xrpc://peer1/xmk.xml"))
	p2.AddDoc("xmk.auctions.xml", xmark.AuctionsDocument(cfg, "xrpc://peer2/xmk.auctions.xml"))
	return &Fixture{
		Net:        n,
		Local:      local,
		TotalBytes: p1.DocSize("xmk.xml") + p2.DocSize("xmk.auctions.xml"),
		Query:      xmark.BenchmarkQuery("peer1", "peer2"),
	}
}

// Run executes the benchmark query once under the strategy.
func (f *Fixture) Run(strat core.Strategy) (*peer.Report, error) {
	sess := f.Net.NewSession(f.Local, strat)
	_, rep, err := sess.Query(f.Query)
	return rep, err
}

// Row is one measurement of the Figure 7/8/9 experiments.
type Row struct {
	Strategy   core.Strategy
	DocsBytes  int64 // total size of source documents (x-axis)
	TotalBytes int64 // documents + messages transferred (Fig 7 y-axis)
	Report     *peer.Report
}

// DefaultSizes is the document-size sweep (combined bytes of both docs). The
// paper sweeps 20–320 MB on a cluster; the default here is laptop-scale with
// the same 2× progression; pass larger values to cmd/figures to scale up.
var DefaultSizes = []int64{1 << 17, 1 << 18, 1 << 19, 1 << 20, 1 << 21}

// Fig7Bandwidth measures total transferred data per strategy and size.
func Fig7Bandwidth(sizes []int64) ([][]Row, error) {
	var out [][]Row
	for _, size := range sizes {
		f := NewFixture(size)
		var rows []Row
		for _, s := range Strategies {
			rep, err := f.Run(s)
			if err != nil {
				return nil, fmt.Errorf("fig7 %s@%d: %w", s, size, err)
			}
			rows = append(rows, Row{Strategy: s, DocsBytes: f.TotalBytes,
				TotalBytes: rep.TotalBytes(), Report: rep})
		}
		out = append(out, rows)
	}
	return out, nil
}

// Fig8Breakdown measures the per-phase time breakdown at the largest size.
func Fig8Breakdown(size int64) ([]Row, error) {
	f := NewFixture(size)
	var rows []Row
	for _, s := range Strategies {
		rep, err := f.Run(s)
		if err != nil {
			return nil, fmt.Errorf("fig8 %s: %w", s, err)
		}
		rows = append(rows, Row{Strategy: s, DocsBytes: f.TotalBytes,
			TotalBytes: rep.TotalBytes(), Report: rep})
	}
	return rows, nil
}

// Fig9ExecTime reuses the Figure 7 sweep, reporting simulated total time.
func Fig9ExecTime(sizes []int64) ([][]Row, error) { return Fig7Bandwidth(sizes) }

// ProjRow is one measurement of the Figure 10/11 experiment.
type ProjRow struct {
	DocBytes        int64
	CompileTimeSize int64 // projected document size, compile-time technique
	RuntimeSize     int64 // projected document size, runtime technique
	CompileTimeNS   int64
	RuntimeNS       int64
}

// Fig10and11Projection compares compile-time against runtime projection on
// the people document: the query selects persons with age > 45, a predicate
// only the runtime technique can exploit (§VII "runtime projection
// precision").
func Fig10and11Projection(sizes []int64) ([]ProjRow, error) {
	var out []ProjRow
	for _, size := range sizes {
		cfg := xmark.ForSize(size * 2) // people doc is half the fixture
		doc := xmark.PeopleDocument(cfg, "xmk.xml")

		// Compile-time: absolute paths from the analysis — all persons and
		// their ages, descriptions included (no predicates expressible).
		personPath, err := projection.ParsePath(
			`child::site/child::people/child::person/descendant-or-self::node()`)
		if err != nil {
			return nil, err
		}
		agePath, err := projection.ParsePath(
			`child::site/child::people/child::person/descendant::age/descendant-or-self::node()`)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		ct, err := projection.CompileTimeProject(
			projection.PathSet{agePath}, projection.PathSet{personPath}, doc,
			projection.Options{KeepAllAttributes: true})
		if err != nil {
			return nil, err
		}
		ctNS := time.Since(t0).Nanoseconds()

		// Runtime: the materialized context sequence is the already-filtered
		// person set (age > 45); only those ship.
		t1 := time.Now()
		var selected []*xdm.Node
		doc.Root.WalkDescendants(func(n *xdm.Node) bool {
			if n.Kind == xdm.ElementNode && n.Name == "person" {
				for _, age := range ageOf(n) {
					if age > 45 {
						selected = append(selected, n)
					}
				}
				return true
			}
			return true
		})
		self := projection.PathSet{}.Add(projection.Path{Steps: []projection.PStep{{
			Axis: xq.AxisDescendantOrSelf, Test: xq.NodeTest{Kind: xq.TestAnyNode}}}})
		rt, err := projection.RuntimeProject(selected, nil, self, doc,
			projection.Options{KeepAllAttributes: true})
		if err != nil {
			return nil, err
		}
		rtNS := time.Since(t1).Nanoseconds()

		out = append(out, ProjRow{
			DocBytes:        xdm.SerializedSize(doc.Root),
			CompileTimeSize: xdm.SerializedSize(ct.Root),
			RuntimeSize:     xdm.SerializedSize(rt.Root),
			CompileTimeNS:   ctNS,
			RuntimeNS:       rtNS,
		})
	}
	return out, nil
}

func ageOf(person *xdm.Node) []int {
	var out []int
	person.WalkDescendants(func(m *xdm.Node) bool {
		if m.Kind == xdm.ElementNode && m.Name == "age" {
			var a int
			if _, err := fmt.Sscanf(m.StringValue(), "%d", &a); err == nil {
				out = append(out, a)
			}
		}
		return true
	})
	return out
}

// PrintFig7 renders the Figure 7 table.
func PrintFig7(w io.Writer, sweep [][]Row) {
	fmt.Fprintf(w, "Figure 7 — Bandwidth usage (documents + messages)\n")
	fmt.Fprintf(w, "%12s %16s %16s %16s %16s\n", "docs", "data-shipping", "by-value", "by-fragment", "by-projection")
	for _, rows := range sweep {
		fmt.Fprintf(w, "%12s", fmtBytes(rows[0].DocsBytes))
		for _, r := range rows {
			fmt.Fprintf(w, " %16s", fmtBytes(r.TotalBytes))
		}
		fmt.Fprintln(w)
	}
}

// PrintFig8 renders the Figure 8 breakdown table.
func PrintFig8(w io.Writer, rows []Row) {
	fmt.Fprintf(w, "Figure 8 — Query time breakdown at %s total data (simulated 1Gb/s LAN)\n",
		fmtBytes(rows[0].DocsBytes))
	fmt.Fprintf(w, "%16s %12s %12s %12s %12s %12s %12s\n",
		"strategy", "shred", "local exec", "(de)serialize", "remote exec", "network", "TOTAL")
	for _, r := range rows {
		rep := r.Report
		fmt.Fprintf(w, "%16s %12s %12s %12s %12s %12s %12s\n",
			r.Strategy,
			fmtNS(rep.ShredNS), fmtNS(rep.LocalExecNS), fmtNS(rep.SerdeNS),
			fmtNS(rep.RemoteExecNS), fmtNS(rep.NetworkNS), fmtNS(rep.TotalNS()))
	}
}

// PrintFig9 renders the Figure 9 table.
func PrintFig9(w io.Writer, sweep [][]Row) {
	fmt.Fprintf(w, "Figure 9 — Total execution time per query (simulated network)\n")
	fmt.Fprintf(w, "%12s %16s %16s %16s %16s\n", "docs", "data-shipping", "by-value", "by-fragment", "by-projection")
	for _, rows := range sweep {
		fmt.Fprintf(w, "%12s", fmtBytes(rows[0].DocsBytes))
		for _, r := range rows {
			fmt.Fprintf(w, " %16s", fmtNS(r.Report.TotalNS()))
		}
		fmt.Fprintln(w)
	}
}

// PrintFig10and11 renders the projection precision and time tables.
func PrintFig10and11(w io.Writer, rows []ProjRow) {
	fmt.Fprintf(w, "Figure 10 — Projected document size (compile-time vs runtime)\n")
	fmt.Fprintf(w, "%12s %16s %16s %10s\n", "doc", "compile-time", "runtime", "ratio")
	for _, r := range rows {
		ratio := float64(r.CompileTimeSize) / float64(max64(1, r.RuntimeSize))
		fmt.Fprintf(w, "%12s %16s %16s %9.1fx\n",
			fmtBytes(r.DocBytes), fmtBytes(r.CompileTimeSize), fmtBytes(r.RuntimeSize), ratio)
	}
	fmt.Fprintf(w, "Figure 11 — Projection execution time\n")
	fmt.Fprintf(w, "%12s %16s %16s\n", "doc", "compile-time", "runtime")
	for _, r := range rows {
		fmt.Fprintf(w, "%12s %16s %16s\n", fmtBytes(r.DocBytes), fmtNS(r.CompileTimeNS), fmtNS(r.RuntimeNS))
	}
}

func fmtBytes(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.2fMB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

func fmtNS(ns int64) string {
	d := time.Duration(ns)
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.0fµs", float64(d)/float64(time.Microsecond))
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// ------------------------------------------------------- scatter-gather ----

// ScatterFixture is a federation with the people document partitioned
// horizontally across N peers, for the concurrent scatter-gather experiment:
// a variable-target loop queries every shard in place and gathers per-peer
// results in one concurrent wave.
type ScatterFixture struct {
	Net        *peer.Network
	Local      *Peer
	Peers      []string
	Query      string
	TotalBytes int64
	// ShardMap registers the federation as one logical document for the
	// shard-aware planner experiment (RunLogical).
	ShardMap core.ShardMap
}

// NewScatterFixture shards roughly totalBytes of people data across the
// given number of peers.
func NewScatterFixture(totalBytes int64, peers int) *ScatterFixture {
	cfg := xmark.ForSize(totalBytes * 2) // people doc is half of a fixture
	n := peer.NewNetwork()
	f := &ScatterFixture{Net: n}
	for i := 0; i < peers; i++ {
		name := fmt.Sprintf("peer%d", i+1)
		p := n.AddPeer(name)
		p.AddDoc("xmk.xml", xmark.PeopleShardDocument(cfg, i, peers, "xrpc://"+name+"/xmk.xml"))
		f.Peers = append(f.Peers, name)
		f.TotalBytes += p.DocSize("xmk.xml")
	}
	f.Local = n.AddPeer("local")
	f.Query = xmark.ScatterQuery(f.Peers)
	f.ShardMap = xmark.PeopleShardMap(f.Peers)
	return f
}

// Run executes the scatter query once.
func (f *ScatterFixture) Run(strat core.Strategy) (xdm.Sequence, *peer.Report, error) {
	return f.Net.NewSession(f.Local, strat).Query(f.Query)
}

// RunLogical executes the same workload written against the logical document
// (no hand-written `execute at`); the shard-aware planner must synthesize the
// scatter plan.
func (f *ScatterFixture) RunLogical(strat core.Strategy) (xdm.Sequence, *peer.Report, error) {
	sess := f.Net.NewSession(f.Local, strat).UseShards(f.ShardMap)
	return sess.Query(xmark.LogicalScatterQuery())
}

// RunStreamed executes the scatter query with streamed dispatch: per-peer
// results arrive as chunk frames consumed in loop order instead of whole
// gathered responses.
func (f *ScatterFixture) RunStreamed(strat core.Strategy) (xdm.Sequence, *peer.Report, error) {
	sess := f.Net.NewSession(f.Local, strat)
	sess.Streamed = true
	return sess.Query(f.Query)
}

// ScatterRow is one measurement of the scatter-gather experiment.
type ScatterRow struct {
	Peers        int
	Requests     int64
	Parallelism  int
	SerialNetNS  int64 // serial-sum network model (the baseline)
	OverlapNetNS int64 // per-wave-max network model (concurrent dispatch)
	MaxPeerNS    int64 // slowest peer's network + remote exec (critical path)
	Speedup      float64
}

// FigScatter sweeps peer counts at a fixed total data size and reports the
// overlapped vs. serial network cost of the scatter wave.
func FigScatter(totalBytes int64, peerCounts []int) ([]ScatterRow, error) {
	var out []ScatterRow
	for _, pc := range peerCounts {
		f := NewScatterFixture(totalBytes, pc)
		_, rep, err := f.Run(core.ByFragment)
		if err != nil {
			return nil, fmt.Errorf("scatter %d peers: %w", pc, err)
		}
		row := ScatterRow{
			Peers:        pc,
			Requests:     rep.Requests,
			Parallelism:  rep.Parallelism,
			SerialNetNS:  rep.SerialNetworkNS,
			OverlapNetNS: rep.NetworkNS,
			MaxPeerNS:    rep.MaxPeerNS,
		}
		if row.OverlapNetNS > 0 {
			row.Speedup = float64(row.SerialNetNS) / float64(row.OverlapNetNS)
		}
		out = append(out, row)
	}
	return out, nil
}

// PrintFigScatter renders the scatter-gather table.
func PrintFigScatter(w io.Writer, totalBytes int64, rows []ScatterRow) {
	fmt.Fprintf(w, "Scatter-gather — sharded people document (%s total), one Bulk RPC per peer\n",
		fmtBytes(totalBytes))
	fmt.Fprintf(w, "%6s %9s %12s %14s %14s %14s %9s\n",
		"peers", "requests", "parallelism", "serial net", "overlap net", "max peer", "speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%6d %9d %12d %14s %14s %14s %8.2fx\n",
			r.Peers, r.Requests, r.Parallelism,
			fmtNS(r.SerialNetNS), fmtNS(r.OverlapNetNS), fmtNS(r.MaxPeerNS), r.Speedup)
	}
}

// StreamRow is one measurement of the streaming XRPC experiment: the same
// sharded scatter workload dispatched gather-whole and streamed, under the
// netsim pipeline model (server compute, transfer and originator decode
// overlapping chunk by chunk).
type StreamRow struct {
	Peers  int
	Chunks int64 // response chunk frames received by the streamed run
	// Gather-whole baseline: no result usable before the slowest lane's
	// whole response arrived and was decoded. GatherFirstNS comes from the
	// gather-whole run; GatherTotalNS is the same-trace counterfactual —
	// the gather-whole model applied to the streamed run's measured lanes —
	// so the total-time comparison contrasts the two models on identical
	// measured compute/transfer/decode costs instead of on two noisy runs.
	GatherFirstNS int64
	GatherTotalNS int64
	// Streamed: first chunk of the fastest lane / last chunk of the slowest.
	StreamFirstNS int64
	StreamTotalNS int64
	FirstSpeedup  float64
	TotalSpeedup  float64
	// ResultsEqual: the streamed run's serialized result is byte-identical
	// to the gather-whole run's.
	ResultsEqual bool
}

// StreamReps is how often FigStream repeats each configuration, keeping the
// fastest run per mode: the netsim pipeline model consumes single-shot wall
// measurements (per-call evaluation, per-chunk decode), so the minimum is
// the standard de-noising for the comparison.
var StreamReps = 5

// FigStream sweeps peer counts at a fixed total data size, comparing
// gather-whole against streamed scatter on the sharded people document.
func FigStream(totalBytes int64, peerCounts []int) ([]StreamRow, error) {
	var out []StreamRow
	for _, pc := range peerCounts {
		f := NewScatterFixture(totalBytes, pc)
		row := StreamRow{Peers: pc, ResultsEqual: true}
		var gSer, sSer string
		for rep := 0; rep < StreamReps; rep++ {
			gRes, gRep, err := f.Run(core.ByFragment)
			if err != nil {
				return nil, fmt.Errorf("stream %d peers (gather): %w", pc, err)
			}
			sRes, sRep, err := f.RunStreamed(core.ByFragment)
			if err != nil {
				return nil, fmt.Errorf("stream %d peers (streamed): %w", pc, err)
			}
			if rep == 0 {
				gSer, sSer = xdm.SequenceString(gRes), xdm.SequenceString(sRes)
				row.ResultsEqual = gSer == sSer
				row.Chunks = sRep.StreamedChunks
			}
			if rep == 0 || gRep.FirstResultNS < row.GatherFirstNS {
				row.GatherFirstNS = gRep.FirstResultNS
			}
			// Per-rep GatherNS ≥ PipelineNS (same lanes, no overlap), so
			// taking each minimum independently preserves the inequality.
			if rep == 0 || sRep.GatherNS < row.GatherTotalNS {
				row.GatherTotalNS = sRep.GatherNS
			}
			if rep == 0 || sRep.FirstResultNS < row.StreamFirstNS {
				row.StreamFirstNS = sRep.FirstResultNS
			}
			if rep == 0 || sRep.PipelineNS < row.StreamTotalNS {
				row.StreamTotalNS = sRep.PipelineNS
			}
		}
		if row.StreamFirstNS > 0 {
			row.FirstSpeedup = float64(row.GatherFirstNS) / float64(row.StreamFirstNS)
		}
		if row.StreamTotalNS > 0 {
			row.TotalSpeedup = float64(row.GatherTotalNS) / float64(row.StreamTotalNS)
		}
		out = append(out, row)
	}
	return out, nil
}

// PrintFigStream renders the streaming experiment table.
func PrintFigStream(w io.Writer, totalBytes int64, rows []StreamRow) {
	fmt.Fprintf(w, "Streaming XRPC — sharded people document (%s total), streamed vs gather-whole scatter\n",
		fmtBytes(totalBytes))
	fmt.Fprintf(w, "%6s %7s %13s %13s %8s %13s %13s %8s %6s\n",
		"peers", "chunks", "first/gather", "first/stream", "speedup",
		"total/gather", "total/stream", "speedup", "equal")
	for _, r := range rows {
		fmt.Fprintf(w, "%6d %7d %13s %13s %7.2fx %13s %13s %7.2fx %6v\n",
			r.Peers, r.Chunks,
			fmtNS(r.GatherFirstNS), fmtNS(r.StreamFirstNS), r.FirstSpeedup,
			fmtNS(r.GatherTotalNS), fmtNS(r.StreamTotalNS), r.TotalSpeedup,
			r.ResultsEqual)
	}
}

// ShardRow is one measurement of the shard-aware planner experiment: the
// hand-written scatter query against the planner-produced plan for the same
// workload stated over the logical document.
type ShardRow struct {
	Peers        int
	HandRequests int64
	PlanRequests int64
	HandWaves    int64
	PlanWaves    int64
	Parallelism  int
	Scattered    bool
	ResultsEqual bool
}

// FigShard sweeps peer counts and checks the planner-produced scatter plan
// dispatches exactly like the hand-written one (same requests, same wave
// structure, identical results).
func FigShard(totalBytes int64, peerCounts []int) ([]ShardRow, error) {
	var out []ShardRow
	for _, pc := range peerCounts {
		f := NewScatterFixture(totalBytes, pc)
		handRes, handRep, err := f.Run(core.ByFragment)
		if err != nil {
			return nil, fmt.Errorf("shard %d peers (hand-written): %w", pc, err)
		}
		planRes, planRep, err := f.RunLogical(core.ByFragment)
		if err != nil {
			return nil, fmt.Errorf("shard %d peers (planner): %w", pc, err)
		}
		scattered := len(planRep.Shards) > 0 && planRep.Shards[0].Scattered
		out = append(out, ShardRow{
			Peers:        pc,
			HandRequests: handRep.Requests,
			PlanRequests: planRep.Requests,
			HandWaves:    handRep.Waves,
			PlanWaves:    planRep.Waves,
			Parallelism:  planRep.Parallelism,
			Scattered:    scattered,
			ResultsEqual: xdm.SequenceString(handRes) == xdm.SequenceString(planRes),
		})
	}
	return out, nil
}

// PrintFigShard renders the shard-aware planner table.
func PrintFigShard(w io.Writer, totalBytes int64, rows []ShardRow) {
	fmt.Fprintf(w, "Shard-aware planner — logical people document (%s total), planner vs hand-written scatter\n",
		fmtBytes(totalBytes))
	fmt.Fprintf(w, "%6s %15s %12s %12s %10s %8s\n",
		"peers", "requests(h/p)", "waves(h/p)", "parallelism", "decision", "equal")
	for _, r := range rows {
		decision := "fallback"
		if r.Scattered {
			decision = "scatter"
		}
		fmt.Fprintf(w, "%6d %15s %12s %12d %10s %8v\n",
			r.Peers,
			fmt.Sprintf("%d/%d", r.HandRequests, r.PlanRequests),
			fmt.Sprintf("%d/%d", r.HandWaves, r.PlanWaves),
			r.Parallelism, decision, r.ResultsEqual)
	}
}
