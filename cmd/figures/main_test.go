package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"distxq/internal/bench"
	"distxq/internal/trace"
	"distxq/internal/xrpc"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// checkGolden compares rendered report output against the checked-in golden
// file, so formatting changes are deliberate (run with -update to accept).
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./cmd/figures -update` to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestFigScatterGolden locks in the scatter report formatting with synthetic
// (deterministic) measurements — live timings vary, the layout must not.
func TestFigScatterGolden(t *testing.T) {
	rows := []bench.ScatterRow{
		{Peers: 1, Requests: 1, Parallelism: 1, SerialNetNS: 2_500_000, OverlapNetNS: 2_500_000, MaxPeerNS: 2_600_000, Speedup: 1},
		{Peers: 2, Requests: 2, Parallelism: 2, SerialNetNS: 2_600_000, OverlapNetNS: 1_350_000, MaxPeerNS: 1_400_000, Speedup: 1.93},
		{Peers: 4, Requests: 4, Parallelism: 4, SerialNetNS: 2_800_000, OverlapNetNS: 720_000, MaxPeerNS: 760_000, Speedup: 3.89},
		{Peers: 8, Requests: 8, Parallelism: 8, SerialNetNS: 3_100_000, OverlapNetNS: 390_000, MaxPeerNS: 410_000, Speedup: 7.95},
	}
	var buf bytes.Buffer
	bench.PrintFigScatter(&buf, 1<<21, rows)
	checkGolden(t, "fig_scatter.golden", buf.Bytes())
}

// TestFigShardGolden locks in the shard-aware planner report formatting.
func TestFigShardGolden(t *testing.T) {
	rows := []bench.ShardRow{
		{Peers: 1, HandRequests: 1, PlanRequests: 1, HandWaves: 1, PlanWaves: 1, Parallelism: 1, Scattered: true, ResultsEqual: true},
		{Peers: 2, HandRequests: 2, PlanRequests: 2, HandWaves: 1, PlanWaves: 1, Parallelism: 2, Scattered: true, ResultsEqual: true},
		{Peers: 4, HandRequests: 4, PlanRequests: 4, HandWaves: 1, PlanWaves: 1, Parallelism: 4, Scattered: true, ResultsEqual: true},
		{Peers: 8, HandRequests: 8, PlanRequests: 8, HandWaves: 1, PlanWaves: 1, Parallelism: 8, Scattered: true, ResultsEqual: true},
	}
	var buf bytes.Buffer
	bench.PrintFigShard(&buf, 1<<21, rows)
	checkGolden(t, "fig_shard.golden", buf.Bytes())
}

// TestFigStreamGolden locks in the streaming report formatting with
// synthetic (deterministic) measurements.
func TestFigStreamGolden(t *testing.T) {
	rows := []bench.StreamRow{
		{Peers: 1, Chunks: 29, GatherFirstNS: 4_960_000, StreamFirstNS: 2_080_000, FirstSpeedup: 2.38,
			GatherTotalNS: 5_510_000, StreamTotalNS: 4_960_000, TotalSpeedup: 1.11, ResultsEqual: true},
		{Peers: 2, Chunks: 30, GatherFirstNS: 2_150_000, StreamFirstNS: 1_220_000, FirstSpeedup: 1.76,
			GatherTotalNS: 4_800_000, StreamTotalNS: 3_560_000, TotalSpeedup: 1.35, ResultsEqual: true},
		{Peers: 4, Chunks: 32, GatherFirstNS: 1_330_000, StreamFirstNS: 782_000, FirstSpeedup: 1.71,
			GatherTotalNS: 2_600_000, StreamTotalNS: 1_830_000, TotalSpeedup: 1.42, ResultsEqual: true},
		{Peers: 8, Chunks: 32, GatherFirstNS: 885_000, StreamFirstNS: 634_000, FirstSpeedup: 1.40,
			GatherTotalNS: 1_520_000, StreamTotalNS: 1_400_000, TotalSpeedup: 1.09, ResultsEqual: true},
	}
	var buf bytes.Buffer
	bench.PrintFigStream(&buf, 1<<21, rows)
	checkGolden(t, "fig_stream.golden", buf.Bytes())
}

// TestFigStreamLive drives the real streaming experiment at a small size:
// streamed results must be byte-identical to gather-whole, several chunk
// frames must actually flow, the first result must be available before the
// gather-whole baseline has even completed, and the streamed pipeline must
// complete strictly below the gather-whole model of the same lanes.
func TestFigStreamLive(t *testing.T) {
	old := bench.StreamReps
	bench.StreamReps = 1
	defer func() { bench.StreamReps = old }()
	rows, err := bench.FigStream(1<<19, []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !r.ResultsEqual {
			t.Fatalf("streamed result diverged from gather-whole: %+v", r)
		}
		if r.Chunks < int64(r.Peers)+2 {
			t.Fatalf("only %d chunk frames at %d peers — streaming did not chunk", r.Chunks, r.Peers)
		}
		if r.StreamFirstNS >= r.GatherTotalNS {
			t.Fatalf("first streamed result (%dns) not before gather completion (%dns): %+v",
				r.StreamFirstNS, r.GatherTotalNS, r)
		}
		if r.StreamTotalNS >= r.GatherTotalNS {
			t.Fatalf("streamed total %dns not strictly below gather-whole %dns: %+v",
				r.StreamTotalNS, r.GatherTotalNS, r)
		}
	}
}

// TestFigIncrementalGolden locks in the incremental-evaluation report
// formatting with synthetic (deterministic) measurements.
func TestFigIncrementalGolden(t *testing.T) {
	rows := []bench.IncRow{
		{DocBytes: 1 << 19, Items: 310, Chunks: 11, EagerFirstNS: 3_400_000, IncFirstNS: 690_000,
			FirstSpeedup: 4.93, EagerPeakItems: 310, IncPeakItems: 32, ResultsEqual: true},
		{DocBytes: 1 << 20, Items: 640, Chunks: 21, EagerFirstNS: 6_900_000, IncFirstNS: 710_000,
			FirstSpeedup: 9.72, EagerPeakItems: 640, IncPeakItems: 32, ResultsEqual: true},
	}
	var buf bytes.Buffer
	bench.PrintFigIncremental(&buf, rows)
	checkGolden(t, "fig_incremental.golden", buf.Bytes())
}

// TestFigIncrementalLive drives the real single-huge-call experiment: the
// incremental server must charge its first frame an integer factor less
// server evaluation than the eager baseline, with peak buffering bounded by
// one frame instead of the whole call, and byte-identical results. The
// modelled first-result speedup is printed, not asserted: netsim's round
// trip is in both of its terms, so its margin over 2 measured how slow the
// eager side's executor was, not what streaming changes.
func TestFigIncrementalLive(t *testing.T) {
	old := bench.StreamReps
	bench.StreamReps = 3
	defer func() { bench.StreamReps = old }()
	rows, err := bench.FigIncremental([]int64{1 << 21})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !r.ResultsEqual {
			t.Fatalf("incremental result diverged from eager: %+v", r)
		}
		if r.Chunks < 4 {
			t.Fatalf("only %d chunks — the call is not huge relative to the frame budget: %+v", r.Chunks, r)
		}
		if r.IncPeakItems > int64(xrpc.DefaultChunkItems) {
			t.Fatalf("incremental peak %d items exceeds one frame (%d): %+v",
				r.IncPeakItems, xrpc.DefaultChunkItems, r)
		}
		if r.EagerPeakItems < r.Items {
			t.Fatalf("eager peak %d items below the call's %d — baseline not buffering whole call: %+v",
				r.EagerPeakItems, r.Items, r)
		}
		if r.IncFirstExecNS <= 0 || r.EagerFirstExecNS < 2*r.IncFirstExecNS {
			t.Fatalf("first-frame evaluation %dns eager vs %dns incremental: below an integer factor: %+v",
				r.EagerFirstExecNS, r.IncFirstExecNS, r)
		}
	}
}

// TestFigHedgeGolden locks in the hedged-scatter report. Unlike the timing
// figures, FigHedge is a deterministic netsim-model computation (seeded
// draws, simulated time only), so the golden covers the real numbers, not
// just the layout.
func TestFigHedgeGolden(t *testing.T) {
	cfg := bench.DefaultHedgeConfig()
	rows := bench.FigHedge(cfg, bench.DefaultHedgeAfters)
	var buf bytes.Buffer
	bench.PrintFigHedge(&buf, cfg, rows)
	checkGolden(t, "fig_hedge.golden", buf.Bytes())
}

// TestFigFailoverGolden locks in the live failover report; every printed
// field (retries, winner, result equality) is deterministic even though the
// run is real.
func TestFigFailoverGolden(t *testing.T) {
	row, err := bench.FigFailover(1<<19, 4)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	bench.PrintFigFailover(&buf, 1<<19, row)
	checkGolden(t, "fig_failover.golden", buf.Bytes())
}

// TestFigHedgeLive asserts the acceptance property of the tail-tolerance
// figure: on the straggler scenario, hedged P99 is strictly below the
// no-hedge baseline at every swept deadline, hedges actually fire, and the
// live failover run answers byte-identically through the replica.
func TestFigHedgeLive(t *testing.T) {
	rows := bench.FigHedge(bench.DefaultHedgeConfig(), bench.DefaultHedgeAfters)
	if len(rows) == 0 {
		t.Fatal("no hedge rows")
	}
	for _, r := range rows {
		if r.HedgedP99NS >= r.BaseP99NS {
			t.Errorf("hedge-after %dns: hedged P99 %dns not strictly below baseline %dns",
				r.HedgeAfterNS, r.HedgedP99NS, r.BaseP99NS)
		}
		if r.Hedges == 0 {
			t.Errorf("hedge-after %dns: no hedges fired — the scenario exercises nothing", r.HedgeAfterNS)
		}
		if r.Hedges > 0 && r.WastedNS == 0 {
			t.Errorf("hedge-after %dns: hedges fired but no wasted time accounted", r.HedgeAfterNS)
		}
	}
	row, err := bench.FigFailover(1<<18, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !row.ResultsEqual {
		t.Fatalf("failover run diverged from the healthy run: %+v", row)
	}
	if row.Retries < 1 || row.Winner == "" {
		t.Fatalf("failover run did not record the replica win: %+v", row)
	}
}

// TestFigTopologyGolden locks in the churn-routing report. FigTopology is a
// deterministic netsim-model computation (seeded draws, simulated time
// only), so the golden covers the real numbers, not just the layout.
func TestFigTopologyGolden(t *testing.T) {
	cfg := bench.DefaultTopologyConfig()
	rows := bench.FigTopology(cfg, bench.DefaultTopologyChurn)
	var buf bytes.Buffer
	bench.PrintFigTopology(&buf, cfg, rows)
	checkGolden(t, "fig_topology.golden", buf.Bytes())
}

// TestFigTopologyAcceptance asserts the routing claim behind the figure: at
// every churn level with faults present, contention-aware routing beats the
// contention-blind baseline on gather-side P99, the blind baseline pays real
// duplicate bytes and detection stalls, and with no churn the two disciplines
// price essentially alike (the model does not bake in an advantage).
func TestFigTopologyAcceptance(t *testing.T) {
	rows := bench.FigTopology(bench.DefaultTopologyConfig(), bench.DefaultTopologyChurn)
	if len(rows) < 2 {
		t.Fatal("no churn sweep")
	}
	for _, r := range rows {
		if r.Churn.DeadPct == 0 && r.Churn.SlowPct == 0 {
			// Calm: within 5% of each other.
			if diff := r.BlindP99NS - r.AwareP99NS; diff < 0 || diff > r.BlindP99NS/20 {
				t.Errorf("calm level: blind P99 %dns vs aware %dns — disciplines should price alike",
					r.BlindP99NS, r.AwareP99NS)
			}
			continue
		}
		if r.AwareP99NS >= r.BlindP99NS {
			t.Errorf("%s: aware P99 %dns not below blind %dns", r.Churn.Name, r.AwareP99NS, r.BlindP99NS)
		}
		if r.DupBytes == 0 || r.Timeouts == 0 {
			t.Errorf("%s: blind paid no duplicates (%d bytes) or stalls (%d) — scenario exercises nothing",
				r.Churn.Name, r.DupBytes, r.Timeouts)
		}
	}
}

// TestFigTraceGolden locks in the trace-waterfall rendering. SimTraceFig is
// a deterministic netsim-model computation (simulated time only), so the
// golden covers the real span times, not just the layout.
func TestFigTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	bench.PrintFigTrace(&buf, bench.SimTraceFig())
	checkGolden(t, "fig_trace.golden", buf.Bytes())
}

// TestFigTraceChromeGolden locks in the Chrome trace-event export of the
// simulated waterfall — the JSON must stay loadable by chrome://tracing.
func TestFigTraceChromeGolden(t *testing.T) {
	b, err := trace.ChromeTraceJSON(bench.SimTraceFig())
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatalf("chrome export does not parse: %v", err)
	}
	if len(f.TraceEvents) == 0 {
		t.Fatal("chrome export has no events")
	}
	checkGolden(t, "fig_trace_chrome.json.golden", b)
}

// TestFigTraceLive asserts the acceptance property of the tracing tentpole:
// one traced query over a killed-primary hedged scatter yields one connected
// span tree holding admission and plan spans, every lane attempt with a
// winner tag on the survivors, server-side spans from at least two live
// peers, zero leaked or double-ended spans, a valid Chrome export, and
// byte-identical results to the untraced healthy run.
func TestFigTraceLive(t *testing.T) {
	row, err := bench.FigTrace(1<<18, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !row.Connected {
		t.Errorf("span tree is not one connected tree: %d spans", row.Spans)
	}
	if row.OpenSpans != 0 || row.DoubleEnds != 0 {
		t.Errorf("span lifecycle invariants violated: open=%d doubleEnds=%d", row.OpenSpans, row.DoubleEnds)
	}
	if !row.ResultsEqual {
		t.Error("traced killed-primary run diverged from the untraced healthy run")
	}
	if row.Winners != row.Peers {
		t.Errorf("winners = %d, want one per lane (%d)", row.Winners, row.Peers)
	}
	if row.Attempts <= row.Peers {
		t.Errorf("attempts = %d over %d lanes — the killed primary forced no failover attempt",
			row.Attempts, row.Peers)
	}
	if row.RemotePeers < 2 {
		t.Errorf("server-side spans from %d peers, want >= 2", row.RemotePeers)
	}
	names := map[string]bool{}
	for _, s := range row.Rec.Spans {
		names[s.Name] = true
	}
	for _, want := range []string{"query", "admission", "plan", "execute", "scatter", "lane", "attempt", "serve"} {
		if !names[want] {
			t.Errorf("assembled tree is missing a %q span", want)
		}
	}
	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(row.ChromeJSON, &f); err != nil {
		t.Fatalf("live chrome export does not parse: %v", err)
	}
	if len(f.TraceEvents) < row.Spans {
		t.Errorf("chrome export has %d events for %d spans", len(f.TraceEvents), row.Spans)
	}
}

// TestFigLoadGolden locks in the sustained-load report formatting with
// synthetic (deterministic) measurements — live timings vary, the layout
// must not.
func TestFigLoadGolden(t *testing.T) {
	cfg := bench.DefaultLoadConfig()
	rows := []bench.LoadRow{
		{Multiplier: 0.5, OfferedQPS: 100, GoodputQPS: 100, ShedRate: 0, P50NS: 11_000_000, P99NS: 14_000_000},
		{Multiplier: 1, OfferedQPS: 195, GoodputQPS: 182, ShedRate: 0.07, P50NS: 12_800_000, P99NS: 15_700_000, RejectP99NS: 5_700_000},
		{Multiplier: 2, OfferedQPS: 382, GoodputQPS: 185, ShedRate: 0.52, P50NS: 13_900_000, P99NS: 15_800_000, RejectP99NS: 6_100_000},
		{Multiplier: 4, OfferedQPS: 782, GoodputQPS: 184, ShedRate: 0.76, P50NS: 13_400_000, P99NS: 16_000_000, RejectP99NS: 6_100_000},
	}
	var buf bytes.Buffer
	bench.PrintFigLoad(&buf, cfg, rows)
	checkGolden(t, "fig_load.golden", buf.Bytes())
}

// TestFigLoadLive drives a short real sweep and asserts the degradation
// shape: under capacity nothing sheds, past the knee the excess sheds while
// goodput holds (no collapse) and the admitted tail stays bounded.
func TestFigLoadLive(t *testing.T) {
	cfg := bench.DefaultLoadConfig()
	cfg.Window = 150 * time.Millisecond
	cfg.Multipliers = []float64{0.5, 4}
	rows, err := bench.FigLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	under, over := rows[0], rows[1]
	if under.Failed != 0 || over.Failed != 0 {
		t.Fatalf("queries failed outright: under=%d over=%d", under.Failed, over.Failed)
	}
	if under.ShedRate != 0 {
		t.Errorf("shedding below capacity: %v", under.ShedRate)
	}
	if over.ShedRate == 0 {
		t.Error("no shedding at 4x capacity — admission control exercised nothing")
	}
	if under.GoodputQPS > 0 && over.GoodputQPS < under.GoodputQPS/2 {
		t.Errorf("goodput collapsed under overload: %.0f/s vs %.0f/s under capacity",
			over.GoodputQPS, under.GoodputQPS)
	}
	if over.P99NS > 5*under.P99NS {
		t.Errorf("admitted P99 blew up under overload: %dns vs %dns", over.P99NS, under.P99NS)
	}
}

// TestBenchJSON locks the machine-readable (-json) schema: points from each
// contributing figure land with their metric fields and omit the rest.
func TestBenchJSON(t *testing.T) {
	s := newJSONSink()
	s.addScatter(1<<21, []bench.ScatterRow{{Peers: 2, MaxPeerNS: 1_400_000}})
	s.addHedge([]bench.HedgeRow{{HedgeAfterNS: 2_000_000, HedgedP50NS: 1_000_000, HedgedP99NS: 3_000_000, Hedges: 7}})
	s.addLoad([]bench.LoadRow{{Multiplier: 2, OfferedQPS: 382, GoodputQPS: 185, ShedRate: 0.52,
		P50NS: 13_900_000, P99NS: 15_800_000, RejectP99NS: 6_100_000, Hedges: 3}})
	b, err := s.marshal()
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Schema string           `json:"schema"`
		Points []map[string]any `json:"points"`
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatalf("emitted JSON does not parse: %v", err)
	}
	if rep.Schema != "distxq/bench/v1" {
		t.Errorf("schema = %q", rep.Schema)
	}
	if len(rep.Points) != 3 {
		t.Fatalf("points = %d, want 3", len(rep.Points))
	}
	for i, want := range []string{"scatter", "hedge", "load"} {
		if rep.Points[i]["fig"] != want {
			t.Errorf("point %d fig = %v, want %s", i, rep.Points[i]["fig"], want)
		}
	}
	if _, ok := rep.Points[0]["ns_per_op"]; !ok {
		t.Error("scatter point lost ns_per_op")
	}
	if _, ok := rep.Points[0]["qps"]; ok {
		t.Error("scatter point carries a zero qps field — omitempty broken")
	}
	for _, k := range []string{"qps", "offered_qps", "shed_rate", "p99_ns", "reject_p99_ns"} {
		if _, ok := rep.Points[2][k]; !ok {
			t.Errorf("load point lost %s", k)
		}
	}
	checkGolden(t, "bench_scatter.json.golden", b)
}

// TestFigShardLive drives the real experiment at a small size: beyond the
// formatting, the planner must actually match the hand-written plan.
func TestFigShardLive(t *testing.T) {
	rows, err := bench.FigShard(1<<16, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !r.Scattered || !r.ResultsEqual {
			t.Fatalf("planner diverged from hand-written scatter: %+v", r)
		}
		if r.HandRequests != r.PlanRequests || r.HandWaves != r.PlanWaves {
			t.Fatalf("dispatch shape differs: %+v", r)
		}
	}
}
