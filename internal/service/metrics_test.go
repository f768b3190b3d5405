package service

import (
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"distxq/internal/core"
	"distxq/internal/eval"
	"distxq/internal/trace"
	"distxq/internal/xrpc"
)

// guardedQuery is newTestService's scatter query nested seven loops deep:
// its scatter loop sits past the compiler's nesting guard, the one construct
// a lowering still leaves to the tree-walker.
const guardedQuery = `
declare function f() as item()* { doc("d.xml")/child::r/child::v };
for $a in 1 return for $b in 1 return for $c in 1 return for $d in 1 return
for $e in 1 return for $g in 1 return
for $p in ("peer1", "peer2") return execute at {$p} { f() }`

// EvalStats returns the aggregated evaluation counters across every query
// the service has executed.
func (s *Service) EvalStats() eval.Stats { return s.evalStats.Snapshot() }

// XRPCMetrics returns the aggregated transport counters across every query;
// dispatch waves are counted (WaveCount), their lane records are not kept.
func (s *Service) XRPCMetrics() xrpc.Metrics { return s.xmetrics.Snapshot() }

// TestMetricsTextSurface: the unified /metrics page carries all four feeds —
// service counters, evaluation counters, transport metrics, per-peer health —
// in exposition format with HELP/TYPE headers.
func TestMetricsTextSurface(t *testing.T) {
	svc, _, _ := newTestService(t, Config{})
	for i := 0; i < 2; i++ {
		if _, _, err := svc.Query(guardedQuery, core.Budget{}); err != nil {
			t.Fatal(err)
		}
	}
	var page strings.Builder
	if err := svc.WriteMetrics(&page); err != nil {
		t.Fatal(err)
	}
	text := page.String()
	for _, want := range []string{
		"# HELP distxq_service_admitted_total",
		"# TYPE distxq_service_admitted_total counter",
		"distxq_service_admitted_total 2",
		"distxq_service_completed_total 2",
		"distxq_service_plan_cache_hits_total 1",
		"distxq_service_plan_cache_misses_total 1",
		"distxq_eval_bulk_calls_total",
		"distxq_eval_compilations_total 1",
		`distxq_eval_compiled_fallback_sites_total{construct="ForExpr"} 1`,
		"distxq_xrpc_requests_total 4",
		"distxq_xrpc_bytes_sent_total",
		`distxq_peer_seen_total{peer="peer1"}`,
		`distxq_peer_ewma_ns{peer="peer2"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics page is missing %q\n%s", want, text)
		}
	}
}

// TestMetricsSnapshotRace hammers every snapshot surface — the metrics page,
// the service counters, per-peer health, the aggregated eval and transport
// stats — while scatter queries run concurrently. Run under -race, this is
// the torn-read audit of the aggregate paths: the pollers read the very
// accumulators the live queries are feeding.
func TestMetricsSnapshotRace(t *testing.T) {
	svc, _, query := newTestService(t, Config{MaxConcurrent: 4, MaxQueue: 100, Trace: true})
	done := make(chan struct{})
	var pollers sync.WaitGroup
	for i := 0; i < 2; i++ {
		pollers.Add(1)
		go func() {
			defer pollers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				_ = svc.WriteMetrics(io.Discard)
				_ = svc.Stats()
				_ = svc.PeerHealth()
				_ = svc.EvalStats()
				_ = svc.XRPCMetrics()
				if svc.Traces != nil {
					_ = svc.Traces.Dump()
				}
			}
		}()
	}
	var queries sync.WaitGroup
	for w := 0; w < 4; w++ {
		queries.Add(1)
		go func() {
			defer queries.Done()
			for i := 0; i < 10; i++ {
				if _, _, err := svc.Query(query, core.Budget{}); err != nil {
					t.Errorf("query: %v", err)
					return
				}
			}
		}()
	}
	queries.Wait()
	close(done)
	pollers.Wait()
	if st := svc.Stats(); st.Completed != 40 {
		t.Errorf("completed = %d, want 40", st.Completed)
	}
	if m := svc.XRPCMetrics(); m.Requests == 0 {
		t.Error("aggregate transport metrics saw no requests")
	}
	if ev := svc.EvalStats(); ev.BulkCalls == 0 {
		t.Error("aggregate eval stats saw no bulk calls")
	}
}

// TestTracedQueryRing: with tracing on, each query publishes one span tree
// to the ring — the full lifecycle under the root, the plan span tagged with
// the cache outcome, and no leaked or double-ended spans once losers settle.
func TestTracedQueryRing(t *testing.T) {
	svc, _, _ := newTestService(t, Config{Trace: true})
	for i := 0; i < 2; i++ {
		if _, _, err := svc.Query(guardedQuery, core.Budget{}); err != nil {
			t.Fatal(err)
		}
	}
	tr := svc.Traces.Last()
	if tr == nil {
		t.Fatal("ring empty after traced queries")
	}
	deadline := time.Now().Add(5 * time.Second)
	for tr.OpenSpans() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := tr.OpenSpans(); n != 0 {
		t.Errorf("%d spans never ended", n)
	}
	if n := tr.DoubleEnds(); n != 0 {
		t.Errorf("%d spans ended twice", n)
	}
	rec := tr.Snapshot()
	found := map[string]*trace.Span{}
	for i := range rec.Spans {
		if _, ok := found[rec.Spans[i].Name]; !ok {
			found[rec.Spans[i].Name] = &rec.Spans[i]
		}
	}
	for _, want := range []string{"query", "admission", "plan", "compile", "execute", "scatter", "lane", "attempt", "serve"} {
		if found[want] == nil {
			t.Errorf("trace is missing a %q span", want)
		}
	}
	// The second query of the same source must have hit the plan cache, and
	// that first hit compiled the plan: the compile span names the fallback
	// sites the lowering left.
	if plan := found["plan"]; plan != nil {
		if a, ok := plan.Attr("cache"); !ok || a.Str != "hit" {
			t.Errorf("second query's plan span cache attr = %+v, want hit", a)
		}
	}
	if compile := found["compile"]; compile != nil {
		if a, ok := compile.Attr("fallback.ForExpr"); !ok || a.Int != 1 {
			t.Errorf("compile span fallback.ForExpr = %+v, want 1", a)
		}
	}
	if d := svc.Traces.Dump(); len(d.Recent) != 2 {
		t.Errorf("ring holds %d recent traces, want 2", len(d.Recent))
	}
}
