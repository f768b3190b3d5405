package load

import (
	"testing"
	"time"

	"distxq/internal/core"
	"distxq/internal/service"
	"distxq/internal/xrpc"
)

// TestSustainedLoadTraced is the tracing-on counterpart of the sustained
// CI smoke: with every query recording a span tree into a small ring, the
// run must stay clean (nothing shed, nothing failed) and the ring's traces
// must settle with no leaked or double-ended spans — tracing under real
// concurrency, replica spread, and hedging does not corrupt bookkeeping.
func TestSustainedLoadTraced(t *testing.T) {
	f := newFederation(t, 3)
	svc := service.New(f.net, f.origin, core.ByFragment, service.Config{
		MaxConcurrent: 8,
		DefaultBudget: core.Budget{Wall: 5 * time.Second},
		Trace:         true,
		TraceRing:     16,
	})
	svc.UseRetry(&xrpc.RetryPolicy{SpreadReplicas: true, HedgeAfter: 50 * time.Millisecond})
	svc.Replicas = f.replicas

	res := Run(ServiceTarget(svc, f.query), Options{Duration: 150 * time.Millisecond, Workers: 4})
	checkPartition(t, res)
	if res.Completed == 0 {
		t.Fatalf("no queries completed: %+v", res)
	}
	if res.Failed != 0 || res.Shed != 0 {
		t.Errorf("traced run failed=%d shed=%d: %+v", res.Failed, res.Shed, res)
	}

	d := svc.Traces.Dump()
	if len(d.Recent) == 0 {
		t.Fatal("trace ring is empty after a sustained traced run")
	}
	// Give in-flight losers a moment to close — a hedge's loser ends its span
	// when its exchange unwinds, which may be after its query returned — then
	// re-dump and audit every held trace for leaks.
	settled := func() bool {
		for _, rec := range svc.Traces.Dump().Recent {
			if rec.OpenSpans != 0 {
				return false
			}
		}
		return true
	}
	for deadline := time.Now().Add(10 * time.Second); !settled() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	for _, rec := range svc.Traces.Dump().Recent {
		if rec.OpenSpans != 0 {
			t.Errorf("trace %d holds %d open spans after settling", rec.ID, rec.OpenSpans)
		}
		if len(rec.Spans) == 0 {
			t.Errorf("trace %d recorded no spans", rec.ID)
		}
	}
}
