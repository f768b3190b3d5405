package bench

import (
	"testing"
	"time"

	"distxq/internal/core"
	"distxq/internal/service"
	"distxq/internal/trace"
	"distxq/internal/xdm"
	"distxq/internal/xrpc"
)

// settle waits for every span of the trace to end: losing attempts over the
// synchronous in-memory transport close their spans after the query returns.
func settle(t *testing.T, tr *trace.Trace) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for tr.OpenSpans() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := tr.OpenSpans(); n != 0 {
		t.Fatalf("%d spans never ended", n)
	}
	if n := tr.DoubleEnds(); n != 0 {
		t.Fatalf("%d spans ended twice", n)
	}
}

// spanIndex maps a snapshot by ID for parentage walks.
func spanIndex(rec *trace.Recorded) map[trace.SpanID]*trace.Span {
	byID := make(map[trace.SpanID]*trace.Span, len(rec.Spans))
	for i := range rec.Spans {
		byID[rec.Spans[i].ID] = &rec.Spans[i]
	}
	return byID
}

// TestTracedShardEquivalence reruns the shard-equivalence check with a live
// trace attached: the traced scatter query must return byte-identical results
// to the untraced run, every span must end exactly once, and the assembled
// tree must carry the attempt → lane → scatter → execute → query chain.
func TestTracedShardEquivalence(t *testing.T) {
	f := NewScatterFixture(1<<17, 3)
	base, _, err := f.Run(core.ByFragment)
	if err != nil {
		t.Fatal(err)
	}

	tr := trace.New(0, "local")
	root := tr.Start(0, "query")
	sess := f.Net.NewSession(f.Local, core.ByFragment).UseTrace(root)
	traced, _, err := sess.Query(f.Query)
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	settle(t, tr)

	if xdm.SequenceString(traced) != xdm.SequenceString(base) {
		t.Error("traced run diverged from the untraced baseline")
	}

	rec := tr.Snapshot()
	byID := spanIndex(rec)
	wantParent := map[string]string{
		"attempt": "lane",
		"lane":    "scatter",
		"scatter": "execute",
		"execute": "query",
	}
	counts := map[string]int{}
	for i := range rec.Spans {
		s := &rec.Spans[i]
		counts[s.Name]++
		want, ok := wantParent[s.Name]
		if !ok {
			continue
		}
		p := byID[s.Parent]
		if p == nil {
			t.Errorf("%s span %d has no parent in the tree", s.Name, s.ID)
		} else if p.Name != want {
			t.Errorf("%s span %d hangs under %q, want %q", s.Name, s.ID, p.Name, want)
		}
	}
	for _, name := range []string{"execute", "scatter"} {
		if counts[name] != 1 {
			t.Errorf("%d %s spans, want 1", counts[name], name)
		}
	}
	if counts["lane"] != 3 || counts["attempt"] != 3 {
		t.Errorf("%d lanes / %d attempts, want 3 each on a healthy 3-peer scatter",
			counts["lane"], counts["attempt"])
	}
}

// TestTracedFailoverParentage traces a killed-primary hedged scatter and
// checks the retry/hedge attempts keep their parentage: every attempt hangs
// under a lane, every lane closes with exactly one winner, kinds are tagged,
// and the failed-over lane records more than one attempt.
func TestTracedFailoverParentage(t *testing.T) {
	f := NewReplicatedScatterFixture(1<<17, 3)
	killed := f.Peers[len(f.Peers)-1]
	f.Net.KillPeer(killed)
	defer f.Net.RevivePeer(killed)

	svc := service.New(f.Net, f.Local, core.ByFragment, service.Config{Trace: true}).
		UseRetry(&xrpc.RetryPolicy{HedgeAfter: 200 * time.Microsecond})
	svc.Replicas = f.ShardMap.ReplicaSets()
	if _, _, err := svc.Query(f.Query, core.Budget{}); err != nil {
		t.Fatalf("traced query with %s killed: %v", killed, err)
	}

	tr := svc.Traces.Last()
	if tr == nil {
		t.Fatal("trace ring is empty")
	}
	settle(t, tr)

	rec := tr.Snapshot()
	byID := spanIndex(rec)
	winners := map[trace.SpanID]int{}  // lane ID -> winner attempts
	attempts := map[trace.SpanID]int{} // lane ID -> attempts
	lanes := 0
	for i := range rec.Spans {
		s := &rec.Spans[i]
		switch s.Name {
		case "lane":
			lanes++
		case "attempt":
			p := byID[s.Parent]
			if p == nil || p.Name != "lane" {
				t.Fatalf("attempt span %d is not parented to a lane", s.ID)
			}
			attempts[s.Parent]++
			if k, ok := s.Attr("kind"); !ok {
				t.Errorf("attempt span %d has no kind attr", s.ID)
			} else if k.Str != "primary" && k.Str != "retry" && k.Str != "hedge" {
				t.Errorf("attempt span %d kind = %q", s.ID, k.Str)
			}
			if w, ok := s.Attr("winner"); ok && w.Int == 1 {
				winners[s.Parent]++
			}
		}
	}
	if lanes != 3 {
		t.Fatalf("%d lanes, want 3", lanes)
	}
	total, extra := 0, 0
	for lane, n := range attempts {
		total += n
		if n > 1 {
			extra++
		}
		if winners[lane] != 1 {
			t.Errorf("lane %d has %d winner attempts, want exactly 1", lane, winners[lane])
		}
	}
	if total <= lanes {
		t.Errorf("%d attempts across %d lanes — the killed primary forced no failover", total, lanes)
	}
	if extra == 0 {
		t.Error("no lane recorded more than one attempt despite a killed primary")
	}
}
