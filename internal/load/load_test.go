package load

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"distxq/internal/core"
	"distxq/internal/peer"
	"distxq/internal/service"
	"distxq/internal/testkit"
	"distxq/internal/xdm"
	"distxq/internal/xrpc"
)

// federation is a small scatter federation with every shard stored twice:
// primary peer<i> plus replica rep<i> holding a byte-identical document.
type federation struct {
	net       *peer.Network
	origin    *peer.Peer
	primaries []string
	replicas  map[string][]string
	all       []string // primaries then replicas
	query     string
}

func newFederation(t testing.TB, peers int) *federation {
	t.Helper()
	f := &federation{net: peer.NewNetwork(), replicas: map[string][]string{}}
	for i := 1; i <= peers; i++ {
		name := fmt.Sprintf("peer%d", i)
		rname := fmt.Sprintf("rep%d", i)
		doc := fmt.Sprintf(`<people><person><age>%d</age><name>a%d</name></person>`+
			`<person><age>%d</age><name>b%d</name></person></people>`, 20+i, i, 60+i, i)
		for _, n := range []string{name, rname} {
			if err := f.net.AddPeer(n).LoadXML("d.xml", doc); err != nil {
				t.Fatal(err)
			}
		}
		f.primaries = append(f.primaries, name)
		f.replicas[name] = []string{rname}
		f.all = append(f.all, name, rname)
	}
	f.origin = f.net.AddPeer("local")
	quoted := make([]string, len(f.primaries))
	for i, p := range f.primaries {
		quoted[i] = `"` + p + `"`
	}
	f.query = fmt.Sprintf(`
declare function young() as item()* {
  for $x in doc("d.xml")/child::people/child::person
  return if ($x/child::age < 40) then $x/child::name else ()
};
for $p in (%s) return execute at {$p} { young() }`, strings.Join(quoted, ", "))
	return f
}

// requireBothExecutors is the non-vacuity check of the equivalence tests:
// the service ran a first execution cold and compiled the plan on its
// reuse, and at least one peer compiled the module it was sent repeatedly.
func (f *federation) requireBothExecutors(t *testing.T, svc *service.Service) {
	t.Helper()
	if st, c := svc.Stats(), testkit.Metric(t, svc.WriteMetrics, "distxq_eval_compilations_total"); st.PlanMisses == 0 || c == 0 {
		t.Errorf("originator planned %d queries afresh and compiled %d; the test must exercise cold and retained execution", st.PlanMisses, c)
	}
	for _, name := range f.all {
		if p, ok := f.net.Peer(name); ok && p.Engine.StatsSnapshot().Compilations > 0 {
			return
		}
	}
	t.Error("no peer compiled a shipped module")
}

func checkPartition(t *testing.T, res Result) {
	t.Helper()
	if got := res.Completed + res.Failed + res.Shed; got != res.Offered {
		t.Errorf("outcomes %d != offered %d (%+v)", got, res.Offered, res)
	}
	if res.Stats.Dispatched+res.Stats.Rejected != res.Offered {
		t.Errorf("stats cover %d outcomes, offered %d",
			res.Stats.Dispatched+res.Stats.Rejected, res.Offered)
	}
}

// TestSustainedLoad is the CI smoke: a closed-loop run over a healthy
// federation must complete queries continuously with nothing shed or
// failed, and the plan cache must collapse planning to one miss.
func TestSustainedLoad(t *testing.T) {
	f := newFederation(t, 3)
	svc := service.New(f.net, f.origin, core.ByFragment, service.Config{
		MaxConcurrent: 8,
		DefaultBudget: core.Budget{Wall: 5 * time.Second},
	})
	svc.UseRetry(&xrpc.RetryPolicy{SpreadReplicas: true, HedgeAfter: 50 * time.Millisecond})
	svc.Replicas = f.replicas

	res := Run(ServiceTarget(svc, f.query), Options{Duration: 150 * time.Millisecond, Workers: 4})
	checkPartition(t, res)
	if res.Completed == 0 {
		t.Fatalf("no queries completed: %+v", res)
	}
	if res.Failed != 0 || res.Shed != 0 {
		t.Errorf("healthy run failed=%d shed=%d: %+v", res.Failed, res.Shed, res)
	}
	if res.Stats.P50 <= 0 || res.Stats.P99 < res.Stats.P50 {
		t.Errorf("implausible latency quantiles: %+v", res.Stats)
	}
	if res.GoodputQPS <= 0 {
		t.Errorf("goodput %v", res.GoodputQPS)
	}
	st := svc.Stats()
	if st.PlanMisses != 1 || st.PlanHits != st.Admitted-1 {
		t.Errorf("plan cache: misses=%d hits=%d admitted=%d, want 1 miss, rest hits",
			st.PlanMisses, st.PlanHits, st.Admitted)
	}
}

// TestSustainedLoadUnderChaos keeps killing primaries (one at a time, each
// shard ×2-replicated) during a closed-loop run: goodput must continue and
// no query may fail — every lane to a dead primary fails over.
func TestSustainedLoadUnderChaos(t *testing.T) {
	f := newFederation(t, 3)
	svc := service.New(f.net, f.origin, core.ByFragment, service.Config{
		MaxConcurrent: 8,
		DefaultBudget: core.Budget{Wall: 5 * time.Second},
	})
	svc.UseRetry(&xrpc.RetryPolicy{SpreadReplicas: true, HedgeAfter: 20 * time.Millisecond})
	svc.Replicas = f.replicas

	chaos := &Chaos{
		Net:      f.net,
		Victims:  f.primaries,
		Interval: 15 * time.Millisecond,
		Downtime: 10 * time.Millisecond,
		Seed:     7,
	}
	stop := chaos.Start()
	res := Run(ServiceTarget(svc, f.query), Options{Duration: 200 * time.Millisecond, Workers: 4})
	stop()

	checkPartition(t, res)
	if res.Completed == 0 {
		t.Fatalf("no queries completed under chaos: %+v", res)
	}
	if res.Failed != 0 {
		t.Errorf("%d queries failed despite replication: %+v", res.Failed, res)
	}
}

// TestSustainedLoadOpenLoop checks the open-loop arrival process: offered
// load is set by the arrival interval, not by completions.
func TestSustainedLoadOpenLoop(t *testing.T) {
	f := newFederation(t, 2)
	svc := service.New(f.net, f.origin, core.ByFragment, service.Config{
		MaxConcurrent: 8,
		DefaultBudget: core.Budget{Wall: 5 * time.Second},
	})
	res := Run(ServiceTarget(svc, f.query), Options{
		Duration: 100 * time.Millisecond,
		Arrival:  2 * time.Millisecond,
	})
	checkPartition(t, res)
	if res.Completed == 0 {
		t.Fatalf("no queries completed: %+v", res)
	}
	if res.Offered < 10 {
		t.Errorf("open loop offered only %d queries in 100ms at 2ms arrivals", res.Offered)
	}
}

// TestRunMaxQueries bounds a run by count instead of duration.
func TestRunMaxQueries(t *testing.T) {
	f := newFederation(t, 2)
	svc := service.New(f.net, f.origin, core.ByFragment, service.Config{MaxConcurrent: 4})
	res := Run(ServiceTarget(svc, f.query), Options{
		Duration:   5 * time.Second,
		Workers:    2,
		MaxQueries: 9,
	})
	checkPartition(t, res)
	if res.Offered != 9 || res.Completed != 9 {
		t.Errorf("offered=%d completed=%d, want 9/9", res.Offered, res.Completed)
	}
}

// overloadDrive floods the target open-loop at roughly 2× the service's
// capacity (2 tokens × 10ms service time = 200 QPS; arrivals every 2.5ms =
// 400 QPS): offered load is fixed by the arrival process, so the service
// must shed the excess instead of queueing it into latency collapse.
func overloadDrive(target Target) Result {
	return Run(target, Options{
		Duration: overloadOffered * overloadArrival,
		Arrival:  overloadArrival,
	})
}

const (
	overloadArrival = 2500 * time.Microsecond
	overloadOffered = 60 // arrivals one drive is due to make
)

// overloadChecks asserts the graceful-degradation criteria: under 2×
// capacity offered load the service sheds, admitted queries keep a tail
// within 3× the uncontended P99 (the admission queue is short by design),
// and shed queries fail in a small fraction of the budget.
//
// Both latency criteria judge the slowest of the ~30 queries a 150 ms drive
// admits or sheds against a bound a few scheduler quanta wide, so one hiccup
// breaks one drive (0.3–1.3 % of runs on a 2-vCPU box), and a box that
// stalls outright starves the generator itself. What the criteria guard
// against — queueing into latency collapse, rejects that wait — breaks every
// drive. They therefore fail only when each of three independent drives
// fails them; the structural criteria must hold on every drive that reached
// overload.
func overloadChecks(t *testing.T, uncontended Result, drive func() Result, budget time.Duration) {
	t.Helper()
	var slow []string
	for len(slow) < 3 {
		overloaded := drive()
		checkPartition(t, overloaded)
		if overloaded.Offered < overloadOffered/2 {
			// The box, not the service, stalled: this was no overload.
			slow = append(slow, fmt.Sprintf("generator offered %d of %d queries",
				overloaded.Offered, overloadOffered))
			continue
		}
		if overloaded.Shed == 0 {
			t.Fatalf("overload shed nothing: %+v", overloaded)
		}
		if overloaded.Completed == 0 {
			t.Fatalf("overload starved admitted queries: %+v", overloaded)
		}
		if overloaded.DeadlineExceeded != 0 {
			t.Errorf("%d admitted queries blew the budget: %+v",
				overloaded.DeadlineExceeded, overloaded)
		}
		base, lim := uncontended.Stats.P99, budget/10
		switch {
		case overloaded.Stats.P99 > 3*base:
			slow = append(slow, fmt.Sprintf("admitted P99 %v exceeds 3x uncontended P99 %v",
				overloaded.Stats.P99, base))
		case overloaded.Stats.RejectP99 >= lim:
			slow = append(slow, fmt.Sprintf("shed queries took P99 %v, want < %v (budget/10)",
				overloaded.Stats.RejectP99, lim))
		default:
			return
		}
	}
	t.Errorf("each of three overload drives was slow: %s", strings.Join(slow, "; "))
}

// TestOverloadFastRejectInMemory drives the in-memory federation at well
// over capacity with straggler-injected (10ms) peers.
func TestOverloadFastRejectInMemory(t *testing.T) {
	f := newFederation(t, 2)
	for _, name := range f.primaries {
		restore := SlowPeer(f.net, name, 10*time.Millisecond)
		defer restore()
	}
	budget := 800 * time.Millisecond
	svc := service.New(f.net, f.origin, core.ByFragment, service.Config{
		MaxConcurrent: 2,
		MaxQueue:      2,
		MaxQueueWait:  4 * time.Millisecond,
		DefaultBudget: core.Budget{Wall: budget},
	})
	target := ServiceTarget(svc, f.query)

	uncontended := Run(target, Options{Duration: 120 * time.Millisecond, Workers: 1})
	if uncontended.Shed != 0 || uncontended.Failed != 0 || uncontended.Completed == 0 {
		t.Fatalf("uncontended baseline unhealthy: %+v", uncontended)
	}
	overloadChecks(t, uncontended, func() Result { return overloadDrive(target) }, budget)
}

// TestOverloadFastRejectHTTP repeats the overload scenario with the scatter
// peers behind real HTTP servers, each slowed by 10ms of service time.
func TestOverloadFastRejectHTTP(t *testing.T) {
	backend := newFederation(t, 2)
	slow := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			time.Sleep(10 * time.Millisecond)
			h.ServeHTTP(w, r)
		})
	}
	urls := map[string]string{}
	for _, name := range backend.primaries {
		p, _ := backend.net.Peer(name)
		mux := http.NewServeMux()
		mux.Handle("/xrpc", slow(xrpc.NewHTTPHandler(p.Server)))
		mux.Handle("/xrpc/stream", slow(xrpc.NewStreamHTTPHandler(p.Server)))
		ts := httptest.NewServer(mux)
		defer ts.Close()
		urls[name] = ts.URL
	}
	front := peer.NewNetwork()
	tr := &xrpc.HTTPTransport{URLFor: func(p string) string { return urls[p] + "/xrpc" }}
	for name := range urls {
		front.RouteExternal(name, tr)
	}
	origin := front.AddPeer("local")

	budget := 800 * time.Millisecond
	svc := service.New(front, origin, core.ByFragment, service.Config{
		MaxConcurrent: 2,
		MaxQueue:      2,
		MaxQueueWait:  4 * time.Millisecond,
		DefaultBudget: core.Budget{Wall: budget},
	})
	target := ServiceTarget(svc, backend.query)

	uncontended := Run(target, Options{Duration: 120 * time.Millisecond, Workers: 1})
	if uncontended.Shed != 0 || uncontended.Failed != 0 || uncontended.Completed == 0 {
		t.Fatalf("uncontended baseline unhealthy: %+v", uncontended)
	}
	overloadChecks(t, uncontended, func() Result { return overloadDrive(target) }, budget)
}

// TestKillAnyPeerEquivalenceWithAdaptiveHedging is the robustness
// invariant under the new dispatch features: with adaptive hedging and
// replica spreading enabled, killing any single primary must leave the
// query's serialized result byte-identical to the healthy run. The healthy
// run is cold; by the time the kills land, the warm-up has made the plan
// and the peers' modules retain their Programs.
func TestKillAnyPeerEquivalenceWithAdaptiveHedging(t *testing.T) {
	f := newFederation(t, 3)
	svc := service.New(f.net, f.origin, core.ByFragment, service.Config{
		MaxConcurrent: 4,
		DefaultBudget: core.Budget{Wall: 5 * time.Second},
	})
	svc.UseRetry(&xrpc.RetryPolicy{SpreadReplicas: true, HedgeAfter: 10 * time.Millisecond})
	svc.Replicas = f.replicas

	healthy, _, err := svc.Query(f.query, core.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	want := xdm.SequenceString(healthy)
	// Warm the health tracker so hedging runs adaptively, then kill each
	// primary in turn.
	for i := 0; i < 10; i++ {
		if _, _, err := svc.Query(f.query, core.Budget{}); err != nil {
			t.Fatal(err)
		}
	}
	for _, victim := range f.primaries {
		f.net.KillPeer(victim)
		got, _, err := svc.Query(f.query, core.Budget{})
		f.net.RevivePeer(victim)
		if err != nil {
			t.Fatalf("kill %s: %v", victim, err)
		}
		if g := xdm.SequenceString(got); g != want {
			t.Errorf("kill %s: result diverged\n got %q\nwant %q", victim, g, want)
		}
	}
	f.requireBothExecutors(t, svc)
}

// TestSlowPeerEquivalenceWithAdaptiveHedging: a straggling primary must
// change latency, never results — the hedge (or spread) answers through
// the replica with identical bytes.
func TestSlowPeerEquivalenceWithAdaptiveHedging(t *testing.T) {
	f := newFederation(t, 3)
	svc := service.New(f.net, f.origin, core.ByFragment, service.Config{
		MaxConcurrent: 4,
		DefaultBudget: core.Budget{Wall: 5 * time.Second},
	})
	svc.UseRetry(&xrpc.RetryPolicy{SpreadReplicas: true, HedgeAfter: 5 * time.Millisecond})
	svc.Replicas = f.replicas

	healthy, _, err := svc.Query(f.query, core.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	want := xdm.SequenceString(healthy)
	restore := SlowPeer(f.net, f.primaries[0], 50*time.Millisecond)
	for i := 0; i < 5; i++ {
		got, _, err := svc.Query(f.query, core.Budget{})
		if err != nil {
			t.Fatal(err)
		}
		if g := xdm.SequenceString(got); g != want {
			t.Fatalf("slow peer run %d diverged\n got %q\nwant %q", i, g, want)
		}
	}
	restore()
	f.requireBothExecutors(t, svc)
}
