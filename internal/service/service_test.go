package service

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distxq/internal/core"
	"distxq/internal/peer"
	"distxq/internal/xdm"
	"distxq/internal/xq"
	"distxq/internal/xrpc"
)

// newTestService builds a two-peer scatter federation behind a service.
func newTestService(t *testing.T, cfg Config) (*Service, *peer.Network, string) {
	t.Helper()
	n := peer.NewNetwork()
	for i := 1; i <= 2; i++ {
		doc := fmt.Sprintf(`<r><v>x%d</v></r>`, i)
		if err := n.AddPeer(fmt.Sprintf("peer%d", i)).LoadXML("d.xml", doc); err != nil {
			t.Fatal(err)
		}
	}
	origin := n.AddPeer("local")
	query := `
declare function f() as item()* { doc("d.xml")/child::r/child::v };
for $p in ("peer1", "peer2") return execute at {$p} { f() }`
	return New(n, origin, core.ByFragment, cfg), n, query
}

// TestAdmissionQueueFullSheds: with the capacity token and the single queue
// slot both taken, a third arrival is shed instantly with the typed
// overload error.
func TestAdmissionQueueFullSheds(t *testing.T) {
	s := New(nil, nil, core.ByFragment, Config{
		MaxConcurrent: 1, MaxQueue: 1, MaxQueueWait: 200 * time.Millisecond,
	})
	release, err := s.admit(core.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	queued := make(chan error, 1)
	go func() {
		rel, err := s.admit(core.Budget{})
		if rel != nil {
			defer rel()
		}
		queued <- err
	}()
	// Wait until the queued admit occupies the slot, then the next arrival
	// must bounce immediately.
	for deadline := time.Now().Add(time.Second); s.queued.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("second admit never queued")
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	rel3, err := s.admit(core.Budget{})
	if rel3 != nil || !errors.Is(err, xrpc.ErrOverloaded) {
		t.Fatalf("queue-full admit: release=%v err=%v, want typed overload", rel3 != nil, err)
	}
	if e := time.Since(start); e > 50*time.Millisecond {
		t.Errorf("queue-full shed took %v, want immediate", e)
	}
	// Releasing the token admits the queued waiter.
	release()
	if err := <-queued; err != nil {
		t.Fatalf("queued admit failed after release: %v", err)
	}
}

// TestAdmissionQueueTimeBudget: a queued query waits at most
// min(MaxQueueWait, budget/10), then sheds with the typed overload error.
func TestAdmissionQueueTimeBudget(t *testing.T) {
	s := New(nil, nil, core.ByFragment, Config{
		MaxConcurrent: 1, MaxQueue: 4, MaxQueueWait: 10 * time.Second,
	})
	release, err := s.admit(core.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	// Budget 100ms -> queue allowance 10ms, far under MaxQueueWait.
	start := time.Now()
	rel, err := s.admit(core.Budget{Wall: 100 * time.Millisecond})
	elapsed := time.Since(start)
	if rel != nil || !errors.Is(err, xrpc.ErrOverloaded) {
		t.Fatalf("queued admit: release=%v err=%v, want typed overload", rel != nil, err)
	}
	if elapsed < 5*time.Millisecond || elapsed > time.Second {
		t.Errorf("queue wait %v, want ~10ms (budget/10), not MaxQueueWait", elapsed)
	}
}

// TestPlanCacheHitsAndEpochInvalidation: repeated queries plan once;
// installing shard maps bumps the epoch and forces a re-plan.
func TestPlanCacheHitsAndEpochInvalidation(t *testing.T) {
	s, _, query := newTestService(t, Config{})
	for i := 0; i < 3; i++ {
		if _, _, err := s.Query(query, core.Budget{}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.PlanMisses != 1 || st.PlanHits != 2 {
		t.Fatalf("plan cache misses=%d hits=%d, want 1/2", st.PlanMisses, st.PlanHits)
	}
	// Epoch bump: same source, fresh plan. The shard map is irrelevant to
	// this query; only the key's epoch matters.
	s.UseShards(core.ShardMap{
		Logical:    "shard://test/d",
		Peers:      []string{"peer1", "peer2"},
		ShardPath:  "d.xml",
		RecordPath: "child::r/child::v",
	})
	if _, _, err := s.Query(query, core.Budget{}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.PlanMisses != 2 {
		t.Fatalf("post-epoch misses=%d, want 2", st.PlanMisses)
	}
}

// TestServiceDeadlineCounted: a spent budget fails the query with the typed
// deadline error and lands in the DeadlineExceeded counter.
func TestServiceDeadlineCounted(t *testing.T) {
	s, _, query := newTestService(t, Config{})
	_, _, err := s.Query(query, core.Budget{Wall: time.Nanosecond})
	if err == nil || !errors.Is(err, xrpc.ErrDeadlineExceeded) {
		t.Fatalf("err=%v, want deadline-exceeded", err)
	}
	st := s.Stats()
	if st.Failed != 1 || st.DeadlineExceeded != 1 {
		t.Fatalf("failed=%d deadline=%d, want 1/1", st.Failed, st.DeadlineExceeded)
	}
}

// TestServiceDefaultBudgetApplied: the zero budget takes Config's default —
// observable because an impossibly small default kills the query.
func TestServiceDefaultBudgetApplied(t *testing.T) {
	s, _, query := newTestService(t, Config{DefaultBudget: core.Budget{Wall: time.Nanosecond}})
	if _, _, err := s.Query(query, core.Budget{}); !errors.Is(err, xrpc.ErrDeadlineExceeded) {
		t.Fatalf("err=%v, want deadline-exceeded from default budget", err)
	}
}

// TestPlanCacheSingleFlight: concurrent first arrivals of one query plan it
// once — the others wait for the in-flight build and count as hits, sharing
// the one lowering a first hit triggers — and a failed build is not cached.
func TestPlanCacheSingleFlight(t *testing.T) {
	const arrivals = 16
	s, _, query := newTestService(t, Config{MaxConcurrent: arrivals})
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < arrivals; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, _, err := s.Query(query, core.Budget{}); err != nil {
				t.Error(err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if st := s.Stats(); st.PlanMisses != 1 || st.PlanHits != arrivals-1 {
		t.Errorf("plan cache misses=%d hits=%d, want 1/%d", st.PlanMisses, st.PlanHits, arrivals-1)
	}
	if c := s.EvalStats().Compilations; c != 1 {
		t.Errorf("%d compilations for one plan's %d concurrent hits, want 1", c, arrivals-1)
	}

	c := newPlanCache(2)
	boom := errors.New("boom")
	k := []byte("k")
	if _, hit, err := c.load(k, func() (*cachedPlan, error) { return nil, boom }); hit || err != boom {
		t.Errorf("failed build: hit=%v err=%v, want the build's own failure", hit, err)
	}
	if _, hit, err := c.load(k, func() (*cachedPlan, error) { return &cachedPlan{plan: &core.Plan{}, exact: true}, nil }); hit || err != nil {
		t.Errorf("after a failed build: hit=%v err=%v, want a fresh build (failures are not cached)", hit, err)
	}
	if _, hit, _ := c.load(k, nil); !hit {
		t.Error("a published build was not cached")
	}
}

// distinctShape is query with i+1 items appended: a text of its own shape,
// which a constant alone would not give it.
func distinctShape(query string, i int) string {
	return query + strings.Repeat(", 0", i+1)
}

// TestPlanCacheReuseCompilesOnce pins the executor policy at the originator:
// a plan compiles exactly once, on its first cache hit. Distinct texts that
// only ever miss compile nothing and retain no Program; one text sent three
// times compiles once; and concurrent first hits share that one lowering.
func TestPlanCacheReuseCompilesOnce(t *testing.T) {
	s, _, query := newTestService(t, Config{})
	for i := 0; i < 8; i++ {
		if _, _, err := s.Query(distinctShape(query, i), core.Budget{}); err != nil {
			t.Fatal(err)
		}
	}
	if st, c := s.Stats(), s.EvalStats().Compilations; st.PlanHits != 0 || c != 0 {
		t.Fatalf("8 distinct cold queries: hits=%d compilations=%d, want 0/0", st.PlanHits, c)
	}
	s.plans.mu.Lock()
	for key, e := range s.plans.entries {
		if e.plan.Query.CompiledArtifact() != nil {
			t.Errorf("plan %q never hit the cache but carries a Program", key)
		}
	}
	s.plans.mu.Unlock()

	for run := 1; run <= 3; run++ {
		if _, _, err := s.Query(query, core.Budget{}); err != nil {
			t.Fatal(err)
		}
		if c, want := s.EvalStats().Compilations, min(run-1, 1); c != want {
			t.Fatalf("after send %d of one query: %d compilations, want %d", run, c, want)
		}
	}

	const hits = 32
	s, _, query = newTestService(t, Config{MaxConcurrent: hits})
	if _, _, err := s.Query(query, core.Budget{}); err != nil {
		t.Fatal(err)
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < hits; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, _, err := s.Query(query, core.Budget{}); err != nil {
				t.Error(err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if st, c := s.Stats(), s.EvalStats().Compilations; st.PlanHits != hits || c != 1 {
		t.Errorf("%d concurrent hits of one plan: hits=%d compilations=%d, want %d/1", hits, st.PlanHits, c, hits)
	}
}

// TestPlanCacheReuseRetainsModulesOnce: shipped modules are rendered and
// retained only where reuse is proven — never for a plan that only missed,
// exactly once for a reused one however many first hits race — and reused
// plans still answer what the first execution did.
func TestPlanCacheReuseRetainsModulesOnce(t *testing.T) {
	var renders atomic.Int64
	retainModules = func(q *xq.Query) { renders.Add(1); xrpc.RetainModules(q) }
	t.Cleanup(func() { retainModules = xrpc.RetainModules })
	calls := func(s *Service) (retained, rendered int) {
		s.plans.mu.Lock()
		defer s.plans.mu.Unlock()
		for _, e := range s.plans.entries {
			xq.Walk(e.plan.Query.Body, func(ex xq.Expr) bool {
				if x, ok := ex.(*xq.XRPCExpr); ok {
					if x.RetainedModule() != nil {
						retained++
					} else {
						rendered++
					}
				}
				return true
			})
		}
		return retained, rendered
	}
	values := func(res xdm.Sequence) string {
		var out []string
		for _, it := range res {
			out = append(out, it.ItemString())
		}
		return strings.Join(out, " ")
	}

	s, _, query := newTestService(t, Config{})
	for i := 0; i < 8; i++ {
		if _, _, err := s.Query(distinctShape(query, i), core.Budget{}); err != nil {
			t.Fatal(err)
		}
	}
	if retained, rendered := calls(s); renders.Load() != 0 || retained != 0 || rendered == 0 {
		t.Fatalf("8 cold plans: %d retains, %d calls retained, %d rendering per call; want 0/0/>0",
			renders.Load(), retained, rendered)
	}

	const hits = 32
	s, _, query = newTestService(t, Config{MaxConcurrent: hits})
	first, _, err := s.Query(query, core.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	want := values(first)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < hits; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			res, _, err := s.Query(query, core.Budget{})
			if err != nil {
				t.Error(err)
			} else if got := values(res); got != want {
				t.Errorf("reused plan answered %q, first execution %q", got, want)
			}
		}()
	}
	close(start)
	wg.Wait()
	if retained, rendered := calls(s); renders.Load() != 1 || retained == 0 || rendered != 0 {
		t.Errorf("%d concurrent first hits: %d retains, %d calls retained, %d rendering per call; want 1/>0/0",
			hits, renders.Load(), retained, rendered)
	}
}

// TestAggregateMetricsStayBounded: the service's running transport totals
// keep counters only — a thousand queries leave no per-lane wave records
// behind, and the wave counter equals the sum of the per-query reports.
func TestAggregateMetricsStayBounded(t *testing.T) {
	s, _, query := newTestService(t, Config{})
	var waves int64
	for i := 0; i < 1000; i++ {
		_, rep, err := s.Query(query, core.Budget{})
		if err != nil {
			t.Fatal(err)
		}
		waves += rep.Waves
	}
	m := s.XRPCMetrics()
	if len(m.Waves) != 0 {
		t.Errorf("aggregate retains %d wave records after 1000 queries, want none", len(m.Waves))
	}
	if waves == 0 || m.WaveCount != waves {
		t.Errorf("aggregate wave count = %d, want the per-query sum %d", m.WaveCount, waves)
	}
	var page strings.Builder
	if err := s.WriteMetrics(&page); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("distxq_xrpc_waves_total %d\n", waves); !strings.Contains(page.String(), want) {
		t.Errorf("metrics page is missing %q", want)
	}
}

// TestPlanCacheEviction: the bounded cache evicts in insertion order.
func TestPlanCacheEviction(t *testing.T) {
	c := newPlanCache(2)
	builds := 0
	load := func(key string) {
		t.Helper()
		if _, _, err := c.load([]byte(key), func() (*cachedPlan, error) {
			builds++
			return &cachedPlan{plan: &core.Plan{}, exact: true}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []string{"a", "b", "c"} {
		load(k)
	}
	if c.Len() != 2 {
		t.Fatalf("len=%d, want 2", c.Len())
	}
	if _, ok := c.entries["a"]; ok {
		t.Error("oldest entry a survived eviction")
	}
	for _, k := range []string{"b", "c"} {
		if _, ok := c.entries[k]; !ok {
			t.Errorf("entry %s missing", k)
		}
	}
	// Loading a cached key neither rebuilds nor evicts.
	load("b")
	if builds != 3 || c.Len() != 2 {
		t.Errorf("builds=%d len=%d after reloading b, want 3/2", builds, c.Len())
	}
}

// shardedService builds a four-peer federation (peer i holds <v>a i</v>)
// behind a service, and returns the logical-document query plus a runner
// that executes it three times — a miss, the first hit (which compiles the
// plan) and a hit on the compiled plan — requiring the same values each time.
func shardedService(t *testing.T) (*Service, *peer.Network, func(want string) *peer.Report) {
	t.Helper()
	n := peer.NewNetwork()
	for i := 1; i <= 4; i++ {
		doc := fmt.Sprintf(`<r><v>a%d</v></r>`, i)
		if err := n.AddPeer(fmt.Sprintf("peer%d", i)).LoadXML("d.xml", doc); err != nil {
			t.Fatal(err)
		}
	}
	s := New(n, n.AddPeer("local"), core.ByFragment, Config{})
	thrice := func(want string) *peer.Report {
		t.Helper()
		var rep *peer.Report
		for run := 1; run <= 3; run++ {
			res, r, err := s.Query(`for $x in doc("shard://test/d")/child::r/child::v return $x`, core.Budget{})
			if err != nil {
				t.Fatalf("run %d, want %q: %v (stale plan routed to a dead peer?)", run, want, err)
			}
			var vals []string
			for _, it := range res {
				vals = append(vals, it.ItemString())
			}
			if got := strings.Join(vals, " "); got != want {
				t.Fatalf("run %d: result %q, want %q", run, got, want)
			}
			if len(r.Shards) == 0 || !r.Shards[0].Scattered {
				t.Fatalf("run %d: plan did not scatter: %+v", run, r.Shards)
			}
			rep = r
		}
		return rep
	}
	return s, n, thrice
}

func testShardMap(peers ...string) core.ShardMap {
	return core.ShardMap{
		Logical:    "shard://test/d",
		Peers:      peers,
		ShardPath:  "d.xml",
		RecordPath: "child::r/child::v",
	}
}

// TestCompiledPlanNotStaleAcrossShardEpochs is the stale-plan proof for
// compiled execution: each epoch's plan is driven to compiled execution by
// repetition, and UseShards between the epochs bumps the key, so the next
// execution misses the cache, re-plans and (on its own first hit)
// re-compiles against the new shard map — the old compiled plan can never
// route to a peer absent from it. The old shard peers are killed before the
// second epoch's queries; they still succeed, answered entirely by the new
// map's peers.
func TestCompiledPlanNotStaleAcrossShardEpochs(t *testing.T) {
	s, n, thrice := shardedService(t)

	s.UseShards(testShardMap("peer1", "peer2"))
	thrice("a1 a2")
	if st, c := s.Stats(), s.EvalStats().Compilations; st.PlanMisses != 1 || st.PlanHits != 2 || c != 1 {
		t.Fatalf("epoch 1 misses=%d hits=%d compilations=%d, want 1/2/1", st.PlanMisses, st.PlanHits, c)
	}

	// Re-home the logical document and take the old peers down: any routing
	// decision left over from the stale compiled plan now fails loudly.
	s.UseShards(testShardMap("peer3", "peer4"))
	n.KillPeer("peer1")
	n.KillPeer("peer2")

	thrice("a3 a4")
	if st, c := s.Stats(), s.EvalStats().Compilations; st.PlanMisses != 2 || st.PlanHits != 4 || c != 2 {
		t.Fatalf("epoch 2 misses=%d hits=%d compilations=%d, want 2/4/2 (epoch key must miss, then compile afresh)",
			st.PlanMisses, st.PlanHits, c)
	}

	// The new epoch's entry carries its own Program, and caching it evicted
	// the superseded epoch's entry: a stale-epoch plan can never be hit
	// again (the key embeds the epoch), so it must not squat in the bounded
	// cache.
	s.plans.mu.Lock()
	for _, e := range s.plans.entries {
		if e.plan.Query.CompiledArtifact() == nil {
			t.Error("reused plan carries no Program")
		}
		if e.epoch != 2 {
			t.Errorf("cached entry of epoch %d survived epoch 2", e.epoch)
		}
	}
	count := len(s.plans.entries)
	s.plans.mu.Unlock()
	if count != 1 {
		t.Fatalf("cache holds %d entries, want 1 (superseded epoch evicted)", count)
	}
}

// TestUseShardsReplacesByLogical: re-installing a layout for the same logical
// document replaces the old map instead of keeping it beside the new one. Two
// maps giving p1 different replica lists would mark p1 conflicted and withhold
// all of its replicas from hand-written loops; after the replacement p1's
// lane fails over to the new map's replica.
func TestUseShardsReplacesByLogical(t *testing.T) {
	n := peer.NewNetwork()
	for name, doc := range map[string]string{
		"p1": `<r><v>a1</v></r>`, "p2": `<r><v>a2</v></r>`,
		"r1": `<r><v>a1</v></r>`, "r2": `<r><v>a1</v></r>`,
	} {
		if err := n.AddPeer(name).LoadXML("d.xml", doc); err != nil {
			t.Fatal(err)
		}
	}
	s := New(n, n.AddPeer("local"), core.ByFragment, Config{})
	m := testShardMap("p1", "p2")
	m.Replicas = [][]string{{"r1"}}
	s.UseShards(m)
	m.Replicas = [][]string{{"r2"}}
	s.UseShards(m)
	n.KillPeer("p1")

	res, rep, err := s.Query(`
declare function f() as item()* { doc("d.xml")/child::r/child::v };
for $p in ("p1", "p2") return execute at {$p} { f() }`, core.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	var vals []string
	for _, it := range res {
		vals = append(vals, it.ItemString())
	}
	if got := strings.Join(vals, " "); got != "a1 a2" {
		t.Errorf("result %q, want %q", got, "a1 a2")
	}
	if w := rep.WinnerReplica["p1"]; w != "r2" {
		t.Errorf("p1's lane won by %q, want r2 (the replacing map's replica)", w)
	}
}

// TestPlanCacheKeepsInexactPlansPrivate: a plan whose holes did not all land
// on literals serves the query that built it and is never published under
// its shape key, so the next text of that shape plans afresh.
func TestPlanCacheKeepsInexactPlansPrivate(t *testing.T) {
	c := newPlanCache(2)
	builds := 0
	build := func() (*cachedPlan, error) { builds++; return &cachedPlan{plan: &core.Plan{}}, nil }
	for i := 0; i < 2; i++ {
		if p, hit, err := c.load([]byte("k"), build); p == nil || hit || err != nil {
			t.Fatalf("load %d: plan %v, hit %v, err %v; want a fresh private plan", i, p, hit, err)
		}
	}
	if builds != 2 || c.Len() != 0 {
		t.Errorf("%d builds, %d cached; want 2 and 0", builds, c.Len())
	}
}
