package service

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"distxq/internal/core"
	"distxq/internal/peer"
	"distxq/internal/xdm"
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
// once — the others wait for the in-flight build and count as hits — and a
// failed build is not cached.
func TestPlanCacheSingleFlight(t *testing.T) {
	const arrivals = 16
	for _, compile := range []bool{false, true} {
		s, _, query := newTestService(t, Config{MaxConcurrent: arrivals, Compile: compile})
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < arrivals; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if _, _, err := s.Query(query, core.Budget{}); err != nil {
					t.Errorf("compile=%v: %v", compile, err)
				}
			}()
		}
		close(start)
		wg.Wait()
		if st := s.Stats(); st.PlanMisses != 1 || st.PlanHits != arrivals-1 {
			t.Errorf("compile=%v: plan cache misses=%d hits=%d, want 1/%d",
				compile, st.PlanMisses, st.PlanHits, arrivals-1)
		}
	}

	c := newPlanCache(2)
	boom := errors.New("boom")
	if _, hit, err := c.load("k", func() (cachedPlan, error) { return cachedPlan{}, boom }); hit || err != boom {
		t.Errorf("failed build: hit=%v err=%v, want the build's own failure", hit, err)
	}
	if _, hit, err := c.load("k", func() (cachedPlan, error) { return cachedPlan{plan: &core.Plan{}}, nil }); hit || err != nil {
		t.Errorf("after a failed build: hit=%v err=%v, want a fresh build (failures are not cached)", hit, err)
	}
	if _, hit, _ := c.load("k", nil); !hit {
		t.Error("a published build was not cached")
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
	if want := fmt.Sprintf("distxq_xrpc_waves_total %d\n", waves); !strings.Contains(s.MetricsText(), want) {
		t.Errorf("metrics page is missing %q", want)
	}
}

// TestPlanCacheEviction: the bounded cache evicts in insertion order.
func TestPlanCacheEviction(t *testing.T) {
	c := newPlanCache(2)
	c.put("a", cachedPlan{plan: &core.Plan{}})
	c.put("b", cachedPlan{plan: &core.Plan{}})
	c.put("c", cachedPlan{plan: &core.Plan{}})
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
	// Re-putting an existing key replaces without evicting.
	c.put("b", cachedPlan{plan: &core.Plan{}})
	if c.Len() != 2 {
		t.Errorf("len=%d after re-put, want 2", c.Len())
	}
}

// TestCompiledPlanNotStaleAcrossShardEpochs is the stale-plan proof for
// compiled execution: UseShards between two identical queries bumps the
// epoch, so the second execution misses the cache, re-plans and re-compiles
// against the new shard map — and the old compiled plan can never route to a
// peer absent from it. The old shard peers are killed before the second
// query; it still succeeds, answered entirely by the new map's peers.
func TestCompiledPlanNotStaleAcrossShardEpochs(t *testing.T) {
	n := peer.NewNetwork()
	for i := 1; i <= 4; i++ {
		doc := fmt.Sprintf(`<r><v>a%d</v></r>`, i)
		if err := n.AddPeer(fmt.Sprintf("peer%d", i)).LoadXML("d.xml", doc); err != nil {
			t.Fatal(err)
		}
	}
	origin := n.AddPeer("local")
	s := New(n, origin, core.ByFragment, Config{Compile: true})
	shardMap := func(peers ...string) core.ShardMap {
		return core.ShardMap{
			Logical:    "shard://test/d",
			Peers:      peers,
			ShardPath:  "d.xml",
			RecordPath: "child::r/child::v",
		}
	}
	query := `for $x in doc("shard://test/d")/child::r/child::v return $x`
	values := func(res xdm.Sequence) string {
		out := ""
		for i, it := range res {
			if i > 0 {
				out += " "
			}
			out += it.ItemString()
		}
		return out
	}

	s.UseShards(shardMap("peer1", "peer2"))
	res, rep, err := s.Query(query, core.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if got := values(res); got != "a1 a2" {
		t.Fatalf("epoch 1 result %q, want \"a1 a2\"", got)
	}
	if len(rep.Shards) == 0 || !rep.Shards[0].Scattered {
		t.Fatalf("epoch 1 plan did not scatter: %+v", rep.Shards)
	}
	if st := s.Stats(); st.PlanMisses != 1 {
		t.Fatalf("epoch 1 misses=%d, want 1", st.PlanMisses)
	}

	// Re-home the logical document and take the old peers down: any routing
	// decision left over from the stale compiled plan now fails loudly.
	s.UseShards(shardMap("peer3", "peer4"))
	n.KillPeer("peer1")
	n.KillPeer("peer2")

	res, rep, err = s.Query(query, core.Budget{})
	if err != nil {
		t.Fatalf("epoch 2 query failed (stale compiled plan routed to a dead peer?): %v", err)
	}
	if got := values(res); got != "a3 a4" {
		t.Fatalf("epoch 2 result %q, want \"a3 a4\"", got)
	}
	if len(rep.Shards) == 0 || !rep.Shards[0].Scattered {
		t.Fatalf("epoch 2 plan did not scatter: %+v", rep.Shards)
	}
	st := s.Stats()
	if st.PlanMisses != 2 || st.PlanHits != 0 {
		t.Fatalf("epoch 2 misses=%d hits=%d, want 2/0 (epoch key must miss)", st.PlanMisses, st.PlanHits)
	}

	// The new epoch's entry carries its own compiled artifact, and caching it
	// evicted the superseded epoch's entry: a stale-epoch plan can never be
	// hit again (the key embeds the epoch), so it must not squat in the
	// bounded cache.
	s.plans.mu.Lock()
	for _, e := range s.plans.entries {
		if e.prog == nil {
			t.Error("cached plan without compiled artifact under Config.Compile")
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

// TestLiveEpochRePlanAndReroute extends the stale-plan proof to the live
// topology: under UseLiveShards the service keys its plan cache on
// Network.TopologyEpoch, so a Reshard applied directly to the network — no
// UseShards call, no service involvement at all — forces a re-plan, and the
// next query follows the shards to their new homes even though every old
// host is dead.
func TestLiveEpochRePlanAndReroute(t *testing.T) {
	n := peer.NewNetwork()
	for i := 1; i <= 4; i++ {
		doc := fmt.Sprintf(`<r><v>a%d</v></r>`, i)
		if err := n.AddPeer(fmt.Sprintf("peer%d", i)).LoadXML("d.xml", doc); err != nil {
			t.Fatal(err)
		}
	}
	origin := n.AddPeer("local")
	if _, err := n.UpdateShards(core.ShardMap{
		Logical:    "shard://test/d",
		Peers:      []string{"peer1", "peer2"},
		ShardPath:  "d.xml",
		RecordPath: "child::r/child::v",
	}); err != nil {
		t.Fatal(err)
	}
	s := New(n, origin, core.ByFragment, Config{Compile: true}).UseLiveShards()
	query := `for $x in doc("shard://test/d")/child::r/child::v return $x`
	values := func(res xdm.Sequence) string {
		out := ""
		for i, it := range res {
			if i > 0 {
				out += " "
			}
			out += it.ItemString()
		}
		return out
	}

	res, _, err := s.Query(query, core.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if got := values(res); got != "a1 a2" {
		t.Fatalf("initial result %q, want \"a1 a2\"", got)
	}

	// Re-home both shards via a delta on the network: peer3/peer4 join and
	// take over, peer1/peer2 leave and die.
	if _, err := n.Reshard("shard://test/d", core.ShardDelta{
		Join:  []string{"peer3", "peer4"},
		Move:  map[int]string{0: "peer3", 1: "peer4"},
		Leave: []string{"peer1", "peer2"},
	}); err != nil {
		t.Fatal(err)
	}
	n.KillPeer("peer1")
	n.KillPeer("peer2")

	res, rep, err := s.Query(query, core.Budget{})
	if err != nil {
		t.Fatalf("post-reshard query failed (stale plan routed to a dead peer?): %v", err)
	}
	if got := values(res); got != "a3 a4" {
		t.Fatalf("post-reshard result %q, want \"a3 a4\"", got)
	}
	if len(rep.Shards) == 0 || !rep.Shards[0].Scattered {
		t.Fatalf("post-reshard plan did not scatter: %+v", rep.Shards)
	}
	if st := s.Stats(); st.PlanMisses != 2 || st.PlanHits != 0 {
		t.Fatalf("misses=%d hits=%d, want 2/0 (live epoch must miss)", st.PlanMisses, st.PlanHits)
	}
}
