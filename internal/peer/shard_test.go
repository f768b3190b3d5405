package peer

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"distxq/internal/core"
	"distxq/internal/xdm"
	"distxq/internal/xmark"
)

// newShardedPeople builds a federation with the people document partitioned
// across n peers plus a document-less originator.
func newShardedPeople(t *testing.T, cfg xmark.Config, n int) (*Network, *Peer, []string) {
	t.Helper()
	net := NewNetwork()
	names := make([]string, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("peer%d", i+1)
		p := net.AddPeer(name)
		p.AddDoc(xmark.PeopleShardPath,
			xmark.PeopleShardDocument(cfg, i, n, "xrpc://"+name+"/"+xmark.PeopleShardPath))
		names[i] = name
	}
	local := net.AddPeer("local")
	return net, local, names
}

// TestShardPlannerMatchesHandWrittenScatter is the acceptance fixture: the
// planner-produced scatter plan for the logical-document query must execute
// exactly like the hand-written `for $p in $peers return execute at $p {...}`
// of xmark.ScatterQuery — same results, same wave count, same dispatch shape.
func TestShardPlannerMatchesHandWrittenScatter(t *testing.T) {
	cfg := xmark.Config{Seed: 11, Persons: 40, FillerBytes: 0, MinAge: 18, MaxAge: 50}
	for _, n := range []int{2, 4} {
		net, local, names := newShardedPeople(t, cfg, n)

		hand := net.NewSession(local, core.ByFragment)
		handRes, handRep, err := hand.Query(xmark.ScatterQuery(names))
		if err != nil {
			t.Fatalf("%d peers: hand-written scatter: %v", n, err)
		}

		planned := net.NewSession(local, core.ByFragment).UseShards(xmark.PeopleShardMap(names))
		planRes, planRep, err := planned.Query(xmark.LogicalScatterQuery())
		if err != nil {
			t.Fatalf("%d peers: planner scatter: %v", n, err)
		}

		if got, want := xdm.SequenceString(planRes), xdm.SequenceString(handRes); got != want {
			t.Fatalf("%d peers: planner result differs from hand-written scatter:\n got %q\nwant %q", n, got, want)
		}
		if len(planRep.Shards) != 1 || !planRep.Shards[0].Scattered {
			t.Fatalf("%d peers: expected one scattered decision, got %+v", n, planRep.Shards)
		}
		if planRep.Waves != handRep.Waves {
			t.Fatalf("%d peers: wave count %d differs from hand-written %d", n, planRep.Waves, handRep.Waves)
		}
		if planRep.Requests != handRep.Requests {
			t.Fatalf("%d peers: requests %d differ from hand-written %d", n, planRep.Requests, handRep.Requests)
		}
		if planRep.Parallelism != handRep.Parallelism {
			t.Fatalf("%d peers: parallelism %d differs from hand-written %d", n, planRep.Parallelism, handRep.Parallelism)
		}
		if planRep.DocBytes != 0 {
			t.Fatalf("%d peers: planner scatter shipped %d document bytes (union materialized?)", n, planRep.DocBytes)
		}
	}
}

// TestShardFallbackMaterializesUnion runs a query the planner must refuse to
// scatter (a positional record predicate); the logical document materializes
// as the union of shards and the result matches evaluating the same shards
// locally.
func TestShardFallbackMaterializesUnion(t *testing.T) {
	cfg := xmark.Config{Seed: 3, Persons: 12, FillerBytes: 0, MinAge: 18, MaxAge: 50}
	net, local, names := newShardedPeople(t, cfg, 3)
	sess := net.NewSession(local, core.ByFragment).UseShards(xmark.PeopleShardMap(names))
	res, rep, err := sess.Query(fmt.Sprintf(
		`doc(%q)/child::site/child::people/child::person[2]/child::name`, xmark.LogicalPeopleURI))
	if err != nil {
		t.Fatal(err)
	}
	var fallback *core.ShardDecision
	for i := range rep.Shards {
		if !rep.Shards[i].Scattered {
			fallback = &rep.Shards[i]
		}
	}
	if fallback == nil {
		t.Fatalf("expected a fallback decision, got %+v", rep.Shards)
	}
	if rep.DocBytes == 0 {
		t.Fatal("fallback did not ship shard documents for materialization")
	}
	// Shard-major union: the second person overall is the second person of
	// shard 0, i.e. global person id 3 (round-robin over 3 shards).
	want := "<name>"
	if got := xdm.SequenceString(res); !strings.HasPrefix(got, want) {
		t.Fatalf("fallback result %q does not look like a name element", got)
	}
	// Cross-check against direct local evaluation over the materialized union.
	m := xmark.PeopleShardMap(names)
	union, err := m.Materialize(m.Logical, func(peer string) (*xdm.Document, error) {
		p, _ := net.Peer(peer)
		d, ok := p.Doc(m.ShardPath)
		if !ok {
			return nil, fmt.Errorf("no shard at %s", peer)
		}
		return d, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	second := union.Root.Children[0].Children[0].Children[1]
	var sb strings.Builder
	_ = xdm.Serialize(&sb, second.Children[0])
	if got := xdm.SequenceString(res); got != sb.String() {
		t.Fatalf("fallback result %q != union evaluation %q", got, sb.String())
	}
}

// TestShardUnknownPeerError locks in the bugfix: naming a peer outside the
// engine's peer set is a distinct, detectable error, not a silent no-op plan.
func TestShardUnknownPeerError(t *testing.T) {
	cfg := xmark.Config{Seed: 3, Persons: 8, FillerBytes: 0, MinAge: 18, MaxAge: 50}
	net, local, names := newShardedPeople(t, cfg, 2)
	bad := append(append([]string(nil), names...), "ghost")
	sess := net.NewSession(local, core.ByFragment).UseShards(xmark.PeopleShardMap(bad))
	_, _, err := sess.Query(xmark.LogicalScatterQuery())
	if !errors.Is(err, core.ErrUnknownShardPeer) {
		t.Fatalf("want ErrUnknownShardPeer, got %v", err)
	}
	if !strings.Contains(fmt.Sprint(err), "ghost") {
		t.Fatalf("error should name the unknown peer: %v", err)
	}
}
