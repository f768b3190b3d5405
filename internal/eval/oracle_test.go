package eval_test

import (
	"fmt"
	"strings"
	"testing"

	"distxq/internal/core"
	"distxq/internal/eval"
	"distxq/internal/peer"
	"distxq/internal/xdm"
	"distxq/internal/xmark"
	"distxq/internal/xq"
)

// TestScatterAgainstTreeWalkOracle judges the planner-synthesized logical
// scatter over a sharded people federation, gathered and streamed, against
// the tree-walker evaluating the logical query over one unsharded document —
// an oracle that shares neither the planner nor the dispatcher nor the
// compiler with the run it judges. By-fragment and by-projection results
// must serialize byte-identically to the oracle's; by-value results are
// copies, so they must deep-equal it.
func TestScatterAgainstTreeWalkOracle(t *testing.T) {
	cfg := xmark.Config{Seed: 29, Persons: 80, FillerBytes: 20, MinAge: 18, MaxAge: 60}
	src := xmark.LogicalScatterQuery()
	for _, n := range []int{2, 4} {
		want := oracleScatter(t, cfg, n, src)
		net, local, names := shardedPeople(cfg, n)
		for _, strat := range []core.Strategy{core.ByValue, core.ByFragment, core.ByProjection} {
			for _, streamed := range []bool{false, true} {
				sess := net.NewSession(local, strat).UseShards(xmark.PeopleShardMap(names))
				sess.Streamed = streamed
				got, rep, err := sess.Query(src)
				if err != nil {
					t.Fatalf("%d peers %v streamed=%v: %v", n, strat, streamed, err)
				}
				if len(rep.Shards) == 0 || !rep.Shards[0].Scattered {
					t.Fatalf("%d peers %v streamed=%v: the planner did not scatter: %+v", n, strat, streamed, rep.Shards)
				}
				if strat == core.ByValue {
					if !xdm.DeepEqualSeq(got, want) {
						t.Fatalf("%d peers by-value streamed=%v: result is not deep-equal to the oracle's\n got %q\nwant %q",
							n, streamed, xdm.SequenceString(got), xdm.SequenceString(want))
					}
					continue
				}
				if g, w := xdm.SequenceString(got), xdm.SequenceString(want); g != w {
					t.Fatalf("%d peers %v streamed=%v: result differs from the oracle's\n got %q\nwant %q",
						n, strat, streamed, g, w)
				}
			}
		}
	}
}

// oracleScatter tree-walks src over the logical people document of an n-way
// sharding: one document holding every shard's persons, shard-major, which
// is the order the logical document defines. It is built by serializing the
// shards' persons and parsing the text, not through the shard map.
func oracleScatter(t *testing.T, cfg xmark.Config, n int, src string) xdm.Sequence {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("<site><people>")
	for i := 0; i < n; i++ {
		shard := xmark.PeopleShardDocument(cfg, i, n, "shard.xml")
		people := shard.Root.Children[0].Children[0]
		for _, person := range people.Children {
			if err := xdm.Serialize(&sb, person); err != nil {
				t.Fatal(err)
			}
		}
	}
	sb.WriteString("</people></site>")
	whole, err := xdm.ParseString(sb.String(), xmark.LogicalPeopleURI)
	if err != nil {
		t.Fatal(err)
	}
	oracle := eval.NewEngine(eval.ResolverFunc(func(uri string) (*xdm.Document, error) {
		if uri != xmark.LogicalPeopleURI {
			return nil, fmt.Errorf("oracle: no document %q", uri)
		}
		return whole, nil
	}))
	q, err := xq.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	want, err := eval.TreeWalk(oracle, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("the oracle selects nothing: the fixture judges no result")
	}
	return want
}

// shardedPeople builds an n-peer federation, each peer holding its shard of
// the people document under xmark.PeopleShardPath, plus the originator.
func shardedPeople(cfg xmark.Config, n int) (*peer.Network, *peer.Peer, []string) {
	net := peer.NewNetwork()
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("peer%d", i+1)
		net.AddPeer(names[i]).AddDoc(xmark.PeopleShardPath,
			xmark.PeopleShardDocument(cfg, i, n, "xrpc://"+names[i]+"/"+xmark.PeopleShardPath))
	}
	return net, net.AddPeer("local"), names
}
