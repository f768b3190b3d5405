package peer

import (
	"testing"

	"distxq/internal/core"
	"distxq/internal/xdm"
	"distxq/internal/xmark"
)

// TestStreamedScatterByteIdentical is the streaming acceptance harness:
// over the sharded XMark federation, the streamed dispatch must produce
// byte-identical serialized results to gather-whole — for the hand-written
// scatter query and for the planner-synthesized plan over the logical
// document, across peer counts and strategies.
func TestStreamedScatterByteIdentical(t *testing.T) {
	cfg := xmark.Config{Seed: 23, Persons: 120, FillerBytes: 40, MinAge: 18, MaxAge: 60}
	for _, n := range []int{2, 4, 8} {
		for _, strat := range []core.Strategy{core.ByValue, core.ByFragment, core.ByProjection} {
			net, local, names := newShardedPeople(t, cfg, n)
			query := xmark.ScatterQuery(names)

			gather := net.NewSession(local, strat)
			gRes, gRep, err := gather.Query(query)
			if err != nil {
				t.Fatalf("%d peers %v gather: %v", n, strat, err)
			}
			streamed := net.NewSession(local, strat)
			streamed.Streamed = true
			sRes, sRep, err := streamed.Query(query)
			if err != nil {
				t.Fatalf("%d peers %v streamed: %v", n, strat, err)
			}
			if g, s := xdm.SequenceString(gRes), xdm.SequenceString(sRes); g != s {
				t.Fatalf("%d peers %v: streamed result differs\n gather  %q\n streamed %q", n, strat, g, s)
			}
			if sRep.StreamedChunks == 0 {
				t.Fatalf("%d peers %v: streamed run received no chunk frames", n, strat)
			}
			if gRep.StreamedChunks != 0 {
				t.Fatalf("%d peers %v: gather run reports %d chunks", n, strat, gRep.StreamedChunks)
			}
			if sRep.Requests != gRep.Requests || sRep.Waves != gRep.Waves {
				t.Fatalf("%d peers %v: dispatch shape differs: streamed %d req/%d waves, gather %d/%d",
					n, strat, sRep.Requests, sRep.Waves, gRep.Requests, gRep.Waves)
			}
			// Model invariants on the streamed run: a first result is
			// available before the pipeline completes, and the pipeline
			// never exceeds the gather-whole counterfactual of the same
			// measured lanes.
			if sRep.FirstResultNS <= 0 || sRep.FirstResultNS > sRep.PipelineNS {
				t.Fatalf("%d peers %v: FirstResultNS %d outside (0, PipelineNS %d]",
					n, strat, sRep.FirstResultNS, sRep.PipelineNS)
			}
			if sRep.PipelineNS >= sRep.GatherNS {
				t.Fatalf("%d peers %v: pipeline %dns not below gather-whole %dns",
					n, strat, sRep.PipelineNS, sRep.GatherNS)
			}
			if sRep.OverlapSavedNS != sRep.GatherNS-sRep.PipelineNS {
				t.Fatalf("%d peers %v: OverlapSavedNS inconsistent", n, strat)
			}
		}
	}
}

// TestStreamedLogicalPlannerByteIdentical: the shard-aware planner's
// synthesized scatter plan streams too, byte-identical to its gather-whole
// execution.
func TestStreamedLogicalPlannerByteIdentical(t *testing.T) {
	cfg := xmark.Config{Seed: 29, Persons: 80, FillerBytes: 20, MinAge: 18, MaxAge: 60}
	for _, n := range []int{2, 4} {
		net, local, names := newShardedPeople(t, cfg, n)
		shardMap := xmark.PeopleShardMap(names)

		gather := net.NewSession(local, core.ByFragment).UseShards(shardMap)
		gRes, _, err := gather.Query(xmark.LogicalScatterQuery())
		if err != nil {
			t.Fatalf("%d peers gather: %v", n, err)
		}
		streamed := net.NewSession(local, core.ByFragment).UseShards(shardMap)
		streamed.Streamed = true
		sRes, sRep, err := streamed.Query(xmark.LogicalScatterQuery())
		if err != nil {
			t.Fatalf("%d peers streamed: %v", n, err)
		}
		if len(sRep.Shards) == 0 || !sRep.Shards[0].Scattered {
			t.Fatalf("%d peers: planner did not scatter: %+v", n, sRep.Shards)
		}
		if sRep.StreamedChunks == 0 {
			t.Fatalf("%d peers: planner-synthesized scatter did not stream", n)
		}
		if g, s := xdm.SequenceString(gRes), xdm.SequenceString(sRes); g != s {
			t.Fatalf("%d peers: streamed planner result differs\n gather  %q\n streamed %q", n, g, s)
		}
	}
}
