package peer

import (
	"fmt"
	"sync"
	"testing"

	"distxq/internal/core"
	"distxq/internal/xdm"
	"distxq/internal/xmark"
)

// setupSharded builds a federation with the people document partitioned
// horizontally across n peers plus an originator, returning the peer names.
func setupSharded(t testing.TB, cfg xmark.Config, n int) (*Network, *Peer, []string) {
	t.Helper()
	net := NewNetwork()
	var names []string
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("peer%d", i+1)
		p := net.AddPeer(name)
		p.AddDoc("xmk.xml", xmark.PeopleShardDocument(cfg, i, n, "xrpc://"+name+"/xmk.xml"))
		names = append(names, name)
	}
	local := net.AddPeer("local")
	return net, local, names
}

// TestConcurrentSessionsMatchSequential runs many parallel Session.Query
// calls against one shared Network — shared peer engines, document stores
// and servers — and checks every result equals the sequential baseline.
// Run under -race this is the shared-engine audit of the concurrency layer.
func TestConcurrentSessionsMatchSequential(t *testing.T) {
	cfg := xmark.DefaultConfig()
	cfg.Persons, cfg.Auctions, cfg.FillerBytes = 30, 60, 32
	n, local := setupXMark(t, cfg)
	src := xmark.BenchmarkQuery("peer1", "peer2")
	strategies := []core.Strategy{core.DataShipping, core.ByValue, core.ByFragment, core.ByProjection}

	baselines := map[core.Strategy]xdm.Sequence{}
	for _, strat := range strategies {
		res, _, err := n.NewSession(local, strat).Query(src)
		if err != nil {
			t.Fatalf("baseline %s: %v", strat, err)
		}
		baselines[strat] = res
	}

	const workers = 4
	var wg sync.WaitGroup
	errCh := make(chan error, workers*len(strategies))
	for w := 0; w < workers; w++ {
		for _, strat := range strategies {
			wg.Add(1)
			go func(w int, strat core.Strategy) {
				defer wg.Done()
				res, _, err := n.NewSession(local, strat).Query(src)
				if err != nil {
					errCh <- fmt.Errorf("worker %d %s: %w", w, strat, err)
					return
				}
				if !xdm.DeepEqualSeq(res, baselines[strat]) || xdm.SequenceString(res) != xdm.SequenceString(baselines[strat]) {
					errCh <- fmt.Errorf("worker %d %s: result differs from sequential baseline", w, strat)
				}
			}(w, strat)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestScatterGatherAcceptance is the acceptance criterion of the scatter
// subsystem: a multi-peer scatter query over N peers issues exactly N
// concurrent Bulk RPCs in one wave and returns results node-for-node equal
// to the streamed dispatch of the same query, which must be byte-identical
// to gathering.
func TestScatterGatherAcceptance(t *testing.T) {
	const peers = 4
	cfg := xmark.DefaultConfig()
	cfg.Persons, cfg.FillerBytes = 48, 32
	net, local, names := setupSharded(t, cfg, peers)
	src := xmark.ScatterQuery(names)

	for _, strat := range []core.Strategy{core.ByValue, core.ByFragment, core.ByProjection} {
		streamed := net.NewSession(local, strat)
		streamed.Streamed = true
		baseRes, _, err := streamed.Query(src)
		if err != nil {
			t.Fatalf("%s streamed: %v", strat, err)
		}
		if len(baseRes) == 0 {
			t.Fatalf("%s: scatter query returned nothing; data too small?", strat)
		}

		conc := net.NewSession(local, strat)
		res, rep, err := conc.Query(src)
		if err != nil {
			t.Fatalf("%s concurrent: %v", strat, err)
		}
		if !xdm.DeepEqualSeq(res, baseRes) || xdm.SequenceString(res) != xdm.SequenceString(baseRes) {
			t.Errorf("%s: concurrent result differs from the streamed dispatch", strat)
		}
		if rep.Requests != peers {
			t.Errorf("%s: requests = %d, want exactly %d (one Bulk RPC per peer)", strat, rep.Requests, peers)
		}
		if rep.Waves != 1 || rep.Parallelism != peers {
			t.Errorf("%s: waves=%d parallelism=%d, want 1 wave of %d lanes", strat, rep.Waves, rep.Parallelism, peers)
		}
		// The overlapped model must charge the concurrent wave less than the
		// serial sum of its exchanges.
		if rep.NetworkNS >= rep.SerialNetworkNS {
			t.Errorf("%s: overlapped network %d must undercut serial %d", strat, rep.NetworkNS, rep.SerialNetworkNS)
		}
		if rep.MaxPeerNS <= 0 {
			t.Errorf("%s: MaxPeerNS not populated", strat)
		}
	}
}

// TestScatterSessionsRunConcurrently: scatter queries from several parallel
// sessions against the same sharded federation stay correct (the shared
// peer servers see overlapping waves).
func TestScatterSessionsRunConcurrently(t *testing.T) {
	cfg := xmark.DefaultConfig()
	cfg.Persons, cfg.FillerBytes = 32, 16
	net, local, names := setupSharded(t, cfg, 3)
	src := xmark.ScatterQuery(names)
	base, _, err := net.NewSession(local, core.ByFragment).Query(src)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res, rep, err := net.NewSession(local, core.ByFragment).Query(src)
			if err != nil {
				errCh <- fmt.Errorf("worker %d: %w", w, err)
				return
			}
			if !xdm.DeepEqualSeq(res, base) || xdm.SequenceString(res) != xdm.SequenceString(base) {
				errCh <- fmt.Errorf("worker %d: result diverged", w)
			}
			if rep.Requests != 3 {
				errCh <- fmt.Errorf("worker %d: requests = %d", w, rep.Requests)
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}
