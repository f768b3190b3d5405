package peer

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"distxq/internal/core"
	"distxq/internal/eval"
	"distxq/internal/xdm"
	"distxq/internal/xmark"
	"distxq/internal/xrpc"
)

// replicatedFederation builds a sharded people federation with every shard
// stored on its primary peer<i> and on a dedicated replica rep<i>, plus a
// local originator. The returned shard map lists the replicas.
func replicatedFederation(t *testing.T, peers int) (*Network, *Peer, []string, core.ShardMap) {
	t.Helper()
	cfg := xmark.ForSize(1 << 17)
	n := NewNetwork()
	var names []string
	var replicas [][]string
	for i := 0; i < peers; i++ {
		name := fmt.Sprintf("peer%d", i+1)
		rname := fmt.Sprintf("rep%d", i+1)
		n.AddPeer(name).AddDoc(xmark.PeopleShardPath,
			xmark.PeopleShardDocument(cfg, i, peers, "xrpc://"+name+"/"+xmark.PeopleShardPath))
		n.AddPeer(rname).AddDoc(xmark.PeopleShardPath,
			xmark.PeopleShardDocument(cfg, i, peers, "xrpc://"+rname+"/"+xmark.PeopleShardPath))
		names = append(names, name)
		replicas = append(replicas, []string{rname})
	}
	local := n.AddPeer("local")
	m := xmark.PeopleShardMap(names)
	m.Replicas = replicas
	return n, local, names, m
}

// TestKillAnyPeerInMemory is the acceptance test for replica failover over
// the in-memory transport: with every shard replicated x2, killing any
// single primary yields byte-identical results to the healthy run — for the
// hand-written scatter query and the planner-generated logical plan, in
// gather-whole and streamed dispatch. The runs repeat each query, so both
// sides cross from cold to retained execution on the way.
func TestKillAnyPeerInMemory(t *testing.T) {
	for _, peers := range []int{2, 4} {
		n, local, names, m := replicatedFederation(t, peers)
		handQuery := xmark.ScatterQuery(names)
		reuse := &planReuse{}

		type mode struct {
			name string
			run  func() (xdm.Sequence, *Report, error)
		}
		modes := []mode{
			{"hand-gather", func() (xdm.Sequence, *Report, error) {
				sess := n.NewSession(local, core.ByFragment).UseRetry(&xrpc.RetryPolicy{})
				sess.Replicas = m.ReplicaSets()
				return reuse.query(sess, handQuery)
			}},
			{"hand-streamed", func() (xdm.Sequence, *Report, error) {
				sess := n.NewSession(local, core.ByFragment).UseRetry(&xrpc.RetryPolicy{})
				sess.Replicas = m.ReplicaSets()
				sess.Streamed = true
				return reuse.query(sess, handQuery)
			}},
			{"planner-gather", func() (xdm.Sequence, *Report, error) {
				sess := n.NewSession(local, core.ByFragment).UseShards(m).UseRetry(&xrpc.RetryPolicy{})
				return reuse.query(sess, xmark.LogicalScatterQuery())
			}},
		}
		for _, md := range modes {
			res, _, err := md.run()
			if err != nil {
				t.Fatalf("%d peers %s healthy: %v", peers, md.name, err)
			}
			want := xdm.SequenceString(res)
			for _, victim := range names {
				n.KillPeer(victim)
				res, rep, err := md.run()
				if err != nil {
					t.Fatalf("%d peers %s, %s killed: %v", peers, md.name, victim, err)
				}
				if got := xdm.SequenceString(res); got != want {
					t.Fatalf("%d peers %s, %s killed: result diverged from healthy run", peers, md.name, victim)
				}
				if rep.Retries < 1 {
					t.Errorf("%d peers %s, %s killed: report records no retry (%+v)", peers, md.name, victim, rep)
				}
				if w := rep.WinnerReplica[victim]; !strings.HasPrefix(w, "rep") {
					t.Errorf("%d peers %s, %s killed: WinnerReplica[%s] = %q, want a replica", peers, md.name, victim, victim, w)
				}
				n.RevivePeer(victim)
			}
		}
		reuse.requireBothExecutors(t, n.engines()...)
	}
}

// TestKillPeerMaterializeFallback: a logical-document query answered from
// the materialized union (data shipping performs no decomposition, so the
// shard rewrite never runs) must also survive a killed primary, by fetching
// that shard from its replica during materialization.
func TestKillPeerMaterializeFallback(t *testing.T) {
	n, local, names, m := replicatedFederation(t, 2)
	src := fmt.Sprintf(`for $x in doc(%q)/child::site/child::people/child::person
	return if ($x/descendant::age < 40) then $x/child::name else ()`, xmark.LogicalPeopleURI)

	run := func() string {
		sess := n.NewSession(local, core.DataShipping).UseShards(m)
		res, _, err := sess.Query(src)
		if err != nil {
			t.Fatal(err)
		}
		return xdm.SequenceString(res)
	}
	want := run()
	n.KillPeer(names[0])
	defer n.RevivePeer(names[0])
	if got := run(); got != want {
		t.Fatal("materialized-union fallback diverged with a killed primary")
	}
}

// slowPeerTransport delays exchanges to selected peers, honoring
// cancellation — the straggling-peer injection for session-level hedging.
type slowPeerTransport struct {
	inner xrpc.Transport
	delay map[string]time.Duration
}

func (s *slowPeerTransport) wait(ctx context.Context, peer string) error {
	if d := s.delay[peer]; d > 0 {
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

func (s *slowPeerTransport) RoundTrip(peer string, req []byte) ([]byte, error) {
	return s.RoundTripContext(context.Background(), peer, req)
}

func (s *slowPeerTransport) RoundTripContext(ctx context.Context, peer string, req []byte) ([]byte, error) {
	if err := s.wait(ctx, peer); err != nil {
		return nil, err
	}
	return s.inner.RoundTrip(peer, req)
}

func (s *slowPeerTransport) RoundTripStream(ctx context.Context, peer string, req []byte, sink func([]byte) error) error {
	if err := s.wait(ctx, peer); err != nil {
		return err
	}
	return s.inner.(xrpc.StreamTransport).RoundTripStream(ctx, peer, req, sink)
}

// TestSlowPeerHedged: a straggling primary is hedged to its replica and the
// query answers byte-identically, fast, with the hedge on the report — on a
// plan's first (cold) execution and on its compiled reuse alike.
func TestSlowPeerHedged(t *testing.T) {
	n, local, names, m := replicatedFederation(t, 2)
	handQuery := xmark.ScatterQuery(names)
	healthy := n.NewSession(local, core.ByFragment)
	res, _, err := healthy.Query(handQuery)
	if err != nil {
		t.Fatal(err)
	}
	want := xdm.SequenceString(res)

	// Route the straggler through a delaying transport; everything else
	// keeps using the in-memory transport underneath.
	n.RouteExternal(names[0], &slowPeerTransport{
		inner: n.Transport, delay: map[string]time.Duration{names[0]: 5 * time.Second}})

	reuse := &planReuse{}
	for _, streamed := range []bool{false, true} {
		sess := n.NewSession(local, core.ByFragment).UseRetry(
			&xrpc.RetryPolicy{MaxAttempts: 2, HedgeAfter: 10 * time.Millisecond})
		sess.Replicas = m.ReplicaSets()
		sess.Streamed = streamed
		t0 := time.Now()
		res, rep, err := reuse.query(sess, handQuery)
		if err != nil {
			t.Fatalf("streamed=%v: %v", streamed, err)
		}
		if wall := time.Since(t0); wall > 2*time.Second {
			t.Fatalf("streamed=%v: query took %v — the straggler was waited out", streamed, wall)
		}
		if got := xdm.SequenceString(res); got != want {
			t.Fatalf("streamed=%v: hedged result diverged from healthy run", streamed)
		}
		if rep.Hedges < 1 {
			t.Errorf("streamed=%v: report records no hedge: %+v", streamed, rep)
		}
		if w := rep.WinnerReplica[names[0]]; w != "rep1" {
			t.Errorf("streamed=%v: WinnerReplica[%s] = %q, want rep1", streamed, names[0], w)
		}
		if rep.WastedNS <= 0 {
			t.Errorf("streamed=%v: no wasted time accounted for the losing attempt", streamed)
		}
	}
	reuse.requireBothExecutors(t, n.engines()...)
}

// TestExhaustedReplicasSessionFault: killing a primary and its replica must
// fail the query with the primary's original fault, not a cancellation echo
// of the retry machinery.
func TestExhaustedReplicasSessionFault(t *testing.T) {
	n, local, names, m := replicatedFederation(t, 2)
	n.KillPeer(names[1])
	n.KillPeer("rep2")
	sess := n.NewSession(local, core.ByFragment).UseRetry(&xrpc.RetryPolicy{})
	sess.Replicas = m.ReplicaSets()
	_, _, err := sess.Query(xmark.ScatterQuery(names))
	if err == nil {
		t.Fatal("query succeeded with a shard's every copy dead")
	}
	if strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("error = %v, a cancellation echo instead of the original fault", err)
	}
	if !strings.Contains(err.Error(), `unknown peer "peer2"`) {
		t.Fatalf("error = %v, want the original unknown-peer fault", err)
	}
}

// TestPerDocumentReplicaRouting: two shard maps sharing primaries but
// disagreeing on failover sets used to be rejected wholesale ("conflicting
// replica sets"). Routing is now keyed per (target, logical document), so the
// session accepts both maps and a killed primary fails over to the replica
// that holds *that document's* shard — provable here because each replica
// stores only its own document, so routing one document's lane through the
// other's replica would fail loudly with a missing-document fault.
func TestPerDocumentReplicaRouting(t *testing.T) {
	n := NewNetwork()
	load := func(p *Peer, path, val string) {
		t.Helper()
		if err := p.LoadXML(path, fmt.Sprintf(`<r><v>%s</v></r>`, val)); err != nil {
			t.Fatal(err)
		}
	}
	p1, p2 := n.AddPeer("peer1"), n.AddPeer("peer2")
	load(p1, "a.xml", "a1")
	load(p1, "b.xml", "b1")
	load(p2, "a.xml", "a2")
	load(p2, "b.xml", "b2")
	load(n.AddPeer("repA"), "a.xml", "a1") // holds only document A's shard 0
	load(n.AddPeer("repB"), "b.xml", "b1") // holds only document B's shard 0
	local := n.AddPeer("local")

	sm := func(logical, path string, replicas [][]string) core.ShardMap {
		return core.ShardMap{
			Logical:    logical,
			Peers:      []string{"peer1", "peer2"},
			ShardPath:  path,
			RecordPath: "child::r/child::v",
			Replicas:   replicas,
		}
	}
	mA := sm("shard://test/a", "a.xml", [][]string{{"repA"}, nil})
	mB := sm("shard://test/b", "b.xml", [][]string{{"repB"}, nil})
	query := `(for $x in doc("shard://test/a")/child::r/child::v return $x,
for $y in doc("shard://test/b")/child::r/child::v return $y)`

	healthy := n.NewSession(local, core.ByFragment).UseShards(mA, mB)
	res, rep, err := healthy.Query(query)
	if err != nil {
		t.Fatalf("healthy run: %v", err)
	}
	if got := len(rep.Shards); got != 2 {
		t.Fatalf("healthy run produced %d shard decisions, want 2", got)
	}
	for _, d := range rep.Shards {
		if !d.Scattered {
			t.Fatalf("decision for %s not scattered: %q", d.Logical, d.Reason)
		}
	}
	want := xdm.SequenceString(res)

	n.KillPeer("peer1")
	reuse := &planReuse{}
	for _, streamed := range []bool{false, true} {
		sess := n.NewSession(local, core.ByFragment).
			UseShards(mA, mB).UseRetry(&xrpc.RetryPolicy{})
		sess.Streamed = streamed
		res, rep, err := reuse.query(sess, query)
		if err != nil {
			t.Fatalf("streamed=%v, peer1 killed: %v", streamed, err)
		}
		if got := xdm.SequenceString(res); got != want {
			t.Fatalf("streamed=%v: result diverged from healthy run", streamed)
		}
		if rep.Retries < 2 {
			t.Errorf("streamed=%v: %d retries recorded, want one per document", streamed, rep.Retries)
		}
	}
	reuse.requireBothExecutors(t, n.engines()...)

	// The merged target-keyed fallback withholds the conflicted primary: a
	// hand-written loop naming the bare peer has no provably-right failover
	// order, so it must fail rather than guess a replica.
	sess := n.NewSession(local, core.ByFragment).UseShards(mA, mB).UseRetry(&xrpc.RetryPolicy{})
	_, _, err = sess.Query(`for $p in ("peer1", "peer2") return execute at {$p} { doc("a.xml")/child::r/child::v }`)
	if err == nil {
		t.Fatal("hand-written loop over the conflicted primary succeeded — which document's replica did it guess?")
	}
}

// httpShardFederation serves every shard (primaries and replicas) from real
// HTTP daemons — the cmd/xqpeer wiring — and routes them into a federation
// whose originator is the only in-process peer. It returns the network, the
// originator, the primary names, the shard map, the daemons' engines, and a
// kill function that tears down one daemon's listener (a real dead host, not
// a simulated one).
func httpShardFederation(t *testing.T, peers int) (*Network, *Peer, []string, core.ShardMap, []*eval.Engine, func(name string)) {
	t.Helper()
	cfg := xmark.ForSize(1 << 17)
	n := NewNetwork()
	local := n.AddPeer("local")
	servers := map[string]*httptest.Server{}
	var names []string
	var replicas [][]string
	var engines []*eval.Engine
	serve := func(name string, shard, shards int) {
		doc := xmark.PeopleShardDocument(cfg, shard, shards, name+"/"+xmark.PeopleShardPath)
		engine := eval.NewEngine(eval.ResolverFunc(func(uri string) (*xdm.Document, error) {
			if uri == xmark.PeopleShardPath {
				return doc, nil
			}
			return nil, fmt.Errorf("no such document %q", uri)
		}))
		engines = append(engines, engine)
		srv := &xrpc.Server{Engine: engine, ChunkItems: 8}
		mux := http.NewServeMux()
		mux.Handle("/xrpc", xrpc.NewHTTPHandler(srv))
		mux.Handle("/xrpc/stream", xrpc.NewStreamHTTPHandler(srv))
		ts := httptest.NewServer(mux)
		t.Cleanup(ts.Close)
		servers[name] = ts
		url := ts.URL + "/xrpc"
		n.RouteExternal(name, &xrpc.HTTPTransport{URLFor: func(string) string { return url }})
	}
	for i := 0; i < peers; i++ {
		name := fmt.Sprintf("peer%d", i+1)
		rname := fmt.Sprintf("rep%d", i+1)
		serve(name, i, peers)
		serve(rname, i, peers)
		names = append(names, name)
		replicas = append(replicas, []string{rname})
	}
	m := xmark.PeopleShardMap(names)
	m.Replicas = replicas
	kill := func(name string) { servers[name].CloseClientConnections(); servers[name].Close() }
	return n, local, names, m, engines, kill
}

// TestKillPeerOverHTTP: the acceptance property over real HTTP transports —
// a killed daemon (closed listener) fails over to its replica daemon with
// byte-identical results, gather-whole and streamed. Two healthy runs come
// first, so the kill hits an originator and daemons already running compiled.
func TestKillPeerOverHTTP(t *testing.T) {
	for _, streamed := range []bool{false, true} {
		n, local, names, m, engines, kill := httpShardFederation(t, 2)
		reuse := &planReuse{}
		run := func() (xdm.Sequence, *Report, error) {
			sess := n.NewSession(local, core.ByFragment).UseRetry(&xrpc.RetryPolicy{})
			sess.Replicas = m.ReplicaSets()
			sess.Streamed = streamed
			return reuse.query(sess, xmark.ScatterQuery(names))
		}
		res, _, err := run()
		if err != nil {
			t.Fatalf("streamed=%v healthy: %v", streamed, err)
		}
		want := xdm.SequenceString(res)
		if res, _, err = run(); err != nil || xdm.SequenceString(res) != want {
			t.Fatalf("streamed=%v: compiled healthy run diverged from the cold one (%v)", streamed, err)
		}
		kill(names[1])
		res, rep, err := run()
		if err != nil {
			t.Fatalf("streamed=%v, %s killed: %v", streamed, names[1], err)
		}
		if got := xdm.SequenceString(res); got != want {
			t.Fatalf("streamed=%v: result diverged after killing %s", streamed, names[1])
		}
		if rep.Retries < 1 {
			t.Errorf("streamed=%v: report records no retry: %+v", streamed, rep)
		}
		if w := rep.WinnerReplica[names[1]]; w != "rep2" {
			t.Errorf("streamed=%v: WinnerReplica[%s] = %q, want rep2", streamed, names[1], w)
		}
		reuse.requireBothExecutors(t, engines...)
	}
}
