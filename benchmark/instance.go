package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"distxq"
	"distxq/internal/core"
	"distxq/internal/peer"
	"distxq/internal/service"
	"distxq/internal/xdm"
	"distxq/internal/xrpc"
)

const originPeer = "local"

// counters are the cumulative costs an instance has spent so far; phases
// report their deltas per op.
type counters struct {
	Mallocs, AllocBytes uint64
	WireBytes           int64
}

// instance is one set-up system under test: an in-process service or a
// fleet of daemons. do runs op i (every query of it, each reply checked
// against the oracle); it is safe for concurrent use.
type instance interface {
	do(i int) error
	counters() (counters, error)
	close()
}

// xqdRetryPolicy mirrors the policy cmd/xqd builds from its flag defaults
// (-retry-attempts 0, -hedge-after 20ms, -spread true); the flags' defaults
// are not exported, so they are restated here.
func xqdRetryPolicy() *xrpc.RetryPolicy {
	return &xrpc.RetryPolicy{HedgeAfter: 20 * time.Millisecond, SpreadReplicas: true}
}

// xqdBudget is cmd/xqd's default -budget.
var xqdBudget = core.Budget{Wall: 5 * time.Second}

// federation parses the fixture's documents from their XML text and returns
// the network with its originator. Documents are registered the way xqpeer
// registers them, under their bare name as document URI, so the in-process
// workloads and the daemons serve byte-identical data (fragments carry
// their document's URI on the wire).
func federation(f *fixture) (*peer.Network, *peer.Peer, error) {
	n := peer.NewNetwork()
	for _, name := range f.Peers {
		n.AddPeer(name)
	}
	origin := n.AddPeer(originPeer)
	for _, d := range f.Docs {
		doc, err := xdm.ParseString(d.XML, d.Path)
		if err != nil {
			return nil, nil, fmt.Errorf("parsing %s/%s: %w", d.Peer, d.Path, err)
		}
		p, _ := n.Peer(d.Peer)
		p.AddDoc(d.Path, doc)
	}
	return n, origin, nil
}

// newService configures the service exactly as xqd with no flags: the zero
// service.Config plus xqd's default budget and retry policy. The only
// per-workload options are the strategy, Streamed and the shard maps.
func newService(n *peer.Network, origin *peer.Peer, w *workload, f *fixture, cfg service.Config) *service.Service {
	cfg.DefaultBudget = xqdBudget
	cfg.Streamed = w.Streamed
	svc := service.New(n, origin, w.Strategy, cfg).UseRetry(xqdRetryPolicy())
	if len(f.Shards) > 0 {
		svc.UseShards(f.Shards...)
	}
	return svc
}

// local is an in-process instance. One op is what xqd's /query handler does
// per request: Service.Query, then distxq.Serialize of the result.
type local struct {
	fix  *fixture
	svc  *service.Service
	wire atomic.Int64
}

func setupLocal(w *workload, f *fixture, cfg service.Config) (*local, error) {
	n, origin, err := federation(f)
	if err != nil {
		return nil, err
	}
	l := &local{fix: f, svc: newService(n, origin, w, f, cfg)}
	return l, warm(l.do, w)
}

// warmOps is a tenth of a slice's latency phase.
func warmOps(w *workload) int { return (w.OpsL + 9) / 10 }

// warm runs the warm-up ops, so caches and lazy initialisation are filled
// before timing.
func warm(do func(int) error, w *workload) error {
	for i := 0; i < warmOps(w); i++ {
		if err := do(i); err != nil {
			return fmt.Errorf("warm-up op %d: %w", i, err)
		}
	}
	return nil
}

func (l *local) do(i int) error {
	for _, q := range l.fix.Ops[i%len(l.fix.Ops)] {
		res, rep, err := l.svc.Query(q.Src, core.Budget{})
		if err != nil {
			return err
		}
		got := distxq.Serialize(res)
		l.wire.Add(rep.TotalBytes() + int64(len(got)))
		if got != q.Want {
			return mismatch(q, got)
		}
	}
	return nil
}

func mismatch(q query, got string) error {
	return fmt.Errorf("oracle mismatch: query %.60q returned %d bytes %.80q, want %d bytes %.80q",
		q.Src, len(got), got, len(q.Want), q.Want)
}

func (l *local) counters() (counters, error) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return counters{Mallocs: m.Mallocs, AllocBytes: m.TotalAlloc, WireBytes: l.wire.Load()}, nil
}

func (l *local) close() {}
