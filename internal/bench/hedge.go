package bench

// This file holds the fault-tolerance experiments: the hedged-scatter
// tail-latency sweep (FigHedge, a deterministic netsim-model computation
// over an injected straggler distribution) and the live failover run
// (FigFailover, which kills a replicated shard's primary and checks the
// query still answers byte-identically through the replica).

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"distxq/internal/core"
	"distxq/internal/netsim"
	"distxq/internal/peer"
	"distxq/internal/xdm"
	"distxq/internal/xmark"
	"distxq/internal/xrpc"
)

// NewReplicatedScatterFixture is NewScatterFixture with every shard stored
// twice: primary peer<i> plus a dedicated replica peer rep<i> holding a
// byte-identical copy of the shard document under the same peer-local path.
// The fixture's shard map lists the replicas, so sessions with a RetryPolicy
// (or just the map installed) survive the loss of any single peer.
func NewReplicatedScatterFixture(totalBytes int64, peers int) *ScatterFixture {
	cfg := xmark.ForSize(totalBytes * 2) // people doc is half of a fixture
	n := peer.NewNetwork()
	f := &ScatterFixture{Net: n}
	var replicas [][]string
	for i := 0; i < peers; i++ {
		name := fmt.Sprintf("peer%d", i+1)
		rname := fmt.Sprintf("rep%d", i+1)
		shard := xmark.PeopleShardDocument(cfg, i, peers, "xrpc://"+name+"/"+xmark.PeopleShardPath)
		p := n.AddPeer(name)
		p.AddDoc(xmark.PeopleShardPath, shard)
		// The replica serves the identical tree under the same path; node
		// identities differ across peers, but serialized results do not.
		r := n.AddPeer(rname)
		r.AddDoc(xmark.PeopleShardPath,
			xmark.PeopleShardDocument(cfg, i, peers, "xrpc://"+rname+"/"+xmark.PeopleShardPath))
		f.Peers = append(f.Peers, name)
		replicas = append(replicas, []string{rname})
		f.TotalBytes += p.DocSize(xmark.PeopleShardPath)
	}
	f.Local = n.AddPeer("local")
	f.Query = xmark.ScatterQuery(f.Peers)
	f.ShardMap = xmark.PeopleShardMap(f.Peers)
	f.ShardMap.Replicas = replicas
	return f
}

// HedgeRow is one measurement of the tail-tolerance sweep: the same
// injected lane-delay distribution priced without and with hedging at one
// hedge deadline.
type HedgeRow struct {
	HedgeAfterNS int64
	BaseP50NS    int64
	BaseP99NS    int64
	HedgedP50NS  int64
	HedgedP99NS  int64
	// Hedges counts hedge launches across all trials and lanes; WastedNS is
	// the total in-flight time of losing attempts — the spend that bought
	// the P99 reduction.
	Hedges   int
	WastedNS int64
}

// HedgeConfig parameterizes the straggler scenario of FigHedge. The zero
// value is completed by DefaultHedgeConfig.
type HedgeConfig struct {
	Lanes  int // scatter width (lanes per query)
	Trials int // queries sampled
	// Exchange sizes of one lane (representative of the 2 MiB / 8-peer
	// scatter figure: small shipped function, record-heavy response).
	ReqBytes, RespBytes int64
	// Server delay distribution: uniform in [BaseDelay, 2×BaseDelay], with
	// StragglerPct percent of lanes straggling at Slowdown× that delay —
	// the GC pause / overloaded-peer / flaky-link tail every fan-out system
	// fights.
	BaseDelay    time.Duration
	StragglerPct float64
	Slowdown     int
	Seed         int64
}

// DefaultHedgeConfig returns the straggler scenario the figure ships with.
func DefaultHedgeConfig() HedgeConfig {
	return HedgeConfig{
		Lanes:     8,
		Trials:    400,
		ReqBytes:  2 << 10,
		RespBytes: 256 << 10,
		BaseDelay: 300 * time.Microsecond,
		// 5% stragglers at 20×: roughly every third 8-lane query hits one.
		StragglerPct: 5,
		Slowdown:     20,
		Seed:         1,
	}
}

// FigHedge prices the straggler scenario under the netsim lane model: every
// trial draws per-lane primary and replica delays from the injected
// distribution, a query completes when its slowest lane does, and the same
// draws are re-priced for each hedge deadline — so the no-hedge baseline
// and every hedged row compare identical workloads. The computation is
// fully deterministic for a given config (seeded PRNG, simulated time
// only); it is the quantitative argument for the dispatch layer's
// RetryPolicy.HedgeAfter.
func FigHedge(cfg HedgeConfig, hedgeAfters []time.Duration) []HedgeRow {
	def := DefaultHedgeConfig()
	if cfg.Lanes <= 0 {
		cfg.Lanes = def.Lanes
	}
	if cfg.Trials <= 0 {
		cfg.Trials = def.Trials
	}
	if cfg.ReqBytes <= 0 {
		cfg.ReqBytes = def.ReqBytes
	}
	if cfg.RespBytes <= 0 {
		cfg.RespBytes = def.RespBytes
	}
	if cfg.BaseDelay <= 0 {
		cfg.BaseDelay = def.BaseDelay
	}
	if cfg.StragglerPct <= 0 {
		cfg.StragglerPct = def.StragglerPct
	}
	if cfg.Slowdown <= 0 {
		cfg.Slowdown = def.Slowdown
	}
	if cfg.Seed == 0 {
		cfg.Seed = def.Seed
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	draw := func() time.Duration {
		d := cfg.BaseDelay + time.Duration(rng.Int63n(int64(cfg.BaseDelay)+1))
		if rng.Float64()*100 < cfg.StragglerPct {
			d *= time.Duration(cfg.Slowdown)
		}
		return d
	}
	// One shared set of draws: every row re-prices the same workload.
	primary := make([][]time.Duration, cfg.Trials)
	replica := make([][]time.Duration, cfg.Trials)
	for t := range primary {
		primary[t] = make([]time.Duration, cfg.Lanes)
		replica[t] = make([]time.Duration, cfg.Lanes)
		for l := 0; l < cfg.Lanes; l++ {
			primary[t][l] = draw()
			replica[t][l] = draw()
		}
	}
	m := netsim.GigabitLAN()
	e := netsim.Exchange{ReqBytes: cfg.ReqBytes, RespBytes: cfg.RespBytes}
	base := make([]time.Duration, cfg.Trials)
	for t := range base {
		for l := 0; l < cfg.Lanes; l++ {
			if d := m.LaneTime(e, primary[t][l]); d > base[t] {
				base[t] = d
			}
		}
	}
	var rows []HedgeRow
	for _, after := range hedgeAfters {
		row := HedgeRow{
			HedgeAfterNS: after.Nanoseconds(),
			BaseP50NS:    netsim.Percentile(base, 50).Nanoseconds(),
			BaseP99NS:    netsim.Percentile(base, 99).Nanoseconds(),
		}
		hedged := make([]time.Duration, cfg.Trials)
		for t := range hedged {
			for l := 0; l < cfg.Lanes; l++ {
				done, fired, wasted := m.HedgedLaneTime(e, primary[t][l], replica[t][l], after)
				if done > hedged[t] {
					hedged[t] = done
				}
				if fired {
					row.Hedges++
				}
				row.WastedNS += wasted.Nanoseconds()
			}
		}
		row.HedgedP50NS = netsim.Percentile(hedged, 50).Nanoseconds()
		row.HedgedP99NS = netsim.Percentile(hedged, 99).Nanoseconds()
		rows = append(rows, row)
	}
	return rows
}

// DefaultHedgeAfters is the hedge-deadline sweep of the shipped figure,
// bracketing the straggler scenario's unhedged lane-time distribution
// (healthy lanes finish around 2.8–3.1 ms, stragglers at 8–15 ms): the
// first deadline hedges even healthy lanes (maximum waste), the middle ones
// isolate stragglers, the last shows a too-patient deadline giving tail
// latency back.
var DefaultHedgeAfters = []time.Duration{
	2800 * time.Microsecond, 3200 * time.Microsecond, 4 * time.Millisecond, 8 * time.Millisecond,
}

// PrintFigHedge renders the tail-tolerance table.
func PrintFigHedge(w io.Writer, cfg HedgeConfig, rows []HedgeRow) {
	fmt.Fprintf(w, "Hedged scatter — %d-lane waves, %d trials, %.0f%% stragglers at %dx (netsim model)\n",
		cfg.Lanes, cfg.Trials, cfg.StragglerPct, cfg.Slowdown)
	fmt.Fprintf(w, "%12s %10s %10s %12s %12s %8s %12s\n",
		"hedge-after", "p50/base", "p99/base", "p50/hedged", "p99/hedged", "hedges", "wasted")
	for _, r := range rows {
		fmt.Fprintf(w, "%12s %10s %10s %12s %12s %8d %12s\n",
			fmtNS(r.HedgeAfterNS),
			fmtNS(r.BaseP50NS), fmtNS(r.BaseP99NS),
			fmtNS(r.HedgedP50NS), fmtNS(r.HedgedP99NS),
			r.Hedges, fmtNS(r.WastedNS))
	}
}

// FailoverRow is the live replica-failover measurement: the replicated
// scatter federation queried healthy, then with one primary killed.
type FailoverRow struct {
	Peers        int
	Killed       string
	Retries      int64
	Hedges       int64
	Winner       string // replica that answered the killed primary's lane
	ResultsEqual bool   // killed-primary run byte-identical to the healthy run
}

// FigFailover runs the live half of the fault-tolerance figure: each shard
// of the scatter federation is replicated ×2, one primary is killed, and
// the same query must answer byte-identically through the replica, the
// lane's provenance recording the failover.
func FigFailover(totalBytes int64, peers int) (*FailoverRow, error) {
	f := NewReplicatedScatterFixture(totalBytes, peers)
	healthy, _, err := f.Run(core.ByFragment)
	if err != nil {
		return nil, fmt.Errorf("failover healthy run: %w", err)
	}
	killed := f.Peers[len(f.Peers)-1]
	f.Net.KillPeer(killed)
	defer f.Net.RevivePeer(killed)
	sess := f.Net.NewSession(f.Local, core.ByFragment).UseRetry(&xrpc.RetryPolicy{})
	sess.Replicas = f.ShardMap.ReplicaSets()
	res, rep, err := sess.Query(f.Query)
	if err != nil {
		return nil, fmt.Errorf("failover with %s killed: %w", killed, err)
	}
	row := &FailoverRow{
		Peers:        peers,
		Killed:       killed,
		Retries:      rep.Retries,
		Hedges:       rep.Hedges,
		Winner:       rep.WinnerReplica[killed],
		ResultsEqual: xdm.SequenceString(res) == xdm.SequenceString(healthy),
	}
	return row, nil
}

// PrintFigFailover renders the live failover line.
func PrintFigFailover(w io.Writer, totalBytes int64, row *FailoverRow) {
	result := "DIVERGED"
	if row.ResultsEqual {
		result = "identical"
	}
	fmt.Fprintf(w, "Failover — sharded people (%s total) x2 replication, primary %s killed\n",
		fmtBytes(totalBytes), row.Killed)
	fmt.Fprintf(w, "%6s %8s %8s %10s %10s\n", "peers", "retries", "hedges", "winner", "results")
	fmt.Fprintf(w, "%6d %8d %8d %10s %10s\n",
		row.Peers, row.Retries, row.Hedges, row.Winner, result)
}
