package bench

// This file holds the elastic-topology experiment: FigTopology prices the
// same churning scatter workload under two routing disciplines on netsim's
// shared-originator-link contention model. "Blind" is dispatch that learns
// about the topology the hard way — primary-first, a detection timeout on a
// dead peer, a hedge duplicate on a slow one — so churn turns into retry
// stalls and duplicate response bytes fighting every healthy lane for the
// shared gather link. "Aware" is a modelled router that consults health at
// dispatch time and scores candidate copies with the contention cost
// signal, so each lane sends exactly one request to the live, fastest copy
// and the link carries one response per lane. No shipped dispatch routes
// that way: xrpc's nearest is a health-ranked rotation (RetryPolicy
// SpreadReplicas with a HealthTracker), which moves fault-streaked and slow
// copies to the back but still spreads lanes over the healthy ones. On a
// work-conserving shared link staggering cannot beat the makespan — the
// whole win is avoided stalls and avoided duplicate bytes, which is the
// quantitative argument for routing on health instead of reacting on fault.

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"distxq/internal/netsim"
)

// TopologyConfig parameterizes the churn scenario. The zero value is
// completed by DefaultTopologyConfig.
type TopologyConfig struct {
	Lanes  int // scatter width (gather lanes per query)
	Trials int // queries sampled per churn level
	// Exchange sizes of one lane (record-heavy responses, as in the hedge
	// figure).
	ReqBytes, RespBytes int64
	// Healthy server delay is uniform in [BaseDelay, 2×BaseDelay]; a slow
	// peer multiplies its draw by Slowdown.
	BaseDelay time.Duration
	Slowdown  int
	// DetectTimeout is how long the blind router waits before concluding a
	// dead primary will not answer; HedgeAfter is its straggler hedge
	// deadline (the duplicate-response source).
	DetectTimeout time.Duration
	HedgeAfter    time.Duration
	Seed          int64
}

// DefaultTopologyConfig returns the churn scenario the figure ships with.
func DefaultTopologyConfig() TopologyConfig {
	return TopologyConfig{
		Lanes:         8,
		Trials:        300,
		ReqBytes:      2 << 10,
		RespBytes:     256 << 10,
		BaseDelay:     300 * time.Microsecond,
		Slowdown:      20,
		DetectTimeout: 5 * time.Millisecond,
		HedgeAfter:    3 * time.Millisecond,
		Seed:          1,
	}
}

// TopologyChurn is one churn intensity: the per-lane probability (percent)
// that the primary is dead, respectively alive but persistently slow, at
// dispatch time.
type TopologyChurn struct {
	Name    string
	DeadPct float64
	SlowPct float64
}

// DefaultTopologyChurn sweeps from a static healthy federation to heavy
// churn.
var DefaultTopologyChurn = []TopologyChurn{
	{Name: "calm", DeadPct: 0, SlowPct: 0},
	{Name: "drift", DeadPct: 5, SlowPct: 10},
	{Name: "churn", DeadPct: 15, SlowPct: 15},
	{Name: "storm", DeadPct: 30, SlowPct: 25},
}

// TopologyRow is one churn level priced under both routing disciplines.
type TopologyRow struct {
	Churn      TopologyChurn
	BlindP50NS int64
	BlindP99NS int64
	AwareP50NS int64
	AwareP99NS int64
	// DupBytes is the duplicate response traffic the blind router's hedges
	// put on the shared link; Timeouts counts its dead-peer detection
	// stalls. The aware router pays neither.
	DupBytes int64
	Timeouts int
}

// laneDraw is one lane's sampled world: the primary's state and the server
// delays of both copies. Both routers price the identical draw.
type laneDraw struct {
	dead, slow   bool
	primaryDelay time.Duration
	replicaDelay time.Duration
}

// FigTopology prices the churn sweep. Fully deterministic for a given
// config (seeded PRNG, simulated time only).
func FigTopology(cfg TopologyConfig, levels []TopologyChurn) []TopologyRow {
	def := DefaultTopologyConfig()
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
	if cfg.Slowdown <= 0 {
		cfg.Slowdown = def.Slowdown
	}
	if cfg.DetectTimeout <= 0 {
		cfg.DetectTimeout = def.DetectTimeout
	}
	if cfg.HedgeAfter <= 0 {
		cfg.HedgeAfter = def.HedgeAfter
	}
	if cfg.Seed == 0 {
		cfg.Seed = def.Seed
	}
	m := netsim.GigabitLAN()
	reqT := m.TransferTime(cfg.ReqBytes)
	var rows []TopologyRow
	for _, lvl := range levels {
		rng := rand.New(rand.NewSource(cfg.Seed))
		healthyDelay := func() time.Duration {
			return cfg.BaseDelay + time.Duration(rng.Int63n(int64(cfg.BaseDelay)+1))
		}
		row := TopologyRow{Churn: lvl}
		blind := make([]time.Duration, cfg.Trials)
		aware := make([]time.Duration, cfg.Trials)
		for t := 0; t < cfg.Trials; t++ {
			draws := make([]laneDraw, cfg.Lanes)
			for l := range draws {
				d := laneDraw{primaryDelay: healthyDelay(), replicaDelay: healthyDelay()}
				switch r := rng.Float64() * 100; {
				case r < lvl.DeadPct:
					d.dead = true
				case r < lvl.DeadPct+lvl.SlowPct:
					d.slow = true
					d.primaryDelay *= time.Duration(cfg.Slowdown)
				}
				draws[l] = d
			}
			blind[t] = priceBlind(m, cfg, reqT, draws, &row)
			aware[t] = priceAware(m, cfg, reqT, draws)
		}
		row.BlindP50NS = netsim.Percentile(blind, 50).Nanoseconds()
		row.BlindP99NS = netsim.Percentile(blind, 99).Nanoseconds()
		row.AwareP50NS = netsim.Percentile(aware, 50).Nanoseconds()
		row.AwareP99NS = netsim.Percentile(aware, 99).Nanoseconds()
		rows = append(rows, row)
	}
	return rows
}

// priceBlind prices one trial under primary-first dispatch: a dead primary
// costs the full detection timeout before the replica is tried, a slow one
// gets a hedge duplicate whose response bytes contend with every sibling
// (the cancel reaches the loser only after the winner has fully gathered,
// long after the bytes are on the wire).
func priceBlind(m netsim.Model, cfg TopologyConfig, reqT time.Duration, draws []laneDraw, row *TopologyRow) time.Duration {
	var lanes []netsim.ContendedLane
	// owner[i] is the index of the lane entry i belongs to; a hedged lane
	// owns two entries and completes at the earlier.
	var owner []int
	for l, d := range draws {
		switch {
		case d.dead:
			row.Timeouts++
			lanes = append(lanes, netsim.ContendedLane{
				Ready: cfg.DetectTimeout + reqT + d.replicaDelay + m.Latency,
				Bytes: cfg.RespBytes,
			})
			owner = append(owner, l)
		case d.slow:
			row.DupBytes += cfg.RespBytes
			lanes = append(lanes,
				netsim.ContendedLane{Ready: reqT + d.primaryDelay + m.Latency, Bytes: cfg.RespBytes},
				netsim.ContendedLane{Ready: cfg.HedgeAfter + reqT + d.replicaDelay + m.Latency, Bytes: cfg.RespBytes})
			owner = append(owner, l, l)
		default:
			lanes = append(lanes, netsim.ContendedLane{
				Ready: reqT + d.primaryDelay + m.Latency,
				Bytes: cfg.RespBytes,
			})
			owner = append(owner, l)
		}
	}
	finish := m.SharedFinishTimes(lanes)
	laneDone := make([]time.Duration, len(draws))
	for i, f := range finish {
		l := owner[i]
		if laneDone[l] == 0 || f < laneDone[l] {
			laneDone[l] = f
		}
	}
	var makespan time.Duration
	for _, d := range laneDone {
		if d > makespan {
			makespan = d
		}
	}
	return makespan
}

// priceAware prices the same trial under dispatch-time health routing: each
// lane scores its candidate copies with the known delay estimate plus the
// contention cost signal and sends one request to the cheapest live copy —
// no detection stalls, no duplicates.
func priceAware(m netsim.Model, cfg TopologyConfig, reqT time.Duration, draws []laneDraw) time.Duration {
	inflight := len(draws) - 1 // every sibling's response may share the link
	lanes := make([]netsim.ContendedLane, len(draws))
	for l, d := range draws {
		// Candidate copies with health-informed delay estimates: a dead
		// primary is not live (skipped), a slow one carries its EWMA-scale
		// delay. The contention term prices each copy's response on the
		// shared link.
		delay := d.primaryDelay
		if d.dead {
			delay = d.replicaDelay
		} else {
			primaryCost := d.primaryDelay + m.ContendedResponseTime(cfg.RespBytes, inflight)
			replicaCost := d.replicaDelay + m.ContendedResponseTime(cfg.RespBytes, inflight)
			if replicaCost < primaryCost {
				delay = d.replicaDelay
			}
		}
		lanes[l] = netsim.ContendedLane{Ready: reqT + delay + m.Latency, Bytes: cfg.RespBytes}
	}
	finish := m.SharedFinishTimes(lanes)
	var makespan time.Duration
	for _, f := range finish {
		if f > makespan {
			makespan = f
		}
	}
	return makespan
}

// PrintFigTopology renders the churn-routing table.
func PrintFigTopology(w io.Writer, cfg TopologyConfig, rows []TopologyRow) {
	fmt.Fprintf(w, "Topology churn — %d-lane gather waves on a shared originator link, %d trials per level (netsim model)\n",
		cfg.Lanes, cfg.Trials)
	fmt.Fprintf(w, "%8s %6s %6s %11s %11s %11s %11s %10s %9s\n",
		"churn", "dead%", "slow%", "p50/blind", "p99/blind", "p50/aware", "p99/aware", "dup-bytes", "timeouts")
	for _, r := range rows {
		fmt.Fprintf(w, "%8s %6.0f %6.0f %11s %11s %11s %11s %10s %9d\n",
			r.Churn.Name, r.Churn.DeadPct, r.Churn.SlowPct,
			fmtNS(r.BlindP50NS), fmtNS(r.BlindP99NS),
			fmtNS(r.AwareP50NS), fmtNS(r.AwareP99NS),
			fmtBytes(r.DupBytes), r.Timeouts)
	}
}
