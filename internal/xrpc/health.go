package xrpc

// This file implements adaptive hedging: instead of a static
// RetryPolicy.HedgeAfter guessed at configuration time, a HealthTracker
// observes every exchange's latency per peer and derives the hedge trigger
// from the live distribution — hedge when an attempt has outlived the
// peer's observed P90, so roughly the slowest tenth of exchanges pay a
// speculative duplicate and the rest pay nothing. The same observations
// drive replica spreading: lanes start on a rotation of the peers the
// tracker considers healthy, so sessions stop dog-piling each shard's
// primary while failover order stays deterministic per lane (Rank, under
// RetryPolicy.SpreadReplicas): fault-streaked and slow peers go to the back
// of the rotation. The tuning is fixed, the DefaultHealth* constants.

import (
	"slices"
	"sync"
	"time"
)

// HealthTracker's tuning.
const (
	// DefaultHealthWindow is the per-peer latency sample ring size.
	DefaultHealthWindow = 64
	// DefaultHealthStaleAfter is the age beyond which a sample stops
	// counting: a peer that slowed down five minutes ago must not keep
	// poisoning (or flattering) today's quantiles.
	DefaultHealthStaleAfter = 30 * time.Second
	// DefaultHealthMinSamples is the fresh-sample floor below which the
	// tracker declines to set a hedge trigger (the static policy applies).
	DefaultHealthMinSamples = 8
	// healthEWMAAlpha weighs the newest sample in the latency EWMA.
	healthEWMAAlpha = 0.2
	// healthSlowFactor marks a peer unhealthy for spreading when its EWMA
	// exceeds the best peer's by this factor.
	healthSlowFactor = 1.5
)

// healthSample is one timestamped latency observation.
type healthSample struct {
	ns int64
	at time.Time
}

// peerHealth is one peer's live latency and fault state.
type peerHealth struct {
	ewmaNS float64
	seen   int
	ring   []healthSample
	next   int
	// faults counts consecutive failed exchanges; any success resets it.
	faults  int
	lastObs time.Time
}

// HealthTracker tracks per-peer exchange latency (EWMA plus a windowed
// quantile estimator over timestamped samples) and recent faults. It is
// safe for concurrent use; one tracker is typically shared by every session
// of a daemon so observations accumulate across queries.
type HealthTracker struct {
	mu    sync.Mutex
	peers map[string]*peerHealth
	// now is the clock, swappable by tests.
	now func() time.Time
}

// NewHealthTracker returns an empty tracker.
func NewHealthTracker() *HealthTracker {
	return &HealthTracker{peers: map[string]*peerHealth{}}
}

func (h *HealthTracker) timeNow() time.Time {
	if h.now != nil {
		return h.now()
	}
	return time.Now()
}

func (h *HealthTracker) peer(name string) *peerHealth {
	if h.peers == nil {
		h.peers = map[string]*peerHealth{}
	}
	p, ok := h.peers[name]
	if !ok {
		p = &peerHealth{ring: make([]healthSample, DefaultHealthWindow)}
		h.peers[name] = p
	}
	return p
}

// Observe records one successful exchange's latency against a peer and
// clears its fault streak.
func (h *HealthTracker) Observe(peer string, latency time.Duration) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	p := h.peer(peer)
	ns := latency.Nanoseconds()
	if p.seen == 0 {
		p.ewmaNS = float64(ns)
	} else {
		p.ewmaNS = healthEWMAAlpha*float64(ns) + (1-healthEWMAAlpha)*p.ewmaNS
	}
	p.ring[p.next] = healthSample{ns: ns, at: h.timeNow()}
	p.next = (p.next + 1) % len(p.ring)
	p.seen++
	p.faults = 0
	p.lastObs = h.timeNow()
}

// ObserveFault records a genuine exchange failure against a peer (not a
// cancellation echo — the dispatcher filters those before reporting).
func (h *HealthTracker) ObserveFault(peer string) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	p := h.peer(peer)
	p.faults++
	p.lastObs = h.timeNow()
}

// freshLocked returns the peer's non-stale latency samples in ns.
func (h *HealthTracker) freshLocked(p *peerHealth) []int64 {
	cutoff := h.timeNow().Add(-DefaultHealthStaleAfter)
	var out []int64
	for _, s := range p.ring {
		if s.at.IsZero() || s.at.Before(cutoff) {
			continue
		}
		out = append(out, s.ns)
	}
	return out
}

// HedgeAfter derives the adaptive hedge trigger of one peer: its observed
// P90 over fresh samples. ok is false below the fresh-sample floor — the
// caller falls back to the static policy value until the tracker has seen
// enough traffic to know better.
func (h *HealthTracker) HedgeAfter(peer string) (time.Duration, bool) {
	return h.quantile(peer, 0.9, DefaultHealthMinSamples)
}

// quantile returns the q-quantile (nearest rank, 0 < q <= 1) of the peer's
// fresh latency samples; ok is false with fewer than floor of them, or none.
func (h *HealthTracker) quantile(peer string, q float64, floor int) (time.Duration, bool) {
	if h == nil {
		return 0, false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	p, ok := h.peers[peer]
	if !ok {
		return 0, false
	}
	return nearestRank(h.freshLocked(p), q, floor)
}

// nearestRank returns the q-quantile (0 < q <= 1) of samples by nearest
// rank, sorting them; ok is false with fewer than floor samples, or none.
func nearestRank(samples []int64, q float64, floor int) (time.Duration, bool) {
	if len(samples) == 0 || len(samples) < floor {
		return 0, false
	}
	slices.Sort(samples)
	rank := min(max(int(q*float64(len(samples))+0.5), 1), len(samples))
	return time.Duration(samples[rank-1]), true
}

// PeerHealthState is one peer's tracker state at snapshot time — what the
// daemon's /stats and /metrics surfaces expose so adaptive-hedging decisions
// can be audited from outside.
type PeerHealthState struct {
	// EWMANS is the smoothed exchange latency in nanoseconds.
	EWMANS int64 `json:"ewma_ns"`
	// FreshP90NS is the P90 over fresh samples (the adaptive hedge trigger),
	// zero below the fresh-sample floor.
	FreshP90NS int64 `json:"fresh_p90_ns"`
	// FreshSamples counts non-stale latency samples in the window.
	FreshSamples int `json:"fresh_samples"`
	// Seen counts successful exchanges ever observed.
	Seen int `json:"seen"`
	// Faults is the current consecutive-failure streak.
	Faults int `json:"faults"`
	// AgeNS is the time since the last observation of any kind.
	AgeNS int64 `json:"age_ns"`
}

// SnapshotAll returns every tracked peer's state, keyed by peer name.
func (h *HealthTracker) SnapshotAll() map[string]PeerHealthState {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	now := h.timeNow()
	out := make(map[string]PeerHealthState, len(h.peers))
	for name, p := range h.peers {
		fresh := h.freshLocked(p)
		st := PeerHealthState{EWMANS: int64(p.ewmaNS), FreshSamples: len(fresh), Seen: p.seen, Faults: p.faults}
		if !p.lastObs.IsZero() {
			st.AgeNS = now.Sub(p.lastObs).Nanoseconds()
		}
		if d, ok := nearestRank(fresh, 0.9, DefaultHealthMinSamples); ok {
			st.FreshP90NS = d.Nanoseconds()
		}
		out[name] = st
	}
	return out
}

// Rank orders a lane's target rotation for dispatch: the healthy targets —
// no fault streak, EWMA within healthSlowFactor of the best (unknown peers
// count as healthy; they deserve traffic to get measured) — rotated by seq
// so consecutive lanes spread across them, followed by the unhealthy ones
// in their original failover order. The result is a permutation of targets,
// deterministic given seq and the tracker state, so each lane's failover
// order stays reproducible.
func (h *HealthTracker) Rank(targets []string, seq uint64) []string {
	if len(targets) <= 1 {
		return targets
	}
	bad := h.classify(targets)
	var healthy, unhealthy []string
	for i, t := range targets {
		if bad[i] {
			unhealthy = append(unhealthy, t)
		} else {
			healthy = append(healthy, t)
		}
	}
	if len(healthy) == 0 {
		healthy, unhealthy = unhealthy, nil
	}
	off := int(seq % uint64(len(healthy)))
	out := make([]string, 0, len(targets))
	out = append(out, healthy[off:]...)
	out = append(out, healthy[:off]...)
	out = append(out, unhealthy...)
	return out
}

// classify reports which targets count unhealthy: a fault streak, or a
// fresh EWMA beyond healthSlowFactor of the best target's (an unknown or
// stale EWMA is no evidence either way).
func (h *HealthTracker) classify(targets []string) (unhealthy []bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	ewma := make([]float64, len(targets)) // zero: unknown or stale
	unhealthy = make([]bool, len(targets))
	best := 0.0
	for i, t := range targets {
		p, ok := h.peers[t]
		if !ok {
			continue
		}
		unhealthy[i] = p.faults > 0
		if p.seen > 0 && h.timeNow().Sub(p.lastObs) <= DefaultHealthStaleAfter {
			ewma[i] = p.ewmaNS
			if best == 0 || p.ewmaNS < best {
				best = p.ewmaNS
			}
		}
	}
	for i := range targets {
		if ewma[i] > 0 && best > 0 && ewma[i] > healthSlowFactor*best {
			unhealthy[i] = true
		}
	}
	return unhealthy
}
