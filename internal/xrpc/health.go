package xrpc

// This file implements adaptive hedging: instead of a static
// RetryPolicy.HedgeAfter guessed at configuration time, a HealthTracker
// observes every exchange's latency per peer and derives the hedge trigger
// from the live distribution — hedge when an attempt has outlived the
// peer's observed P90, so roughly the slowest tenth of exchanges pay a
// speculative duplicate and the rest pay nothing. The same observations
// drive replica spreading: lanes start on a rotation of the peers the
// tracker considers healthy, so sessions stop dog-piling each shard's
// primary while failover order stays deterministic per lane.

import (
	"sort"
	"sync"
	"time"
)

// Defaults of HealthTracker's tuning knobs.
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
	// Window bounds the per-peer sample ring; zero means
	// DefaultHealthWindow.
	Window int
	// StaleAfter bounds sample age for quantiles and hedge triggers; zero
	// means DefaultHealthStaleAfter.
	StaleAfter time.Duration
	// MinSamples is the fresh-sample floor for adaptive hedge triggers;
	// zero means DefaultHealthMinSamples.
	MinSamples int

	mu    sync.Mutex
	peers map[string]*peerHealth
	// now is the clock, swappable by tests.
	now func() time.Time
}

// NewHealthTracker returns an empty tracker with default tuning.
func NewHealthTracker() *HealthTracker {
	return &HealthTracker{peers: map[string]*peerHealth{}}
}

func (h *HealthTracker) timeNow() time.Time {
	if h.now != nil {
		return h.now()
	}
	return time.Now()
}

func (h *HealthTracker) window() int {
	if h.Window > 0 {
		return h.Window
	}
	return DefaultHealthWindow
}

func (h *HealthTracker) staleAfter() time.Duration {
	if h.StaleAfter > 0 {
		return h.StaleAfter
	}
	return DefaultHealthStaleAfter
}

func (h *HealthTracker) minSamples() int {
	if h.MinSamples > 0 {
		return h.MinSamples
	}
	return DefaultHealthMinSamples
}

func (h *HealthTracker) peer(name string) *peerHealth {
	if h.peers == nil {
		h.peers = map[string]*peerHealth{}
	}
	p, ok := h.peers[name]
	if !ok {
		p = &peerHealth{ring: make([]healthSample, h.window())}
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
	cutoff := h.timeNow().Add(-h.staleAfter())
	var out []int64
	for _, s := range p.ring {
		if s.at.IsZero() || s.at.Before(cutoff) {
			continue
		}
		out = append(out, s.ns)
	}
	return out
}

// Quantile returns the q-quantile (nearest rank, 0 < q <= 1) of the peer's
// fresh latency samples; ok is false with no fresh samples.
func (h *HealthTracker) Quantile(peer string, q float64) (time.Duration, bool) {
	if h == nil {
		return 0, false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	p, ok := h.peers[peer]
	if !ok {
		return 0, false
	}
	fresh := h.freshLocked(p)
	if len(fresh) == 0 {
		return 0, false
	}
	sort.Slice(fresh, func(i, j int) bool { return fresh[i] < fresh[j] })
	rank := int(q*float64(len(fresh)) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > len(fresh) {
		rank = len(fresh)
	}
	return time.Duration(fresh[rank-1]), true
}

// HedgeAfter derives the adaptive hedge trigger of one peer: its observed
// P90 over fresh samples. ok is false below the fresh-sample floor — the
// caller falls back to the static policy value until the tracker has seen
// enough traffic to know better.
func (h *HealthTracker) HedgeAfter(peer string) (time.Duration, bool) {
	if h == nil {
		return 0, false
	}
	h.mu.Lock()
	p, ok := h.peers[peer]
	var fresh []int64
	if ok {
		fresh = h.freshLocked(p)
	}
	h.mu.Unlock()
	if len(fresh) < h.minSamples() {
		return 0, false
	}
	d, _ := h.Quantile(peer, 0.9)
	return d, true
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
	names := make([]string, 0, len(h.peers))
	for name := range h.peers {
		names = append(names, name)
	}
	now := h.timeNow()
	out := make(map[string]PeerHealthState, len(names))
	for _, name := range names {
		p := h.peers[name]
		st := PeerHealthState{
			EWMANS: int64(p.ewmaNS),
			Seen:   p.seen,
			Faults: p.faults,
		}
		if !p.lastObs.IsZero() {
			st.AgeNS = now.Sub(p.lastObs).Nanoseconds()
		}
		st.FreshSamples = len(h.freshLocked(p))
		out[name] = st
	}
	h.mu.Unlock()
	// Quantile re-locks per peer; fill the P90 after releasing the lock.
	for _, name := range names {
		st := out[name]
		if st.FreshSamples >= h.minSamples() {
			if d, ok := h.Quantile(name, 0.9); ok {
				st.FreshP90NS = d.Nanoseconds()
				out[name] = st
			}
		}
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
	_, bad := h.classify(targets)
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

// classify snapshots each target's dispatch-relevant state: its EWMA (-1
// when unknown or stale) and whether it counts unhealthy — a fault streak,
// or an EWMA beyond healthSlowFactor of the best target's.
func (h *HealthTracker) classify(targets []string) (ewma []float64, unhealthy []bool) {
	h.mu.Lock()
	best := 0.0
	ewma = make([]float64, len(targets))
	faulty := make([]bool, len(targets))
	stale := h.staleAfter()
	for i, t := range targets {
		p, ok := h.peers[t]
		if !ok || p.seen == 0 || h.timeNow().Sub(p.lastObs) > stale {
			ewma[i] = -1 // unknown
		} else {
			ewma[i] = p.ewmaNS
			if best == 0 || p.ewmaNS < best {
				best = p.ewmaNS
			}
		}
		if ok && p.faults > 0 {
			faulty[i] = true
		}
	}
	h.mu.Unlock()
	unhealthy = make([]bool, len(targets))
	for i := range targets {
		slow := ewma[i] > 0 && best > 0 && ewma[i] > healthSlowFactor*best
		unhealthy[i] = faulty[i] || slow
	}
	return ewma, unhealthy
}

// RankLive orders a lane's target rotation by live health, fastest copy
// first: healthy targets with a known EWMA in ascending-latency order, then
// healthy-but-unmeasured targets in canonical failover order (they deserve
// traffic to get measured), then targets with a fault streak or a slow EWMA,
// again in canonical order. Unlike Rank there is no per-lane rotation —
// every lane's first attempt goes to the live, fastest copy, which is what
// routing up front (as opposed to fail-over) wants: a departed or degraded
// primary stops receiving first attempts the moment the tracker has seen it
// fault, instead of every lane burning an attempt against the corpse. A nil
// tracker returns targets unchanged.
func (h *HealthTracker) RankLive(targets []string) []string {
	if h == nil || len(targets) <= 1 {
		return targets
	}
	ewma, unhealthy := h.classify(targets)
	idx := make([]int, len(targets))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ia, ib := idx[a], idx[b]
		if unhealthy[ia] != unhealthy[ib] {
			return !unhealthy[ia]
		}
		if unhealthy[ia] {
			return false // canonical order among the unhealthy
		}
		knownA, knownB := ewma[ia] >= 0, ewma[ib] >= 0
		if knownA != knownB {
			return knownA
		}
		if knownA {
			return ewma[ia] < ewma[ib]
		}
		return false // canonical order among the unmeasured
	})
	out := make([]string, len(targets))
	for i, j := range idx {
		out[i] = targets[j]
	}
	return out
}
