package netsim

// This file extends the link model with gather-side bandwidth contention.
// WaveTime prices peers behind independent switch ports — N responses
// overlap for free. Real originators sit behind ONE access link: when many
// gather lanes answer at once, their response bytes share that link's
// bandwidth. The model here is processor sharing (the fluid limit of fair
// queueing): at every instant the link's bandwidth divides equally among the
// responses in flight, so k concurrent transfers each drain at 1/k of the
// link rate. Requests are small and travel the opposite direction, so only
// the response (gather) direction contends.
//
// Two consequences the router can score against:
//
//  1. every duplicate response — a hedge that loses, a blind retry that
//     races its original — costs not just its own transfer but a slowdown
//     of every sibling lane sharing the link;
//  2. on a work-conserving shared link the wave's makespan is invariant
//     under staggering, so the only routing wins are avoiding wasted bytes
//     (duplicates) and avoiding dead-peer detection stalls. That is exactly
//     what dispatch-time health routing buys.

import (
	"math"
	"time"
)

// ContendedLane is one response transfer on the shared originator link:
// Ready is the instant its first byte reaches the link (request transfer +
// server time + one-way return latency), Bytes its wire size.
type ContendedLane struct {
	Ready time.Duration
	Bytes int64
}

// SharedFinishTimes returns each lane's completion instant when all lanes
// share one link under processor sharing. A lane with zero bytes (or a model
// without a bandwidth term) completes at its Ready instant. The simulation
// is event-driven and exact for the fluid model: between events (a lane
// becoming ready, a lane draining) every active lane progresses at 1/k of
// the link rate.
func (m Model) SharedFinishTimes(lanes []ContendedLane) []time.Duration {
	n := len(lanes)
	done := make([]time.Duration, n)
	fin := make([]bool, n)
	rem := make([]float64, n) // seconds of transfer left at the FULL link rate
	ready := make([]float64, n)
	left := 0
	for i, l := range lanes {
		ready[i] = l.Ready.Seconds()
		rem[i] = m.serialize(l.Bytes).Seconds()
		if rem[i] <= 0 {
			done[i], fin[i] = l.Ready, true
			continue
		}
		left++
	}
	now := math.Inf(1)
	for i := range lanes {
		if !fin[i] && ready[i] < now {
			now = ready[i]
		}
	}
	for left > 0 {
		active := 0
		next := math.Inf(1)
		for i := range lanes {
			if fin[i] {
				continue
			}
			if ready[i] <= now {
				active++
			} else if ready[i] < next {
				next = ready[i]
			}
		}
		if active == 0 {
			now = next
			continue
		}
		// Each active lane drains at 1/active of the link; advance to the
		// earlier of the first drain and the next arrival.
		share := 1 / float64(active)
		dt := next - now
		for i := range lanes {
			if !fin[i] && ready[i] <= now {
				if d := rem[i] / share; d < dt {
					dt = d
				}
			}
		}
		for i := range lanes {
			if !fin[i] && ready[i] <= now {
				rem[i] -= dt * share
				if rem[i] <= 1e-12 {
					fin[i] = true
					left--
					done[i] = time.Duration((now + dt) * float64(time.Second))
				}
			}
		}
		now += dt
	}
	return done
}

// ContendedResponseTime is the contention cost signal for routing decisions:
// the time for one n-byte response to cross the shared link while inflight
// other responses occupy it for the whole transfer (the pessimistic steady
// state of processor sharing). It prices what one more copy of a response —
// a hedge, a blind retry racing its original — costs the gather side, which
// is how a contention-aware router decides a well-placed first attempt beats
// a speculative second one.
func (m Model) ContendedResponseTime(n int64, inflight int) time.Duration {
	if inflight < 0 {
		inflight = 0
	}
	return m.Latency + time.Duration(float64(inflight+1)*float64(m.serialize(n)))
}
