package netsim

import (
	"math/rand"
	"testing"
	"time"
)

// eps absorbs the float64-seconds round-trip of the fluid simulation; every
// hand-computed value below is exact far beyond this.
const eps = time.Microsecond

func within(a, b, tol time.Duration) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}

// TestSharedFinishTimesHandComputed pins the processor-sharing simulation to
// hand-derived timelines on a 1000 B/s link (1000 bytes = 1 s dedicated).
func TestSharedFinishTimesHandComputed(t *testing.T) {
	m := Model{Latency: time.Millisecond, BandwidthBytesPerSec: 1000}
	cases := []struct {
		name  string
		lanes []ContendedLane
		want  []time.Duration
	}{
		{
			// Two equal transfers from t=0 each get half the link: both
			// finish at 2 s — twice the dedicated time, same makespan as
			// running them back to back (work conservation).
			name: "two equal lanes halve the link",
			lanes: []ContendedLane{
				{Ready: 0, Bytes: 1000},
				{Ready: 0, Bytes: 1000},
			},
			want: []time.Duration{2 * time.Second, 2 * time.Second},
		},
		{
			// A drains alone for 0.5 s (500 bytes left), then B (500 bytes)
			// arrives; sharing, each needs 1 s more: both finish at 1.5 s.
			name: "late arrival shares the remainder",
			lanes: []ContendedLane{
				{Ready: 0, Bytes: 1000},
				{Ready: 500 * time.Millisecond, Bytes: 500},
			},
			want: []time.Duration{1500 * time.Millisecond, 1500 * time.Millisecond},
		},
		{
			// The short transfer drains first (shared until then), returning
			// the link to the long one: 200 shared bytes each in 0.4 s, then
			// the long lane's remaining 800 bytes at full rate.
			name: "short lane exits and frees the link",
			lanes: []ContendedLane{
				{Ready: 0, Bytes: 1000},
				{Ready: 0, Bytes: 200},
			},
			want: []time.Duration{1200 * time.Millisecond, 400 * time.Millisecond},
		},
		{
			// Disjoint in time: no sharing, each costs its dedicated time.
			name: "disjoint lanes never contend",
			lanes: []ContendedLane{
				{Ready: 0, Bytes: 100},
				{Ready: time.Second, Bytes: 100},
			},
			want: []time.Duration{100 * time.Millisecond, 1100 * time.Millisecond},
		},
		{
			// A zero-byte response completes the instant it is ready, and a
			// bandwidth-occupying sibling does not delay it.
			name: "zero-byte lane is free",
			lanes: []ContendedLane{
				{Ready: 0, Bytes: 1000},
				{Ready: 300 * time.Millisecond, Bytes: 0},
			},
			want: []time.Duration{time.Second, 300 * time.Millisecond},
		},
	}
	for _, tc := range cases {
		got := m.SharedFinishTimes(tc.lanes)
		for i := range tc.want {
			if !within(got[i], tc.want[i], eps) {
				t.Errorf("%s: lane %d finished at %v, want %v", tc.name, i, got[i], tc.want[i])
			}
		}
	}
}

// TestSharedSingleLaneEqualsIndependent: with one lane there is nothing to
// share — a response that reaches the link after its request transfer, the
// server delay and the return latency finishes exactly at the
// independent-port LaneTime, so the model strictly generalizes the existing
// one.
func TestSharedSingleLaneEqualsIndependent(t *testing.T) {
	for _, m := range []Model{GigabitLAN(), WAN(), {Latency: time.Millisecond}} {
		e := Exchange{ReqBytes: 2 << 10, RespBytes: 256 << 10}
		delay := 300 * time.Microsecond
		lane := ContendedLane{Ready: m.TransferTime(e.ReqBytes) + delay + m.Latency, Bytes: e.RespBytes}
		makespan := m.SharedFinishTimes([]ContendedLane{lane})[0]
		if want := m.LaneTime(e, delay); !within(makespan, want, eps) {
			t.Errorf("model %+v: single shared lane %v, independent %v", m, makespan, want)
		}
	}
}

// TestSharedWaveProperties quickchecks the fluid model over random waves:
//
//  1. sharing never beats independent ports — every lane finishes no earlier
//     than it would with the link to itself;
//  2. adding a lane never speeds up the existing ones (monotone in lane
//     count), and never lowers the makespan;
//  3. the link is work-conserving — the makespan never exceeds the last
//     arrival plus the total dedicated transfer time.
func TestSharedWaveProperties(t *testing.T) {
	m := GigabitLAN()
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(12)
		lanes := make([]ContendedLane, n)
		for i := range lanes {
			lanes[i] = ContendedLane{
				Ready: time.Duration(rng.Int63n(int64(5 * time.Millisecond))),
				Bytes: rng.Int63n(64 << 10),
			}
		}
		done := m.SharedFinishTimes(lanes)
		var makespan, lastReady time.Duration
		var totalSerialize time.Duration
		for i, l := range lanes {
			indep := l.Ready + m.serialize(l.Bytes)
			if done[i]+eps < indep {
				t.Fatalf("trial %d: lane %d finished at %v, before its independent-port time %v",
					trial, i, done[i], indep)
			}
			if done[i] > makespan {
				makespan = done[i]
			}
			if l.Ready > lastReady {
				lastReady = l.Ready
			}
			totalSerialize += m.serialize(l.Bytes)
		}
		if n > 1 {
			prev := m.SharedFinishTimes(lanes[:n-1])
			var prevMakespan time.Duration
			for i := range prev {
				if prev[i] > done[i]+eps {
					t.Fatalf("trial %d: adding lane %d sped lane %d up (%v -> %v)",
						trial, n-1, i, prev[i], done[i])
				}
				if prev[i] > prevMakespan {
					prevMakespan = prev[i]
				}
			}
			if prevMakespan > makespan+eps {
				t.Fatalf("trial %d: adding a lane lowered the makespan (%v -> %v)",
					trial, prevMakespan, makespan)
			}
		}
		if bound := lastReady + totalSerialize; makespan > bound+eps {
			t.Fatalf("trial %d: makespan %v exceeds the work-conservation bound %v",
				trial, makespan, bound)
		}
	}
}

// TestContendedResponseTimeSignal pins the router's cost signal: alone it is
// the plain transfer, and each extra in-flight response stretches it by one
// more dedicated serialize term.
func TestContendedResponseTimeSignal(t *testing.T) {
	m := Model{Latency: time.Millisecond, BandwidthBytesPerSec: 1000}
	if got := m.ContendedResponseTime(500, 0); got != time.Millisecond+500*time.Millisecond {
		t.Errorf("uncontended = %v", got)
	}
	if got := m.ContendedResponseTime(500, 3); got != time.Millisecond+2*time.Second {
		t.Errorf("3 in flight = %v", got)
	}
	prev := time.Duration(-1)
	for k := 0; k < 8; k++ {
		cur := m.ContendedResponseTime(1000, k)
		if cur <= prev {
			t.Fatalf("cost signal not strictly monotone in inflight at k=%d: %v <= %v", k, cur, prev)
		}
		prev = cur
	}
}
