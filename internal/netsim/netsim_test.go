package netsim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestTransferTimeComponents(t *testing.T) {
	m := Model{Latency: time.Millisecond, BandwidthBytesPerSec: 1000}
	if got := m.TransferTime(0); got != time.Millisecond {
		t.Errorf("zero bytes = %v, want pure latency", got)
	}
	// 1000 bytes at 1000 B/s = 1 s + 1 ms latency.
	if got := m.TransferTime(1000); got != time.Second+time.Millisecond {
		t.Errorf("1000B = %v", got)
	}
}

func TestZeroBandwidthMeansLatencyOnly(t *testing.T) {
	m := Model{Latency: 5 * time.Millisecond}
	if got := m.TransferTime(1 << 30); got != 5*time.Millisecond {
		t.Errorf("bandwidth-free model = %v", got)
	}
}

func TestRoundTripIsSumOfTransfers(t *testing.T) {
	m := GigabitLAN()
	if m.RoundTrip(100, 200) != m.TransferTime(100)+m.TransferTime(200) {
		t.Error("RoundTrip must be the sum of both directions")
	}
}

// WAN approximates a wide-area link (20 ms, 50 Mb/s), the setting the paper
// argues benefits even more from reduced message sizes.
func WAN() Model {
	return Model{Latency: 20 * time.Millisecond, BandwidthBytesPerSec: 6.25e6}
}

func TestPresetsOrdering(t *testing.T) {
	lan, wan := GigabitLAN(), WAN()
	if lan.TransferTime(1<<20) >= wan.TransferTime(1<<20) {
		t.Error("a WAN transfer must be slower than LAN")
	}
	if lan.Latency >= wan.Latency {
		t.Error("WAN latency exceeds LAN latency")
	}
}

func TestTransferTimeMonotoneProperty(t *testing.T) {
	m := GigabitLAN()
	f := func(a, b uint32) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		return m.TransferTime(x) <= m.TransferTime(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWaveTimeIsPerWaveMax(t *testing.T) {
	m := Model{Latency: time.Millisecond, BandwidthBytesPerSec: 1000}
	lanes := []Exchange{{ReqBytes: 100, RespBytes: 100}, {ReqBytes: 1000, RespBytes: 500}, {ReqBytes: 10, RespBytes: 10}}
	want := m.RoundTrip(1000, 500) // the slowest lane dominates
	if got := m.WaveTime(lanes); got != want {
		t.Errorf("WaveTime = %v, want slowest lane %v", got, want)
	}
	// A single-lane wave costs exactly its round trip (serial equivalence).
	if got := m.WaveTime(lanes[:1]); got != m.RoundTrip(100, 100) {
		t.Errorf("single-lane wave = %v", got)
	}
	if got := m.WaveTime(nil); got != 0 {
		t.Errorf("empty wave = %v, want 0", got)
	}
}

func TestWaveTimeNeverExceedsSerialSum(t *testing.T) {
	m := GigabitLAN()
	lanes := []Exchange{{1000, 2000}, {500, 500}, {9000, 100}}
	var serial time.Duration
	for _, l := range lanes {
		serial += m.RoundTrip(l.ReqBytes, l.RespBytes)
	}
	if w := m.WaveTime(lanes); w > serial {
		t.Errorf("overlapped %v exceeds serial %v", w, serial)
	}
}

// ------------------------------------------------------------ streaming --

// handModel makes the arithmetic easy: 1 ms latency, 1000 B/s.
func handModel() Model { return Model{Latency: time.Millisecond, BandwidthBytesPerSec: 1000} }

func TestStreamTimesHandComputed(t *testing.T) {
	m := handModel()
	e := StreamedExchange{
		ReqBytes: 1000, // request arrives at 1s + 1ms
		Chunks: []Chunk{
			{Bytes: 500, ExecNS: int64(time.Second), DeserNS: int64(100 * time.Millisecond)},
			{Bytes: 500, ExecNS: 0, DeserNS: int64(100 * time.Millisecond)},
		},
	}
	req := time.Second + time.Millisecond
	// chunk 0: available req+1s, +latency, +0.5s transfer, +0.1s decode.
	first := req + time.Second + time.Millisecond + 500*time.Millisecond + 100*time.Millisecond
	// chunk 1: follows chunk 0's bytes immediately (compute done), transfers
	// 0.5s while chunk 0 decodes (0.1s, hidden), then decodes 0.1s.
	last := req + time.Second + time.Millisecond + time.Second + 100*time.Millisecond
	gotFirst, gotLast := m.StreamTimes(e)
	if gotFirst != first || gotLast != last {
		t.Errorf("StreamTimes = (%v, %v), want (%v, %v)", gotFirst, gotLast, first, last)
	}
	// Gather-whole: everything computed, transferred, decoded in sequence.
	gFirst, gLast := m.GatherTimes(e)
	want := req + time.Second + (time.Millisecond + time.Second) + 200*time.Millisecond
	if gFirst != want || gLast != want {
		t.Errorf("GatherTimes = (%v, %v), want %v", gFirst, gLast, want)
	}
	if gotLast >= gLast {
		t.Errorf("streamed completion %v must beat gather-whole %v", gotLast, gLast)
	}
}

func TestStreamTimesNeverExceedGather(t *testing.T) {
	m := GigabitLAN()
	f := func(req uint16, b1, b2, b3 uint16, e1, e2, e3 uint16, d1, d2, d3 uint16) bool {
		e := StreamedExchange{ReqBytes: int64(req), Chunks: []Chunk{
			{Bytes: int64(b1), ExecNS: int64(e1) * 1000, DeserNS: int64(d1) * 1000},
			{Bytes: int64(b2), ExecNS: int64(e2) * 1000, DeserNS: int64(d2) * 1000},
			{Bytes: int64(b3), ExecNS: int64(e3) * 1000, DeserNS: int64(d3) * 1000},
		}}
		sFirst, sLast := m.StreamTimes(e)
		_, gLast := m.GatherTimes(e)
		return sFirst <= sLast && sLast <= gLast
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStreamedWaveTime(t *testing.T) {
	m := handModel()
	fast := StreamedExchange{ReqBytes: 10, Chunks: []Chunk{{Bytes: 10}}}
	slow := StreamedExchange{ReqBytes: 10, Chunks: []Chunk{{Bytes: 10, ExecNS: int64(time.Second)}, {Bytes: 2000}}}
	wf, wl := m.StreamedWaveTime([]StreamedExchange{slow, fast})
	ff, _ := m.StreamTimes(fast)
	_, sl := m.StreamTimes(slow)
	if wf != ff {
		t.Errorf("wave first = %v, want fastest lane's first chunk %v", wf, ff)
	}
	if wl != sl {
		t.Errorf("wave last = %v, want slowest lane %v", wl, sl)
	}
	gf, gl := m.GatherWaveTime([]StreamedExchange{slow, fast})
	if gf != gl {
		t.Errorf("gather-whole first %v must equal last %v (nothing usable earlier)", gf, gl)
	}
	if wf >= gf {
		t.Errorf("streamed first %v must precede gather completion %v", wf, gf)
	}
}

func TestPipelinedVsWaveBarrier(t *testing.T) {
	m := handModel()
	// Four identical lanes over two slots: pipelined = 2 back-to-back lanes
	// per slot; the barrier schedule is the same here (identical lanes), so
	// use one slow lane to create the difference.
	mk := func(exec time.Duration) StreamedExchange {
		return StreamedExchange{ReqBytes: 10, Chunks: []Chunk{{Bytes: 10, ExecNS: int64(exec)}}}
	}
	lanes := []StreamedExchange{mk(time.Second), mk(0), mk(0), mk(0)}
	pipe := m.PipelinedTime(lanes, 2)
	barrier := m.WaveBarrierTime(lanes, 2)
	if pipe >= barrier {
		t.Errorf("pipelined %v must beat the wave barrier %v with a straggler in wave one", pipe, barrier)
	}
	// Width 1 degenerates to the serial sum for both.
	var serial time.Duration
	for _, l := range lanes {
		_, d := m.GatherTimes(l)
		serial += d
	}
	if b := m.WaveBarrierTime(lanes, 1); b != serial {
		t.Errorf("width-1 barrier = %v, want serial sum %v", b, serial)
	}
}

// TestHedgedLaneTimeHand checks the hedging model against hand-computed
// cases: 1 ms latency, 1000 B/s, so a 100 B request + 200 B response round
// trip costs 1ms+0.1s + 1ms+0.2s = 302 ms.
func TestHedgedLaneTimeHand(t *testing.T) {
	m := handModel()
	e := Exchange{ReqBytes: 100, RespBytes: 200}
	rt := 302 * time.Millisecond
	if got := m.LaneTime(e, 10*time.Millisecond); got != rt+10*time.Millisecond {
		t.Fatalf("LaneTime = %v, want %v", got, rt+10*time.Millisecond)
	}

	// Primary answers before the deadline: no hedge, no waste.
	done, hedged, wasted := m.HedgedLaneTime(e, 0, 0, 400*time.Millisecond)
	if done != rt || hedged || wasted != 0 {
		t.Errorf("fast primary: done=%v hedged=%v wasted=%v, want %v/false/0", done, hedged, wasted, rt)
	}

	// Straggling primary (rt + 10s), healthy replica, hedge at 400 ms: the
	// replica wins at 400ms + rt, and the primary burned the whole window.
	done, hedged, wasted = m.HedgedLaneTime(e, 10*time.Second, 0, 400*time.Millisecond)
	want := 400*time.Millisecond + rt
	if done != want || !hedged || wasted != want {
		t.Errorf("straggler: done=%v hedged=%v wasted=%v, want %v/true/%v", done, hedged, wasted, want, want)
	}

	// Both slow, primary still wins: the hedge ran from its launch to the
	// primary's finish.
	done, hedged, wasted = m.HedgedLaneTime(e, 200*time.Millisecond, 10*time.Second, 400*time.Millisecond)
	if done != rt+200*time.Millisecond || !hedged || wasted != done-400*time.Millisecond {
		t.Errorf("primary wins race: done=%v hedged=%v wasted=%v", done, hedged, wasted)
	}

	// Hedging must never make a lane slower than the unhedged dispatch.
	for _, pd := range []time.Duration{0, 100 * time.Millisecond, time.Second} {
		for _, rd := range []time.Duration{0, 500 * time.Millisecond, 2 * time.Second} {
			for _, after := range []time.Duration{0, 300 * time.Millisecond, 600 * time.Millisecond} {
				d, _, _ := m.HedgedLaneTime(e, pd, rd, after)
				if base := m.LaneTime(e, pd); d > base {
					t.Errorf("hedged %v slower than unhedged %v (pd=%v rd=%v after=%v)", d, base, pd, rd, after)
				}
			}
		}
	}
}

// TestPercentile checks the nearest-rank definition and input preservation.
func TestPercentile(t *testing.T) {
	times := []time.Duration{5, 1, 4, 2, 3}
	cases := []struct {
		p    float64
		want time.Duration
	}{{0, 1}, {20, 1}, {50, 3}, {99, 5}, {100, 5}}
	for _, c := range cases {
		if got := Percentile(times, c.p); got != c.want {
			t.Errorf("P%.0f = %v, want %v", c.p, got, c.want)
		}
	}
	if times[0] != 5 || times[4] != 3 {
		t.Error("Percentile mutated its input")
	}
	if got := Percentile(nil, 99); got != 0 {
		t.Errorf("empty percentile = %v, want 0", got)
	}
}
