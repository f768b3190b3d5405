// Package netsim provides a deterministic network cost model. The paper's
// evaluation ran on three machines with 1 Gb/s Ethernet; this repository runs
// peers in one process, so transports account simulated transfer time from a
// configurable latency + bandwidth model instead of wall-clock socket time.
// The model makes the Figure 8/9 "network" component reproducible on any
// machine.
//
// The layer's contract: every function is a pure pricing of measured or
// injected inputs (bytes, compute nanoseconds, delays) under a latency +
// bandwidth link — same inputs, same answer, on any machine. The model
// grows with the dispatch layer it prices: single exchanges (RoundTrip),
// concurrent scatter waves charged the per-wave maximum (WaveTime),
// streamed lanes as compute/transfer/decode pipelines (StreamTimes,
// PipelinedTime), and hedged lanes racing a replica after a deadline
// (HedgedLaneTime, with Percentile for tail statistics). netsim imports
// nothing from the rest of the system.
package netsim

import (
	"math"
	"sort"
	"time"
)

// Model is a latency + bandwidth link model.
type Model struct {
	// Latency is the one-way message latency.
	Latency time.Duration
	// BandwidthBytesPerSec is the link throughput. Zero disables the
	// bandwidth term.
	BandwidthBytesPerSec float64
}

// GigabitLAN approximates the paper's testbed: 1 Gb/s Ethernet, 0.2 ms
// one-way latency.
func GigabitLAN() Model {
	return Model{Latency: 200 * time.Microsecond, BandwidthBytesPerSec: 125e6}
}

// TransferTime returns the simulated time to move n bytes one way.
func (m Model) TransferTime(n int64) time.Duration {
	d := m.Latency
	if m.BandwidthBytesPerSec > 0 {
		d += time.Duration(float64(n) / m.BandwidthBytesPerSec * float64(time.Second))
	}
	return d
}

// RoundTrip returns the simulated time for a request/response exchange.
func (m Model) RoundTrip(reqBytes, respBytes int64) time.Duration {
	return m.TransferTime(reqBytes) + m.TransferTime(respBytes)
}

// Exchange is one request/response pair, the unit of wave accounting.
type Exchange struct {
	ReqBytes  int64
	RespBytes int64
}

// Timeline is one exchange broken into phase-completion instants, relative
// to the exchange's start: request delivered to the peer, remote execution
// finished, response delivered back. The trace figure builds its simulated
// waterfalls from these instants.
type Timeline struct {
	ReqDoneNS  int64
	ExecDoneNS int64
	RespDoneNS int64
}

// Timeline prices an exchange whose remote evaluation takes execNS.
func (m Model) Timeline(e Exchange, execNS int64) Timeline {
	req := m.TransferTime(e.ReqBytes).Nanoseconds()
	exec := req + execNS
	return Timeline{
		ReqDoneNS:  req,
		ExecDoneNS: exec,
		RespDoneNS: exec + m.TransferTime(e.RespBytes).Nanoseconds(),
	}
}

// WaveTime returns the simulated duration of a set of exchanges dispatched
// concurrently (one scatter-gather wave): overlapped transfers cost the
// slowest lane — the per-wave maximum — instead of the serial sum, modeling
// peers that sit behind independent switch ports as in the paper's testbed.
// A single-lane wave therefore costs exactly RoundTrip.
func (m Model) WaveTime(lanes []Exchange) time.Duration {
	var w time.Duration
	for _, l := range lanes {
		if d := m.RoundTrip(l.ReqBytes, l.RespBytes); d > w {
			w = d
		}
	}
	return w
}

// ------------------------------------------------------------ streaming --

// Chunk is one response frame of a streamed exchange: its wire size, the
// server compute that had to finish before the frame could leave (the
// call's evaluation time, carried by the call's first chunk), and the
// originator-side decode cost.
type Chunk struct {
	Bytes   int64
	ExecNS  int64
	DeserNS int64
}

// StreamedExchange is one streamed request/response lane: the request
// travels whole, the response comes back as ordered chunks.
type StreamedExchange struct {
	ReqBytes int64
	Chunks   []Chunk
}

// serialize returns the pure bandwidth term for n bytes (no latency).
func (m Model) serialize(n int64) time.Duration {
	if m.BandwidthBytesPerSec <= 0 {
		return 0
	}
	return time.Duration(float64(n) / m.BandwidthBytesPerSec * float64(time.Second))
}

// StreamTimes models one streamed lane as a three-stage pipeline — server
// compute, transfer, client decode. Chunk i becomes available once the
// request has arrived and the compute of chunks 0..i has finished; its
// bytes follow the previous chunk's on the open connection (the one-way
// latency delays each chunk's first byte, but chunks in flight overlap);
// the client decodes chunk i while chunk i+1 is still transferring. first
// is when the first chunk has been decoded — the originator's first usable
// result — and last when the final one has.
func (m Model) StreamTimes(e StreamedExchange) (first, last time.Duration) {
	reqArrived := m.TransferTime(e.ReqBytes)
	if len(e.Chunks) == 0 {
		return reqArrived, reqArrived
	}
	var computed, arrived, decoded time.Duration
	for i, c := range e.Chunks {
		computed += time.Duration(c.ExecNS)
		avail := reqArrived + computed + m.Latency
		if arrived > avail {
			avail = arrived
		}
		arrived = avail + m.serialize(c.Bytes)
		start := arrived
		if decoded > start {
			start = decoded
		}
		decoded = start + time.Duration(c.DeserNS)
		if i == 0 {
			first = decoded
		}
	}
	return first, decoded
}

// GatherTimes models the same lane without streaming: the peer computes
// every chunk, the whole response transfers, and the client decodes it
// whole — nothing is usable before everything arrived, so first equals
// last.
func (m Model) GatherTimes(e StreamedExchange) (first, last time.Duration) {
	var respBytes, execNS, deserNS int64
	for _, c := range e.Chunks {
		respBytes += c.Bytes
		execNS += c.ExecNS
		deserNS += c.DeserNS
	}
	total := m.TransferTime(e.ReqBytes) + time.Duration(execNS) +
		m.TransferTime(respBytes) + time.Duration(deserNS)
	return total, total
}

// StreamedWaveTime returns the first-result and completion time of a wave
// of streamed lanes in flight together (independent ports, like WaveTime):
// the originator's first usable result is the fastest lane's first chunk,
// completion is the slowest lane's last.
func (m Model) StreamedWaveTime(lanes []StreamedExchange) (first, last time.Duration) {
	for i, l := range lanes {
		f, d := m.StreamTimes(l)
		if i == 0 || f < first {
			first = f
		}
		if d > last {
			last = d
		}
	}
	return first, last
}

// GatherWaveTime is the gather-whole counterpart of StreamedWaveTime: no
// result is usable before the slowest lane finished, so first equals last.
func (m Model) GatherWaveTime(lanes []StreamedExchange) (first, last time.Duration) {
	for _, l := range lanes {
		if _, d := m.GatherTimes(l); d > last {
			last = d
		}
	}
	return last, last
}

// PipelinedTime returns the makespan of dispatching lanes over width
// concurrent slots without wave barriers: each slot starts its next lane
// the moment its current one completes, so a finished lane's slot overlaps
// the next lane's chunks with its siblings' — chunk pipelining across
// waves. Lanes are assigned greedily in order to the earliest-free slot.
func (m Model) PipelinedTime(lanes []StreamedExchange, width int) time.Duration {
	if width < 1 {
		width = 1
	}
	slots := make([]time.Duration, min(width, max(len(lanes), 1)))
	for _, l := range lanes {
		best := 0
		for i := range slots {
			if slots[i] < slots[best] {
				best = i
			}
		}
		_, d := m.StreamTimes(l)
		slots[best] += d
	}
	var makespan time.Duration
	for _, s := range slots {
		if s > makespan {
			makespan = s
		}
	}
	return makespan
}

// WaveBarrierTime is the wave-scheduled counterpart of PipelinedTime:
// lanes dispatch in consecutive waves of width, each wave waiting for the
// slowest lane of the previous one — how gather-whole scatter behaves when
// there are more peers than pool workers.
func (m Model) WaveBarrierTime(lanes []StreamedExchange, width int) time.Duration {
	if width < 1 {
		width = 1
	}
	var total time.Duration
	for start := 0; start < len(lanes); start += width {
		_, last := m.GatherWaveTime(lanes[start:min(start+width, len(lanes))])
		total += last
	}
	return total
}

// -------------------------------------------------------------- hedging --
//
// A scatter wave completes when its slowest lane does, so one straggling
// peer sets the whole query's latency: at N lanes, the wave samples the
// per-lane tail N times per query. Hedging bounds that tail — if a lane has
// not answered within a deadline, the identical exchange is issued to a
// replica and the earlier response wins. The model below prices one hedged
// lane deterministically; callers sweep it over an injected delay
// distribution (bench.FigHedge) to reproduce the P99 effect.

// LaneTime is the completion time of one unhedged request/response lane
// whose server spends delay between receiving the request and answering —
// evaluation time, queueing, or an injected straggle.
func (m Model) LaneTime(e Exchange, delay time.Duration) time.Duration {
	return m.RoundTrip(e.ReqBytes, e.RespBytes) + delay
}

// HedgedLaneTime prices the same lane dispatched under a hedging policy: if
// the primary (server delay primaryDelay) has not answered by hedgeAfter,
// the exchange is duplicated to a replica (server delay replicaDelay) and
// the earlier response wins, the loser being cancelled at that moment.
// done is the lane's completion; hedged reports whether the hedge fired;
// wasted is the time the losing attempt spent in flight before its
// cancellation — zero when the primary answered within the deadline and no
// hedge was launched.
func (m Model) HedgedLaneTime(e Exchange, primaryDelay, replicaDelay, hedgeAfter time.Duration) (done time.Duration, hedged bool, wasted time.Duration) {
	primary := m.LaneTime(e, primaryDelay)
	if hedgeAfter < 0 || primary <= hedgeAfter {
		return primary, false, 0
	}
	hedge := hedgeAfter + m.LaneTime(e, replicaDelay)
	if hedge < primary {
		// The replica won; the primary burned the whole window from dispatch
		// to the winner's finish.
		return hedge, true, hedge
	}
	// The primary won after all; the hedge ran from its launch to the finish.
	return primary, true, primary - hedgeAfter
}

// Percentile returns the pth percentile (nearest-rank, p in [0, 100]) of
// the given durations. The input is not modified.
func Percentile(times []time.Duration, p float64) time.Duration {
	if len(times) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), times...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
