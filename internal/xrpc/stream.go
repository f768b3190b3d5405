package xrpc

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"time"

	"distxq/internal/netsim"
	"distxq/internal/projection"
	"distxq/internal/trace"
	"distxq/internal/xdm"
)

// This file implements streaming XRPC: instead of one gather-whole response
// message, a peer's Bulk-RPC results travel as an ordered sequence of
// self-contained chunk frames. Each frame is a complete SOAP envelope
// (decodable on its own by ParseResponseChunk) carrying a run of consecutive
// result items of one call, its own fragments preamble, a sequence number,
// and per-chunk timing; a terminal frame closes the stream. The originator
// places each frame's items at their loop positions as the frame arrives,
// while the peer is still evaluating and serializing the rest. A streamed
// lane is dispatched, retried and hedged as a gathered one is
// (CallRemoteScatter, retry.go); this file adds only what a streamed attempt
// does (laneCall.stream) and the replay suppression a mid-stream failover
// needs (laneProgress).

// DefaultChunkItems is the per-chunk item budget of a streaming server when
// Server.ChunkItems is zero. The value trades pipelining granularity
// against framing overhead: each frame repeats the envelope and pays its
// own parse, so chunks must be big enough that decoding streams behind the
// transfer instead of dominating it, and small enough that a lane still
// spans several frames.
const DefaultChunkItems = 32

// StreamTransport is an optional Transport extension: the response arrives
// as an ordered sequence of frames delivered to sink as they become
// available instead of one buffered message. A sink error aborts the
// exchange and is returned; ctx cancels the in-flight exchange.
type StreamTransport interface {
	RoundTripStream(ctx context.Context, peer string, request []byte, sink func(frame []byte) error) error
}

// StreamHandler is an optional Handler extension — the server side of a
// StreamTransport. Implementations emit response chunk frames in order; an
// error returned after partial emission is delivered to the caller by the
// transport (as a fault frame), exactly like a Handler error.
type StreamHandler interface {
	HandleStream(request []byte, emit func(frame []byte) error) error
}

// ResponseChunk is the logical content of one stream frame.
type ResponseChunk struct {
	// Seq numbers frames consecutively from 0 within one stream.
	Seq int
	// Last marks the terminal frame: no results, only the total call count
	// (for completeness validation) and the server's request-shred time.
	Last  bool
	Calls int
	// Call / FirstItem locate the run: the 0-based call index and the offset
	// of Items[0] within that call's full result sequence.
	Call      int
	FirstItem int
	Items     xdm.Sequence
	Semantics Semantics
	// ExecNanos reports the call's evaluation time on the first chunk of
	// each call (zero on continuation chunks).
	ExecNanos int64
	// SerializeNanos reports this chunk's marshal time (terminal frame: the
	// request shred time, so client-side serde totals match gather-whole).
	SerializeNanos int64
	// Spans piggybacks the server-side span tree on the terminal frame of a
	// traced stream — the streamed analogue of Response.Spans.
	Spans []trace.Span
}

// chunk serializes one chunk frame into fresh bytes, reusing st's fragment
// scratch from any earlier frame of the stream. Pass-by-projection result
// paths apply per chunk, exactly as MarshalResponse applies them to whole
// results.
func (st *encodeState) chunk(ch *ResponseChunk) ([]byte, error) {
	st.frags, st.items, st.ranks = st.frags[:0], 0, 0
	if ch.Last {
		spans := encodeSpans(ch.Spans)
		st.grow(len(envelopeOpen) + len(spans))
		st.str(envelopeOpen + "<" + elBody + "><" + elChunk + ` seq="`)
		st.num(int64(ch.Seq))
		st.str(`" last="true" calls="`)
		st.num(int64(ch.Calls))
		st.str(`" serde-ns="`)
		st.num(ch.SerializeNanos)
		if len(spans) > 0 {
			st.str(`">`)
			st.traceEl(spans)
			st.str("</" + elChunk + ">")
		} else {
			// Untraced terminal frames keep the pre-trace self-closing form,
			// byte-identical for old goldens and parsers.
			st.str(`"/>`)
		}
	} else {
		if err := st.buildFragments([]xdm.Sequence{ch.Items}, nil); err != nil {
			return nil, err
		}
		st.grow(len(envelopeOpen))
		st.str(envelopeOpen + "<" + elBody + "><" + elChunk + ` seq="`)
		st.num(int64(ch.Seq))
		st.str(`" call="`)
		st.num(int64(ch.Call))
		st.str(`" first-item="`)
		st.num(int64(ch.FirstItem))
		st.str(`" semantics="`)
		st.str(ch.Semantics.String())
		st.str(`" exec-ns="`)
		st.num(ch.ExecNanos)
		st.str(`" serde-ns="`)
		st.num(ch.SerializeNanos)
		st.str(`">`)
		st.writeFragments()
		if err := st.writeSequence(ch.Items); err != nil {
			return nil, err
		}
		st.str("</" + elChunk + ">")
	}
	st.str("</" + elBody + "></env:Envelope>")
	return st.b, nil
}

// ParseResponseChunk shreds one stream frame in one pass. A fault frame
// surfaces as a *Fault error, like ParseResponse.
func ParseResponseChunk(data []byte) (*ResponseChunk, error) {
	return new(decoder).chunk(data, new(ResponseChunk))
}

// chunk decodes one stream frame into ch, which it zeroes first.
func (d *decoder) chunk(data []byte, ch *ResponseChunk) (*ResponseChunk, error) {
	*ch = ResponseChunk{}
	err := d.shred(data, "chunk frame", elChunk, func() error {
		var err error
		if ch.Seq, err = strconv.Atoi(d.attr("seq", "")); err != nil {
			return fmt.Errorf("xrpc: chunk frame without seq")
		}
		ch.SerializeNanos, _ = strconv.ParseInt(d.attr("serde-ns", "0"), 10, 64)
		if d.attr("last", "") == "true" {
			ch.Last = true
			if ch.Calls, err = strconv.Atoi(d.attr("calls", "")); err != nil {
				return fmt.Errorf("xrpc: terminal frame without calls count")
			}
			traced := false
			return d.children(func(name string) error {
				if localName(name) == "trace" && first(&traced) {
					return d.spans(&ch.Spans)
				}
				return d.sc.Skip()
			})
		}
		if ch.Semantics, err = ParseSemantics(d.attr("semantics", "by-value")); err != nil {
			return err
		}
		d.raw = d.raw && ch.Semantics == ByFragment
		if ch.Call, err = strconv.Atoi(d.attr("call", "")); err != nil {
			return fmt.Errorf("xrpc: chunk frame without call index")
		}
		if ch.FirstItem, err = strconv.Atoi(d.attr("first-item", "")); err != nil {
			return fmt.Errorf("xrpc: chunk frame without first-item")
		}
		ch.ExecNanos, _ = strconv.ParseInt(d.attr("exec-ns", "0"), 10, 64)
		found := false
		err = d.payload("sequence", func(name string) error {
			if localName(name) == "sequence" && first(&found) {
				ch.Items, err = d.sequence(name)
				return err
			}
			return d.sc.Skip()
		})
		if err == nil && !found {
			err = fmt.Errorf("xrpc: chunk frame without sequence")
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return ch, nil
}

// patchSerdeNS rewrites the value of the serde-ns attribute of a marshalled
// message in place: the attribute is written in the payload open tag, which
// precedes any payload bytes, so its first occurrence is always the
// attribute. A value with more or fewer digits shifts the tail of the
// message within its buffer; the message is copied only when the buffer has
// no room for an extra digit. The caller must own data.
func patchSerdeNS(data []byte, v int64) []byte {
	const attr = ` serde-ns="`
	i := bytes.Index(data, []byte(attr))
	if i < 0 {
		return data
	}
	start := i + len(attr)
	j := bytes.IndexByte(data[start:], '"')
	if j < 0 {
		return data
	}
	end := start + j
	var digits [20]byte
	val := strconv.AppendInt(digits[:0], v, 10)
	tail := len(data) - end
	if grow := len(val) - (end - start); grow > 0 {
		data = append(data, digits[:grow]...)
	}
	copy(data[start+len(val):], data[end:end+tail])
	copy(data[start:], val)
	return data[:start+len(val)+tail]
}

// chunkWriter emits the ordered chunk frames of one streamed response:
// beginCall/addItems/endCall frame a call as its results are handed over — an
// already-materialized result at once (MarshalResponseStream), a live
// evaluation part by part (HandleStream). A frame leaves every itemsPer
// items, mid-evaluation, so the writer itself never holds more than one
// frame's worth of a result. peak records the high-water mark of buffered
// items, a sequence being handed over included; it is what the
// bounded-memory guarantee is measured by.
type chunkWriter struct {
	enc      encodeState // every frame's encoder: its scratch is run-scoped
	itemsPer int
	emit     func([]byte) error
	// A writer given a mark (HandleStream's) reads the clock as a frame
	// starts to marshal, once marshalled and once emitted: the time since
	// the last frame was emitted is evaluation, the frame's exec-ns (partial,
	// not whole-call, time).
	mark time.Time
	exec int64 // evaluation time the next frame carries
	err  error // what addItems failed with, which stops the evaluation

	seq, calls, peak      int
	execNS, serdeNS, sent int64 // totals over the frames

	// per-call incremental state
	buf       xdm.Sequence
	call      int
	firstItem int
	emitted   bool // current call has at least one frame out
}

// per returns the effective items-per-frame budget.
func (w *chunkWriter) per() int {
	if w.itemsPer > 0 {
		return w.itemsPer
	}
	return DefaultChunkItems
}

// beginCall starts incremental emission of one call's result.
func (w *chunkWriter) beginCall(call int) {
	w.call, w.firstItem, w.emitted = call, 0, false
	w.buf = w.buf[:0]
}

// addItems buffers the items of seq, part of the current call, emitting a
// frame the moment a full chunk has accumulated — while the producing
// evaluation is still running. Until it is handed over the whole of seq
// counts as buffered.
func (w *chunkWriter) addItems(seq xdm.Sequence) error {
	w.peak = max(w.peak, len(w.buf)+len(seq))
	if w.buf == nil {
		w.buf = make(xdm.Sequence, 0, w.per())
	}
	for _, it := range seq {
		w.buf = append(w.buf, it)
		if len(w.buf) >= w.per() {
			if err := w.flushChunk(); err != nil {
				w.err = err
				return err
			}
		}
	}
	return nil
}

// endCall flushes the remainder of the current call. An empty result still
// emits one (empty) frame, so the client can tell "empty call" from
// "missing call".
func (w *chunkWriter) endCall() error {
	if len(w.buf) > 0 || !w.emitted {
		if err := w.flushChunk(); err != nil {
			return err
		}
	}
	w.calls = w.call + 1
	return nil
}

// flushChunk emits the buffered run as one frame, carrying the evaluation
// time accumulated since the previous frame.
func (w *chunkWriter) flushChunk() error {
	t0 := time.Now()
	if !w.mark.IsZero() {
		w.exec += t0.Sub(w.mark).Nanoseconds()
	}
	data, err := w.enc.chunk(&ResponseChunk{
		Seq: w.seq, Call: w.call, FirstItem: w.firstItem,
		Items: w.buf, Semantics: w.enc.sem, ExecNanos: w.exec,
	})
	if err != nil {
		return err
	}
	ser := time.Since(t0).Nanoseconds()
	w.execNS += w.exec
	w.serdeNS += ser
	w.exec = 0
	data = patchSerdeNS(data, ser)
	w.seq++
	w.firstItem += len(w.buf)
	w.buf = w.buf[:0]
	w.emitted = true
	w.sent += int64(len(data))
	err = w.emit(data)
	if !w.mark.IsZero() {
		w.mark = time.Now()
	}
	return err
}

// close emits the terminal frame; shredNS is the server's request-shred
// time, delivered here so the client's serde accounting matches Handle's.
// spans, when present, piggyback the server's trace tree on the frame.
func (w *chunkWriter) close(shredNS int64, spans []trace.Span) error {
	data, err := w.enc.chunk(&ResponseChunk{
		Seq: w.seq, Last: true, Calls: w.calls, SerializeNanos: shredNS, Spans: spans,
	})
	if err != nil {
		return err
	}
	w.seq++
	w.sent += int64(len(data))
	return w.emit(data)
}

// MarshalResponseStream splits an already-evaluated response into chunk
// frames (at most itemsPerChunk result items each) delivered to emit in
// order, terminal frame included. It is the gather-to-stream adaptor: the
// framing tests and non-incremental servers use it; Server.HandleStream
// instead emits a call's frames while the call is still evaluating.
func MarshalResponseStream(resp *Response, itemsPerChunk int, resultUsed, resultReturned projection.PathSet, opts projection.Options, emit func([]byte) error) error {
	w := &chunkWriter{
		enc:      resultEncoder(resp.Semantics, resultUsed, resultReturned, opts),
		itemsPer: itemsPerChunk, emit: emit,
		exec: resp.ExecNanos, // the first frame carries it
	}
	for ci, res := range resp.Results {
		w.beginCall(ci)
		if err := w.addItems(res); err != nil {
			return err
		}
		if err := w.endCall(); err != nil {
			return err
		}
	}
	return w.close(resp.SerializeNanos, resp.Spans)
}

// HandleStream implements StreamHandler: each call's results leave the peer
// as chunk frames while the call is still evaluating. The engine emits the
// shipped function's result at its body's top-level boundaries
// (eval.Engine.EvalFunctionEmit) and the writer cuts a frame every
// ChunkItems items, so frame boundaries are the writer's alone, peak result
// buffering is one frame plus what one boundary emits, and the first frame's
// latency is the time to the first ChunkItems items rather than the whole
// call. The writer also times the frames, so the hand-over itself reads no
// clock. A cached module carries its Program, and a module on its first
// sighting is lowered for this request (one compilation, dropped with the
// uncached parse). Evaluation errors are returned after the frames that
// precede them (those frames are a valid prefix — streaming never reorders
// items); the transport delivers them as fault frames, and failover replay
// suppression resumes past the delivered prefix as with any mid-stream
// fault.
func (s *Server) HandleStream(request []byte, emit func([]byte) error) error {
	arrival := time.Now()
	req, q, holes, static, shredNS, err := s.prepare(request)
	if err != nil {
		return err
	}
	root := s.serveSpan(req, arrival, "serve-stream", shredNS)
	deadline := requestDeadline(req, arrival)
	resultU, resultR := responsePaths(req)
	w := &chunkWriter{
		enc:      resultEncoder(req.Semantics, resultU, resultR, s.ProjOpts),
		itemsPer: s.ChunkItems, emit: emit, mark: time.Now(),
	}
	for ci, params := range req.Calls {
		csp := root.Child("call")
		w.beginCall(ci)
		err := s.Engine.EvalFunctionEmit(q, req.Method, params, static, deadline, w.addItems, holes...)
		switch {
		case w.err != nil:
			err = w.err
		case err != nil:
			err = fmt.Errorf("xrpc: evaluating %s: %w", req.Method, err)
		default:
			err = w.endCall()
		}
		if err != nil {
			// The fault frame carries the partial server span tree, which the
			// originator's failover lane ingests even though the stream died.
			csp.EndErr(err)
			root.EndErr(err)
			return TracedError(err, root.Trace().ExportSpans())
		}
		csp.End()
	}
	// The root closes before the terminal frame so its end time travels in
	// the exported tree; the frame's own marshal cost stays in serde-ns.
	root.End()
	if err := w.close(shredNS, root.Trace().ExportSpans()); err != nil {
		return err
	}
	if s.Metrics != nil {
		s.Metrics.Add(&Metrics{
			Requests:          1,
			BytesReceived:     int64(len(request)),
			BytesSent:         w.sent,
			RemoteExecNS:      w.execNS,
			ServerSerdeNS:     shredNS + w.serdeNS,
			PeakBufferedItems: int64(w.peak),
		})
	}
	return nil
}

// ---------------------------------------------------------- client side --

// ChunkStat records one received chunk of a streamed lane, in arrival
// order: frame size, preceding server evaluation and client decode time. It
// is the netsim model's chunk, so a lane's chunks are the model's input.
type ChunkStat = netsim.Chunk

// laneState is one streamed attempt's record: it validates the frame
// protocol, keeps the attempt's position in its own stream, and totals what
// the exchange moved.
type laneState struct {
	exchangeTotals
	expect    int // iterations of the batch
	nextSeq   int
	curCall   int
	curItem   int  // items delivered of curCall
	seen      bool // curCall has appeared in at least one frame
	done      bool // terminal frame (or gather-whole response) received
	committed bool // the attempt claimed the lane on its first frame
	chunks    []ChunkStat
	// Every frame of the attempt decodes in dec, into frame (reset each time).
	dec   decoder
	frame ResponseChunk
}

// parseChunk decodes a frame into st.frame.
func (st *laneState) parseChunk(d *decoder, data []byte) (*ResponseChunk, error) {
	return d.chunk(data, &st.frame)
}

func (st *laneState) accept(ch *ResponseChunk) error {
	if st.done {
		return fmt.Errorf("xrpc: frame %d after terminal frame", ch.Seq)
	}
	if ch.Seq != st.nextSeq {
		return fmt.Errorf("xrpc: stream frame %d out of order (want %d)", ch.Seq, st.nextSeq)
	}
	st.nextSeq++
	if ch.Last {
		if ch.Calls != st.expect {
			return fmt.Errorf("xrpc: stream carries %d calls for %d iterations", ch.Calls, st.expect)
		}
		if st.expect > 0 && (st.curCall != st.expect-1 || !st.seen) {
			return fmt.Errorf("xrpc: stream ended after call %d of %d", st.curCall, st.expect)
		}
		st.done = true
		return nil
	}
	switch {
	case ch.Call == st.curCall+1 && st.seen:
		st.curCall++
		st.curItem = 0
	case ch.Call == st.curCall:
	default:
		return fmt.Errorf("xrpc: stream chunk for call %d item %d arrived at call %d item %d",
			ch.Call, ch.FirstItem, st.curCall, st.curItem)
	}
	if ch.Call >= st.expect {
		return fmt.Errorf("xrpc: stream carries call %d for %d iterations", ch.Call, st.expect)
	}
	if ch.FirstItem != st.curItem {
		return fmt.Errorf("xrpc: stream chunk of call %d starts at item %d, want %d",
			ch.Call, ch.FirstItem, st.curItem)
	}
	st.seen = true
	st.curItem += len(ch.Items)
	return nil
}

// stream performs attempt a as one streamed Bulk RPC exchange, placing
// result increments as frames arrive and totalling metrics exactly as
// callBulkCtx does for gather-whole exchanges. The first response frame to
// reach the originator — the liveness signal a hedge is timed against —
// claims the lane through a.commit before anything is placed; a refused
// exchange is abandoned. Each attempt replays from call 0 with a fresh
// stream position; only the lane's progress persists across attempts.
func (l *laneCall) stream(ctx context.Context, a *attempt) (Lane, error) {
	c, target, sp := l.c, a.peer, a.sp
	data, serNS, err := c.marshalCall(ctx, target, l.x, l.iters, sp)
	if err != nil {
		return Lane{}, err
	}
	if sp.Active() {
		ctx = withTraceInfo(ctx, uint64(sp.TraceID()), uint64(sp.SpanID()))
	}
	// Room for a few frames' stats and the report's terminal pseudo-chunk.
	st := &laneState{expect: len(l.iters), chunks: make([]ChunkStat, 0, 4)}
	st.sent, st.serNS = int64(len(data)), serNS
	t1 := time.Now()
	err = l.stx.RoundTripStream(ctx, target, data, func(frame []byte) error { return l.frame(st, a, frame) })
	st.wallNS = time.Since(t1).Nanoseconds()
	if err == nil && !st.done {
		err = fmt.Errorf("xrpc: stream from %s ended without terminal frame", target)
	}
	c.observe(sp, target, st.wallNS, err)
	// A lane that died mid-stream still moved the request and every frame
	// before the fault: a failover run's traffic totals count the dead
	// primary's partial stream, though waves carry winners only.
	if err == nil || st.recvd > 0 {
		c.account(&st.exchangeTotals)
	}
	if err != nil {
		return Lane{}, err
	}
	lane := st.lane(target)
	lane.Chunks = st.chunks
	return lane, nil
}

// frame takes one frame of attempt a's stream and places its results.
func (l *laneCall) frame(st *laneState, a *attempt, frame []byte) error {
	if !st.committed {
		if !a.commit() {
			return context.Canceled
		}
		st.committed = true
	}
	t0 := time.Now()
	chunk, err := decode(&st.dec, frame, l.x.ReturnedOnly, &st.raw, st.parseChunk)
	if err != nil {
		// A peer that does not stream answers with one gather-whole response
		// message, decoded as a gather attempt decodes it and placed one
		// increment per call. Only legal as the very first frame — a whole
		// response after chunk frames would silently duplicate results.
		resp, rerr := decode(&st.dec, frame, l.x.ReturnedOnly, &st.raw, (*decoder).response)
		switch {
		case rerr != nil:
			return err
		case st.nextSeq != 0 || st.done:
			return fmt.Errorf("xrpc: gather-whole response after %d stream frames", st.nextSeq)
		}
		if err := st.whole(a.sp, resp, len(frame), t0, st.expect); err != nil {
			return err
		}
		st.done = true
		return l.placeAll(resp.Results)
	}
	deser := time.Since(t0).Nanoseconds()
	if err := st.accept(chunk); err != nil {
		return err
	}
	st.recvd += int64(len(frame))
	st.deserNS += deser
	st.execNS += chunk.ExecNanos
	st.serdeNS += chunk.SerializeNanos
	if chunk.Last {
		// The terminal frame piggybacks the server's span tree.
		a.sp.IngestRemote(chunk.Spans)
		return nil
	}
	if a.sp.Active() {
		a.sp.Event("frame",
			trace.Int("seq", int64(chunk.Seq)),
			trace.Int("call", int64(chunk.Call)),
			trace.Int("bytes", int64(len(frame))))
	}
	st.chunks = append(st.chunks, ChunkStat{
		Bytes: int64(len(frame)), ExecNS: chunk.ExecNanos, DeserNS: deser,
	})
	return l.place(chunk.Call, chunk.FirstItem, chunk.Items)
}

// ---------------------------------------------------- replay suppression --

// laneProgress records how much of a lane the sink already holds, across
// attempts: everything of calls before call, plus the first item items of
// call itself (seen marks whether any increment of call was placed — an
// empty call places an itemless increment).
type laneProgress struct {
	call int
	item int
	seen bool
}

// fresh returns the part of an attempt's increment — the items of call k
// from item start on — that the sink does not hold yet, and whether there is
// anything to place. A retried stream restarts from call 0: because replicas
// hold byte-identical shard documents and evaluation is deterministic, the
// replayed prefix is byte-identical to what the sink already holds, so only
// the suffix beyond p is placed — results stay exactly loop-ordered and
// duplicate-free even when the replacement peer chunks its stream
// differently.
func (p *laneProgress) fresh(k, start int, items xdm.Sequence) (xdm.Sequence, bool) {
	end := start + len(items)
	switch {
	case k < p.call:
		return nil, false // fully delivered before the failover
	case k == p.call:
		skip := min(max(p.item-start, 0), len(items))
		if skip == len(items) && p.seen {
			return nil, false // nothing new in this increment
		}
		p.seen = true
		p.item = max(p.item, end)
		return items[skip:], true
	default: // first increment of a call beyond the failover point
		p.call, p.item, p.seen = k, end, true
		return items, true
	}
}
