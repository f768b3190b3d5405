package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"distxq/internal/xrpc"
)

// span is one timed call into a layer, recorded by the benchmark from
// outside the program. Spans of one query share Query; Parent links a span
// to the span that caused it (0 for a root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Query   int    `json:"query"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, which is how the untraced measurements run.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// start opens a span and returns its id (0 on a nil recorder).
func (r *recorder) start(name string, parent, query int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Query: query, Name: name, StartNS: now})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].EndNS = now
	r.mu.Unlock()
}

// time records fn as one span.
func (r *recorder) time(name string, parent, query int, fn func()) {
	id := r.start(name, parent, query)
	fn()
	r.end(id)
}

// write stores the spans recorded first, up to traceFileSpans of them: a
// run records millions, and a few thousand whole trees are what a reader
// wants. Parents precede their children, so only the last tree can be cut.
func (r *recorder) write(path string) error {
	const traceFileSpans = 100_000
	r.mu.Lock()
	defer r.mu.Unlock()
	data, err := json.Marshal(r.spans[:min(len(r.spans), traceFileSpans)])
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's self time in nanoseconds, indexed like
// spans: its duration minus the part of its interval that its child spans
// cover. Children may overlap each other (concurrent lanes) and are clipped
// to the parent, so the covered part is the length of the union.
func selfTimes(spans []span) []int64 {
	children := map[int][]int{} // span id → indices of its children
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNS < spans[kids[b]].StartNS })
		covered, reach := int64(0), s.StartNS
		for _, k := range kids {
			from, to := max(spans[k].StartNS, reach), min(spans[k].EndNS, s.EndNS)
			if to > from {
				covered += to - from
				reach = to
			}
		}
		self[i] = s.EndNS - s.StartNS - covered
	}
	return self
}

// exchange is one captured lane: the request and what came back, either one
// gathered response or the frames of a stream.
type exchange struct {
	Peer     string
	Request  []byte
	Response []byte
	Frames   [][]byte
}

// recTransport observes dispatch lanes from outside: installed with
// Network.RouteExternal in front of the in-memory transport, it records a
// span per lane under whatever span the benchmark currently has open,
// counts frames, and, while capturing, keeps the messages so the codec
// stages can be replayed on them.
type recTransport struct {
	inner interface {
		xrpc.Transport
		xrpc.StreamTransport
	}
	rec           *recorder
	parent, query atomic.Int64
	frames        atomic.Int64
	firstFrameNS  atomic.Int64 // since the lane began, of the first frame of the newest query
	capture       atomic.Bool
	mu            sync.Mutex
	captured      []exchange
}

// under attaches the lanes of the next query to a parent span.
func (t *recTransport) under(parent, query int) {
	t.parent.Store(int64(parent))
	t.query.Store(int64(query))
	t.firstFrameNS.Store(0)
}

func (t *recTransport) keep(x exchange) {
	if t.capture.Load() {
		t.mu.Lock()
		t.captured = append(t.captured, x)
		t.mu.Unlock()
	}
}

func (t *recTransport) RoundTrip(peer string, request []byte) ([]byte, error) {
	id := t.rec.start("xrpc.lane", int(t.parent.Load()), int(t.query.Load()))
	resp, err := t.inner.RoundTrip(peer, request)
	t.rec.end(id)
	t.keep(exchange{Peer: peer, Request: request, Response: resp})
	return resp, err
}

// RoundTripStream times the client's sink (chunk shredding runs inside it)
// as a child span, so a streamed lane's self time is the server side alone,
// like a gathered lane's.
func (t *recTransport) RoundTripStream(ctx context.Context, peer string, request []byte, sink func([]byte) error) error {
	query := int(t.query.Load())
	begin := time.Now()
	id := t.rec.start("xrpc.lane", int(t.parent.Load()), query)
	x := exchange{Peer: peer, Request: request}
	err := t.inner.RoundTripStream(ctx, peer, request, func(frame []byte) error {
		t.frames.Add(1)
		t.firstFrameNS.CompareAndSwap(0, time.Since(begin).Nanoseconds())
		if t.capture.Load() {
			x.Frames = append(x.Frames, frame)
		}
		sid := t.rec.start("xrpc.sink", id, query)
		defer t.rec.end(sid)
		return sink(frame)
	})
	t.rec.end(id)
	t.keep(x)
	return err
}
