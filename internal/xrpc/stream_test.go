package xrpc

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distxq/internal/eval"
	"distxq/internal/projection"
	"distxq/internal/testkit"
	"distxq/internal/xdm"
	"distxq/internal/xq"
)

// collectFrames marshals a response into its stream frames.
func collectFrames(t testing.TB, resp *Response, itemsPerChunk int) [][]byte {
	t.Helper()
	var frames [][]byte
	err := MarshalResponseStream(resp, itemsPerChunk, nil, nil, projection.Options{},
		func(frame []byte) error {
			frames = append(frames, append([]byte(nil), frame...))
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	return frames
}

// reassemble parses every frame, validates the lane protocol, and
// reassembles the per-call result sequences.
func reassemble(t testing.TB, frames [][]byte, calls int) []xdm.Sequence {
	t.Helper()
	st := &laneState{expect: calls}
	out := make([]xdm.Sequence, calls)
	for _, frame := range frames {
		ch, err := ParseResponseChunk(frame)
		if err != nil {
			t.Fatalf("parse chunk: %v", err)
		}
		if err := st.accept(ch); err != nil {
			t.Fatalf("accept chunk %d: %v", ch.Seq, err)
		}
		if !ch.Last {
			out[ch.Call] = append(out[ch.Call], ch.Items...)
		}
	}
	if !st.done {
		t.Fatal("stream ended without terminal frame")
	}
	return out
}

// Document shapes of streamTestResponse beyond the plain library.
const (
	shapeLibrary   = iota // <book id><title>text</title><pages>n</pages></book>
	shapeMixed            // text interleaved with elements; text nodes are items too
	shapeTextRuns         // constructed tree with adjacent text siblings (one nodeid)
	shapeAttrsOnly        // every node item is an attribute: fragments ship only as owners
	shapeCount
)

// streamTestResponse builds a response with mixed content: atomics of every
// type, fragment-referenced nodes (elements, attributes, text), an empty
// call, and calls of very different sizes.
func streamTestResponse(t testing.TB, sem Semantics, rng *rand.Rand, calls int) *Response {
	return shapedTestResponse(t, sem, rng, calls, shapeLibrary)
}

// shapedTestResponse is streamTestResponse over one of the document shapes
// above; picks holds the nodes its calls may ship.
func shapedTestResponse(t testing.TB, sem Semantics, rng *rand.Rand, calls, shape int) *Response {
	t.Helper()
	n := 5 + rng.Intn(40)
	var doc *xdm.Document
	if shape == shapeTextRuns {
		doc = xdm.NewDocument("mem://stream-test")
		lib := xdm.NewElement("lib")
		doc.Root.AppendChild(lib)
		for i := 0; i < n; i++ {
			book := xdm.NewElement("book")
			book.SetAttr("id", fmt.Sprintf("b%d", i))
			for r := 0; r <= i%3; r++ {
				book.AppendChild(xdm.NewText(fmt.Sprintf("run%d<&>", r))) // adjacent siblings
			}
			book.AppendChild(xdm.NewElement("sep"))
			book.AppendChild(xdm.NewText("after"))
			book.AppendChild(xdm.NewText(" sep"))
			lib.AppendChild(book)
		}
		doc.Freeze()
	} else {
		var sb strings.Builder
		sb.WriteString("<lib>")
		for i := 0; i < n; i++ {
			if shape == shapeMixed {
				fmt.Fprintf(&sb, `<book id="b%d">lead %d <b>bold<i>deep</i></b> mid &amp; <!--c--><pages>%d</pages> tail</book>`,
					i, i, 100+i)
				continue
			}
			fmt.Fprintf(&sb, `<book id="b%d"><title>T%d &amp; more</title><pages>%d</pages></book>`,
				i, i, 100+i)
		}
		sb.WriteString("</lib>")
		var err error
		if doc, err = xdm.ParseString(sb.String(), "mem://stream-test"); err != nil {
			t.Fatal(err)
		}
	}
	var books, picks []*xdm.Node
	doc.Root.WalkDescendants(func(m *xdm.Node) bool {
		if m.Kind == xdm.ElementNode && m.Name == "book" {
			books = append(books, m)
		}
		switch {
		case shape == shapeAttrsOnly:
			picks = append(picks, m.Attrs...)
		case shape == shapeTextRuns && m.Kind == xdm.TextNode:
			// A member of a run ships as the whole run inside its parent's
			// fragment but as itself in a fragment of its own, so which of
			// the two a frame carries depends on the split: not an item the
			// round trip can promise. The elements after a run exercise what
			// runs are about — one nodeid per run.
		case m.Kind != xdm.DocumentNode && m.Name != "lib":
			picks = append(picks, m)
		}
		return true
	})
	resp := &Response{Semantics: sem, ExecNanos: 12345, SerializeNanos: 678}
	for c := 0; c < calls; c++ {
		var s xdm.Sequence
		for len(s) < rng.Intn(2*n) {
			switch rng.Intn(6) {
			case 0:
				s = append(s, xdm.NewInteger(int64(rng.Intn(1000))))
			case 1:
				s = append(s, xdm.NewString(fmt.Sprintf("s<%d>&", rng.Intn(100))))
			case 2:
				s = append(s, xdm.NewBoolean(rng.Intn(2) == 0))
			case 3:
				s = append(s, xdm.NewDouble(float64(rng.Intn(100))/4))
			default:
				if shape != shapeLibrary {
					s = append(s, picks[rng.Intn(len(picks))])
					continue
				}
				b := books[rng.Intn(len(books))]
				if sem != ByValue && rng.Intn(3) == 0 {
					if a := b.Attr("id"); a != nil {
						s = append(s, a)
						continue
					}
				}
				s = append(s, b)
			}
		}
		resp.Results = append(resp.Results, s)
	}
	if calls > 1 {
		resp.Results[rng.Intn(calls)] = xdm.Sequence{} // an empty call
	}
	return resp
}

// TestChunkFramingRoundTripAdversarial: for adversarially small and odd
// split points, the reassembled stream must serialize byte-identically to
// the gather-whole response.
func TestChunkFramingRoundTripAdversarial(t *testing.T) {
	for _, sem := range []Semantics{ByValue, ByFragment} {
		for _, seed := range []int64{1, 2, 3} {
			rng := rand.New(rand.NewSource(seed))
			calls := 1 + rng.Intn(4)
			resp := streamTestResponse(t, sem, rng, calls)

			whole, err := MarshalResponse(resp, nil, nil, projection.Options{})
			if err != nil {
				t.Fatal(err)
			}
			wholeParsed, err := ParseResponse(whole)
			if err != nil {
				t.Fatal(err)
			}

			maxItems := 0
			for _, s := range resp.Results {
				maxItems = max(maxItems, len(s))
			}
			for per := 1; per <= maxItems+1; per++ {
				frames := collectFrames(t, resp, per)
				got := reassemble(t, frames, calls)
				for c := range got {
					want := serialize(wholeParsed.Results[c])
					if g := serialize(got[c]); g != want {
						t.Fatalf("sem=%v seed=%d per=%d call %d:\n got %q\nwant %q",
							sem, seed, per, c, g, want)
					}
				}
			}
		}
	}
}

// FuzzChunkRoundTrip drives the framing codec with fuzzer-chosen content
// shapes and split points.
func FuzzChunkRoundTrip(f *testing.F) {
	f.Add(int64(7), 1, false, uint8(shapeLibrary))
	f.Add(int64(42), 3, true, uint8(shapeLibrary))
	f.Add(int64(99), 1000, false, uint8(shapeLibrary))
	f.Add(int64(11), 2, false, uint8(shapeMixed))
	f.Add(int64(12), 5, true, uint8(shapeMixed))
	f.Add(int64(13), 1, false, uint8(shapeTextRuns))
	f.Add(int64(14), 7, true, uint8(shapeTextRuns))
	f.Add(int64(15), 3, false, uint8(shapeAttrsOnly))
	f.Add(int64(16), 64, false, uint8(shapeAttrsOnly))
	f.Fuzz(func(t *testing.T, seed int64, per int, byValue bool, shape uint8) {
		if per < 1 || per > 10000 || shape >= shapeCount {
			t.Skip()
		}
		sem := ByFragment
		if byValue {
			sem = ByValue
		}
		rng := rand.New(rand.NewSource(seed))
		calls := 1 + rng.Intn(5)
		resp := shapedTestResponse(t, sem, rng, calls, int(shape))
		whole, err := MarshalResponse(resp, nil, nil, projection.Options{})
		if err != nil {
			t.Fatal(err)
		}
		wholeParsed, err := ParseResponse(whole)
		if err != nil {
			t.Fatal(err)
		}
		got := reassemble(t, collectFrames(t, resp, per), calls)
		for c := range got {
			if g, w := serialize(got[c]), serialize(wholeParsed.Results[c]); g != w {
				t.Fatalf("per=%d call %d: got %q want %q", per, c, g, w)
			}
			// What arrives is what was sent.
			if g, w := serialize(got[c]), serialize(resp.Results[c]); g != w {
				t.Fatalf("per=%d call %d: decoded %q, sent %q", per, c, g, w)
			}
		}
	})
}

// TestChunkFrameValidation: protocol violations are rejected, not silently
// reassembled.
func TestChunkFrameValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	resp := streamTestResponse(t, ByValue, rng, 2)
	frames := collectFrames(t, resp, 2)
	if len(frames) < 3 {
		t.Fatalf("fixture too small: %d frames", len(frames))
	}

	check := func(name string, frames [][]byte, wantErr string) {
		t.Helper()
		st := &laneState{expect: 2}
		var err error
		for _, fr := range frames {
			ch, perr := ParseResponseChunk(fr)
			if perr != nil {
				err = perr
				break
			}
			if aerr := st.accept(ch); aerr != nil {
				err = aerr
				break
			}
		}
		if err == nil && !st.done {
			err = fmt.Errorf("stream ended without terminal frame")
		}
		if err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Errorf("%s: err = %v, want %q", name, err, wantErr)
		}
	}

	dropped := append([][]byte{}, frames[:1]...)
	dropped = append(dropped, frames[2:]...)
	check("dropped frame", dropped, "out of order")

	swapped := append([][]byte{}, frames...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	check("swapped frames", swapped, "out of order")

	check("missing terminal", frames[:len(frames)-1], "without terminal")

	check("garbage frame", [][]byte{[]byte("<not-xml")}, "malformed")
}

// streamWire wires a streaming client engine to peers over the in-memory
// transport, mirroring wire().
func streamWire(t *testing.T, sem Semantics, peers map[string]*Server) (*eval.Engine, *StreamedClient) {
	t.Helper()
	tr := NewInMemoryTransport()
	for name, srv := range peers {
		tr.Register(name, srv)
	}
	cl := &StreamedClient{Client: &Client{
		Transport: tr,
		Semantics: sem,
		Static:    eval.DefaultStatic(),
		Relatives: map[*xq.XRPCExpr]projection.RelativePaths{},
		Metrics:   &Metrics{},
	}}
	eng := eval.NewEngine(nil)
	eng.Remote = cl
	return eng, cl
}

const interleavedScatterSrc = `
	declare function f($x as xs:string) as item()* { ($x, doc("d.xml")/child::r/child::v) };
	for $p in ("a", "b", "a", "c", "b", "a") return execute at {$p} { f($p) }`

func streamScatterPeers(chunkItems int) map[string]*Server {
	peers := map[string]*Server{}
	for _, name := range []string{"a", "b", "c"} {
		peers[name] = &Server{
			Engine:     eval.NewEngine(mapResolver{"d.xml": "<r><v>" + name + "1</v><v>" + name + "2</v></r>"}),
			ChunkItems: chunkItems,
		}
	}
	return peers
}

// TestStreamedScatterMatchesGather: the streamed dispatch must produce the
// same serialized results as the gather-whole client, for every passing
// semantics and down to single-item chunks, with interleaved multi-call
// lanes. Runs under -race in CI (interleaved multi-lane streaming).
func TestStreamedScatterMatchesGather(t *testing.T) {
	for _, sem := range []Semantics{ByValue, ByFragment, ByProjection} {
		gatherEng, _ := wire(t, sem, streamScatterPeers(0))
		want, err := testkit.Query(gatherEng, interleavedScatterSrc)
		if err != nil {
			t.Fatal(err)
		}
		for _, chunkItems := range []int{1, 2, 0} {
			eng, cl := streamWire(t, sem, streamScatterPeers(chunkItems))
			got, err := testkit.Query(eng, interleavedScatterSrc)
			if err != nil {
				t.Fatalf("sem=%v chunk=%d: %v", sem, chunkItems, err)
			}
			if g, w := serialize(got), serialize(want); g != w {
				t.Fatalf("sem=%v chunk=%d:\n got %q\nwant %q", sem, chunkItems, g, w)
			}
			s := cl.Metrics.Snapshot()
			if len(s.Waves) != 1 || len(s.Waves[0]) != 3 {
				t.Fatalf("sem=%v chunk=%d: waves %+v, want one wave of 3 lanes", sem, chunkItems, s.Waves)
			}
			for _, lane := range s.Waves[0] {
				if len(lane.Chunks) == 0 {
					t.Fatalf("sem=%v chunk=%d: lane %s has no chunk stats", sem, chunkItems, lane.Peer)
				}
			}
		}
	}
}

// TestStreamedScatterConcurrentSessions exercises interleaved multi-lane
// streaming from several goroutines at once (the -race workout).
func TestStreamedScatterConcurrentSessions(t *testing.T) {
	peers := streamScatterPeers(1)
	gatherEng, _ := wire(t, ByFragment, streamScatterPeers(0))
	want, err := testkit.Query(gatherEng, interleavedScatterSrc)
	if err != nil {
		t.Fatal(err)
	}
	w := serialize(want)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng, _ := streamWire(t, ByFragment, peers)
			got, err := testkit.Query(eng, interleavedScatterSrc)
			if err != nil {
				errs <- err
				return
			}
			if g := serialize(got); g != w {
				errs <- fmt.Errorf("got %q want %q", g, w)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestStreamedFaultMidStream: a peer failing on a later call of a streamed
// lane surfaces as a deterministic scatter error after the early calls
// already streamed.
func TestStreamedFaultMidStream(t *testing.T) {
	peers := streamScatterPeers(1)
	peers["b"] = &Server{Engine: eval.NewEngine(nil), ChunkItems: 1} // doc() fails on b
	eng, _ := streamWire(t, ByValue, peers)
	_, err := testkit.Query(eng, interleavedScatterSrc)
	if err == nil || !strings.Contains(err.Error(), "scatter to b") {
		t.Fatalf("error = %v, want scatter failure naming peer b", err)
	}
}

// TestStreamedUnknownPeer: a transport-level failure on one lane fails the
// query while other lanes stream on.
func TestStreamedUnknownPeer(t *testing.T) {
	peers := streamScatterPeers(1)
	delete(peers, "c")
	eng, _ := streamWire(t, ByValue, peers)
	_, err := testkit.Query(eng, interleavedScatterSrc)
	if err == nil || !strings.Contains(err.Error(), "scatter to c") {
		t.Fatalf("error = %v, want scatter failure naming peer c", err)
	}
}

// TestStreamedGatherFallback: over a Transport without streaming support the
// StreamedClient degrades to gather-whole exchanges with identical results.
type gatherOnlyTransport struct{ inner *InMemoryTransport }

func (t gatherOnlyTransport) RoundTrip(peer string, req []byte) ([]byte, error) {
	return t.inner.RoundTrip(peer, req)
}

func TestStreamedGatherFallback(t *testing.T) {
	tr := NewInMemoryTransport()
	for name, srv := range streamScatterPeers(1) {
		tr.Register(name, srv)
	}
	gatherEng, _ := wire(t, ByValue, streamScatterPeers(0))
	want, err := testkit.Query(gatherEng, interleavedScatterSrc)
	if err != nil {
		t.Fatal(err)
	}
	cl := &StreamedClient{Client: &Client{
		Transport: gatherOnlyTransport{tr}, Semantics: ByValue, Static: eval.DefaultStatic(),
		Relatives: map[*xq.XRPCExpr]projection.RelativePaths{}, Metrics: &Metrics{},
	}}
	eng := eval.NewEngine(nil)
	eng.Remote = cl
	got, err := testkit.Query(eng, interleavedScatterSrc)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := serialize(got), serialize(want); g != w {
		t.Fatalf("got %q want %q", g, w)
	}
}

// TestStreamedNonStreamingHandler: a StreamTransport whose remote handler
// only gathers (one whole-response frame) still yields correct results.
type handlerOnly struct{ h Handler }

func (h handlerOnly) Handle(req []byte) ([]byte, error) { return h.h.Handle(req) }

func TestStreamedNonStreamingHandler(t *testing.T) {
	tr := NewInMemoryTransport()
	for name, srv := range streamScatterPeers(0) {
		tr.Register(name, handlerOnly{srv}) // hides StreamHandler
	}
	cl := &StreamedClient{Client: &Client{
		Transport: tr, Semantics: ByValue, Static: eval.DefaultStatic(),
		Relatives: map[*xq.XRPCExpr]projection.RelativePaths{}, Metrics: &Metrics{},
	}}
	eng := eval.NewEngine(nil)
	eng.Remote = cl
	got, err := testkit.Query(eng, interleavedScatterSrc)
	if err != nil {
		t.Fatal(err)
	}
	gatherEng, _ := wire(t, ByValue, streamScatterPeers(0))
	want, _ := testkit.Query(gatherEng, interleavedScatterSrc)
	if g, w := serialize(got), serialize(want); g != w {
		t.Fatalf("got %q want %q", g, w)
	}
}

// scriptedStream replays prebuilt frames, recording how far emission ran
// ahead of consumption.
type scriptedStream struct {
	frames   [][]byte
	emitted  atomic.Int64
	maxAhead atomic.Int64
	consumed *atomic.Int64
}

func (s *scriptedStream) RoundTrip(string, []byte) ([]byte, error) {
	return nil, fmt.Errorf("gather-whole not supported")
}

func (s *scriptedStream) RoundTripStream(ctx context.Context, peer string, req []byte, sink func([]byte) error) error {
	for _, frame := range s.frames {
		n := s.emitted.Add(1)
		if ahead := n - s.consumed.Load(); ahead > s.maxAhead.Load() {
			s.maxAhead.Store(ahead)
		}
		if err := sink(frame); err != nil {
			return err
		}
	}
	return nil
}

// TestStreamBackpressureBounded: with a slow consumer, the producer must
// never run more than the lane buffer (plus the frame in flight) ahead —
// originator peak buffering is bounded by chunks in flight, not by the
// total result size.
func TestStreamBackpressureBounded(t *testing.T) {
	const items, buffer = 64, 2
	resp := &Response{Semantics: ByValue}
	var s xdm.Sequence
	for i := 0; i < items; i++ {
		s = append(s, xdm.NewInteger(int64(i)))
	}
	resp.Results = []xdm.Sequence{s}
	var consumed atomic.Int64
	tr := &scriptedStream{frames: collectFrames(t, resp, 1), consumed: &consumed}

	cl := &StreamedClient{
		Client:       &Client{Transport: tr, Semantics: ByValue, Metrics: &Metrics{}},
		BufferChunks: buffer,
	}
	x := &xq.XRPCExpr{FuncName: "xrpc:f", Body: &xq.Literal{Val: xdm.NewInteger(1)}}
	lanes, cancel := cl.CallRemoteScatterStream(x, []eval.ScatterBatch{
		{Target: "p", Iterations: [][]xdm.Sequence{{}}},
	})
	defer cancel()
	var got xdm.Sequence
	for chunk := range lanes[0] {
		if chunk.Err != nil {
			t.Fatal(chunk.Err)
		}
		time.Sleep(200 * time.Microsecond) // slow consumer
		consumed.Add(1)
		got = append(got, chunk.Items...)
	}
	if len(got) != items {
		t.Fatalf("consumed %d items, want %d", len(got), items)
	}
	// Producer may be ahead by the channel buffer, the chunk blocked in
	// sendChunk, and the frame being decoded.
	if ahead := tr.maxAhead.Load(); ahead > buffer+2 {
		t.Fatalf("producer ran %d frames ahead, want <= %d", ahead, buffer+2)
	}
}

// TestStreamedConsumerAbandon: cancelling the dispatch releases a producer
// blocked on a full lane buffer (no leaked workers).
func TestStreamedConsumerAbandon(t *testing.T) {
	const items = 256
	resp := &Response{Semantics: ByValue}
	var s xdm.Sequence
	for i := 0; i < items; i++ {
		s = append(s, xdm.NewInteger(int64(i)))
	}
	resp.Results = []xdm.Sequence{s}
	var consumed atomic.Int64
	tr := &scriptedStream{frames: collectFrames(t, resp, 1), consumed: &consumed}
	cl := &StreamedClient{
		Client:       &Client{Transport: tr, Semantics: ByValue, Metrics: &Metrics{}},
		BufferChunks: 1,
	}
	x := &xq.XRPCExpr{FuncName: "xrpc:f", Body: &xq.Literal{Val: xdm.NewInteger(1)}}
	lanes, cancel := cl.CallRemoteScatterStream(x, []eval.ScatterBatch{
		{Target: "p", Iterations: [][]xdm.Sequence{{}}},
	})
	<-lanes[0] // one chunk, then walk away
	consumed.Add(1)
	cancel()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-lanes[0]:
			if !ok {
				return // lane closed: producer exited
			}
		case <-deadline:
			t.Fatal("producer still blocked after cancel")
		}
	}
}

// TestStreamedScatterMoreBatchesThanWorkers is the deadlock regression:
// with more lanes than pool slots and tiny buffers, racy slot acquisition
// let later lanes grab every slot, fill their buffers and block, starving
// the lane the consumer was draining. Ordered admission (lane i waits for
// lane i-width) makes the drained lane always runnable.
func TestStreamedScatterMoreBatchesThanWorkers(t *testing.T) {
	peers := map[string]*Server{}
	var names []string
	for i := 0; i < 10; i++ {
		name := fmt.Sprintf("p%d", i)
		peers[name] = &Server{
			Engine:     eval.NewEngine(mapResolver{"d.xml": "<r><v>" + name + "a</v><v>" + name + "b</v><v>" + name + "c</v></r>"}),
			ChunkItems: 1,
		}
		names = append(names, `"`+name+`"`)
	}
	src := fmt.Sprintf(`
	declare function f() as item()* { doc("d.xml")/child::r/child::v };
	for $p in (%s) return execute at {$p} { f() }`, strings.Join(names, ", "))

	tr := NewInMemoryTransport()
	for name, srv := range peers {
		tr.Register(name, srv)
	}
	cl := &StreamedClient{Client: &Client{
		Transport: tr, Semantics: ByValue, Static: eval.DefaultStatic(),
		Relatives: map[*xq.XRPCExpr]projection.RelativePaths{}, Metrics: &Metrics{},
		MaxConcurrent: 1,
	}, BufferChunks: 1}
	eng := eval.NewEngine(nil)
	eng.Remote = cl

	donech := make(chan error, 1)
	var res xdm.Sequence
	go func() {
		var err error
		res, err = testkit.Query(eng, src)
		donech <- err
	}()
	select {
	case err := <-donech:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("streamed scatter deadlocked with more batches than pool slots")
	}
	if got := serialize(res); !strings.HasPrefix(got, "<v>p0a</v> <v>p0b</v> <v>p0c</v> <v>p1a</v>") ||
		!strings.HasSuffix(got, "<v>p9c</v>") {
		t.Fatalf("results out of order: %q", got)
	}
	// 10 lanes through a width-1 pool: waves of one lane each.
	s := cl.Metrics.Snapshot()
	if len(s.Waves) != 10 {
		t.Fatalf("waves = %d, want 10 single-lane waves", len(s.Waves))
	}
}
