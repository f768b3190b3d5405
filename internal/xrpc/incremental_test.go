package xrpc

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"distxq/internal/eval"
	"distxq/internal/projection"
	"distxq/internal/testkit"
	"distxq/internal/xdm"
)

// incrementalRequest marshals a one-call request for a shipped function
// whose body is given verbatim.
func incrementalRequest(t testing.TB, body string) []byte {
	t.Helper()
	req := &Request{
		Method: "f", Arity: 1, Semantics: ByValue,
		Module: `declare function f($p as item()*) as item()* { ` + body + ` };`,
		Static: eval.DefaultStatic(),
		Calls:  [][]xdm.Sequence{{xdm.Singleton(xdm.NewString("p"))}},
	}
	data, err := MarshalRequest(req, nil, nil, projection.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestHandleStreamFirstFrameMidEvaluation is the incremental-evaluation
// acceptance test: the server must deliver a chunk frame while call
// evaluation is still in progress. The shipped body concatenates a fast
// document with one whose resolution blocks on a channel; with small
// chunks, frames from the fast prefix must arrive while the resolver is
// still parked.
func TestHandleStreamFirstFrameMidEvaluation(t *testing.T) {
	gate := make(chan struct{})
	resolver := eval.ResolverFunc(func(uri string) (*xdm.Document, error) {
		switch uri {
		case "fast.xml":
			return xdm.ParseString("<r><x>1</x><x>2</x><x>3</x><x>4</x></r>", uri)
		case "slow.xml":
			<-gate
			return xdm.ParseString("<r><x>5</x><x>6</x></r>", uri)
		}
		return nil, fmt.Errorf("no such document %q", uri)
	})
	srv := &Server{Engine: eval.NewEngine(resolver), ChunkItems: 2}
	request := incrementalRequest(t,
		`(doc("fast.xml")/child::r/child::x, doc("slow.xml")/child::r/child::x)`)

	frames := make(chan []byte, 16)
	done := make(chan error, 1)
	go func() {
		done <- srv.HandleStream(request, func(frame []byte) error {
			frames <- append([]byte(nil), frame...)
			return nil
		})
	}()

	// A frame carrying results must arrive while slow.xml is still blocked,
	// i.e. strictly before the call's evaluation completes.
	var early [][]byte
	select {
	case fr := <-frames:
		early = append(early, fr)
		ch, err := ParseResponseChunk(fr)
		if err != nil {
			t.Fatalf("parse early frame: %v", err)
		}
		if ch.Last || len(ch.Items) == 0 {
			t.Fatalf("early frame should carry result items, got %+v", ch)
		}
	case err := <-done:
		t.Fatalf("HandleStream returned (%v) before emitting a frame mid-evaluation", err)
	case <-time.After(10 * time.Second):
		t.Fatal("no frame delivered while evaluation was blocked")
	}

	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("HandleStream: %v", err)
	}
	close(frames)
	for fr := range frames {
		early = append(early, fr)
	}
	got := reassemble(t, early, 1)
	if g := xdm.SequenceString(got[0]); g != "<x>1</x> <x>2</x> <x>3</x> <x>4</x> <x>5</x> <x>6</x>" {
		t.Fatalf("reassembled result = %q", g)
	}
	// A module's first sighting streams on a lowering of its own, which the
	// server does not retain: only the module cache attaches (and counts) a
	// Program, on a text's second sighting.
	if c := srv.Engine.StatsSnapshot().Compilations; c != 0 {
		t.Fatalf("first-sighting streamed call attached %d Programs, want 0", c)
	}
}

// eagerStream is the materialize-then-frame reference the incremental server
// is compared against, rebuilt from exported pieces: Handle evaluates and
// marshals the whole response, which is then re-cut into chunk frames.
type eagerStream struct{ *Server }

func (e eagerStream) HandleStream(request []byte, emit func([]byte) error) error {
	data, err := e.Handle(request)
	if err != nil {
		return err
	}
	resp, err := ParseResponse(data)
	if err != nil {
		return err
	}
	// Handle already projected the results; re-frame them whole.
	whole := projection.PathSet{}.Add(projection.Path{})
	return MarshalResponseStream(resp, e.ChunkItems, nil, whole, e.ProjOpts, emit)
}

// TestIncrementalPeakBufferedBounded: an incremental stream holds at most
// one frame's worth of result items at a time, while the eager-stream
// baseline and the gather-whole handler buffer the entire result.
func TestIncrementalPeakBufferedBounded(t *testing.T) {
	const n, chunk = 500, 8
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "<x>%d</x>", i)
	}
	sb.WriteString("</r>")
	docs := mapResolver{"d.xml": sb.String()}
	request := incrementalRequest(t, `doc("d.xml")/child::r/child::x`)

	// run drives one exchange through handle and reports the server's peak.
	run := func(srv *Server, handle func([]byte) error) int64 {
		t.Helper()
		srv.Metrics = &Metrics{}
		if err := handle(request); err != nil {
			t.Fatal(err)
		}
		return srv.Metrics.Snapshot().PeakBufferedItems
	}
	discard := func([]byte) error { return nil }

	inc := &Server{Engine: eval.NewEngine(docs), ChunkItems: chunk}
	if peak := run(inc, func(r []byte) error { return inc.HandleStream(r, discard) }); peak > chunk {
		t.Errorf("incremental peak = %d items, want <= %d (one frame)", peak, chunk)
	}
	eager := &Server{Engine: eval.NewEngine(docs), ChunkItems: chunk}
	if peak := run(eager, func(r []byte) error { return eagerStream{eager}.HandleStream(r, discard) }); peak < n {
		t.Errorf("eager-stream peak = %d items, want >= %d (whole call)", peak, n)
	}
	whole := &Server{Engine: eval.NewEngine(docs)}
	if peak := run(whole, func(r []byte) error { _, err := whole.Handle(r); return err }); peak < n {
		t.Errorf("gather-whole peak = %d items, want >= %d (whole response)", peak, n)
	}
}

// TestStreamedLazyEagerEquivalenceRandomized: across randomized documents,
// chunk sizes 1/4/32, and both server modes, the streamed scatter results
// serialize byte-identically to the gather-whole baseline — chunk
// boundaries falling mid-evaluation must be invisible to the client.
func TestStreamedLazyEagerEquivalenceRandomized(t *testing.T) {
	queries := []string{
		// positional predicate over a streamed child step
		`declare function f($p as item()*) as item()* { doc("d.xml")/child::lib/child::book[2]/child::title };
		 for $p in ("a", "b") return execute at {$p} { f($p) }`,
		// value predicate plus mixed atomic results
		`declare function f($p as item()*) as item()* { ($p, count(doc("d.xml")/child::lib/child::book), doc("d.xml")/child::lib/child::book[child::pages > 110]/child::title) };
		 for $p in ("a", "b") return execute at {$p} { f($p) }`,
		// descendant step (streamed) and a last() predicate (materialize fallback)
		`declare function f($p as item()*) as item()* { (doc("d.xml")/descendant-or-self::node()/child::pages, doc("d.xml")/child::lib/child::book[last()]/child::title) };
		 for $p in ("a", "b") return execute at {$p} { f($p) }`,
	}
	for _, sem := range []Semantics{ByValue, ByFragment, ByProjection} {
		for _, seed := range []int64{1, 2, 3} {
			rng := rand.New(rand.NewSource(seed))
			var sb strings.Builder
			sb.WriteString("<lib>")
			n := 5 + rng.Intn(30)
			for i := 0; i < n; i++ {
				fmt.Fprintf(&sb, `<book id="b%d"><title>T%d &amp; more</title><pages>%d</pages></book>`,
					i, rng.Intn(100), 100+rng.Intn(40))
			}
			sb.WriteString("</lib>")
			docXML := sb.String()
			mkPeers := func(chunk int) map[string]*Server {
				peers := map[string]*Server{}
				for _, name := range []string{"a", "b"} {
					peers[name] = &Server{
						Engine:     eval.NewEngine(mapResolver{"d.xml": docXML}),
						ChunkItems: chunk,
					}
				}
				return peers
			}
			for qi, q := range queries {
				gatherEng, _ := wire(t, sem, mkPeers(0))
				want, err := testkit.Query(gatherEng, q)
				if err != nil {
					t.Fatalf("sem=%v seed=%d q=%d gather: %v", sem, seed, qi, err)
				}
				w := xdm.SequenceString(want)
				for _, chunk := range []int{1, 4, 32} {
					for _, eager := range []bool{false, true} {
						peers := mkPeers(chunk)
						eng, cl := streamWire(t, sem, peers)
						if eager {
							for name, srv := range peers {
								cl.Transport.(*InMemoryTransport).Register(name, eagerStream{srv})
							}
						}
						got, err := testkit.Query(eng, q)
						if err != nil {
							t.Fatalf("sem=%v seed=%d q=%d chunk=%d eager=%v: %v",
								sem, seed, qi, chunk, eager, err)
						}
						if g := xdm.SequenceString(got); g != w {
							t.Fatalf("sem=%v seed=%d q=%d chunk=%d eager=%v:\n got %q\nwant %q",
								sem, seed, qi, chunk, eager, g, w)
						}
					}
				}
			}
		}
	}
}
