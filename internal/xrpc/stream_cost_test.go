package xrpc

import (
	"context"
	"testing"

	"distxq/internal/eval"
	"distxq/internal/projection"
	"distxq/internal/xdm"
	"distxq/internal/xq"
)

// youngStream is the first TestStreamFramesGolden case — young() over one
// small seeded people shard, called twice in one by-fragment Bulk RPC — as
// a marshalled request, a server streaming 32 items a frame, and the
// shipped call an originator makes of it.
func youngStream(t *testing.T, traced bool) (request []byte, srv *Server, x *xq.XRPCExpr) {
	t.Helper()
	c := streamFrameCases(t)[0]
	req := &Request{Method: c.method, Semantics: ByFragment, Module: c.module, Static: eval.DefaultStatic(),
		Calls: [][]xdm.Sequence{{}, {}}}
	if traced {
		req.TraceID, req.TraceSpan = 7, 1
	}
	request, err := MarshalRequest(req, nil, nil, projection.Options{})
	if err != nil {
		t.Fatal(err)
	}
	q, err := xq.ParseQuery(c.module + " " + c.method + "()")
	if err != nil {
		t.Fatal(err)
	}
	x = &xq.XRPCExpr{FuncName: c.method, Body: q.Funcs[0].Body}
	return request, &Server{Engine: eval.NewEngine(c.docs), ChunkItems: 32}, x
}

// TestStreamAllocationCeilings pins the allocation count of the streamed
// path, server and client half, as TestCodecAllocationCeilings pins the
// gather codec's. Each ceiling sits a few allocations above the measured
// count; the counts of the writer that read the clock around every hand-over
// and built a fresh encoder per frame, with a decoder per frame on the
// client, are in the comments.
func TestStreamAllocationCeilings(t *testing.T) {
	request, srv, x := youngStream(t, false)
	discard := func([]byte) error { return nil }
	tr := NewInMemoryTransport()
	tr.Register("peer1", srv)
	cl := &Client{Transport: tr, Semantics: ByFragment, Static: eval.DefaultStatic(), Streamed: true}
	batches := []eval.ScatterBatch{{Target: "peer1", Iterations: [][]xdm.Sequence{{}, {}}}}
	items := 0
	count := sinkFunc(func(_, _ int, placed xdm.Sequence) error {
		items += len(placed)
		return nil
	})
	for _, tc := range []struct {
		name    string
		ceiling float64
		run     func()
	}{
		{"HandleStream of young() twice, 32 items a frame", 56, func() { // measured 48 (51 under -race); the per-hand-over writer: 66
			if err := srv.HandleStream(request, discard); err != nil {
				t.Fatal(err)
			}
		}},
		{"one in-memory streamed lane, placed", 100, func() { // measured 91 (96–98 under -race); through a lane channel: 101 (107–108); with a race built for every lane: 111 (119–121); the per-hand-over writer and per-frame decoder: 143
			items = 0
			if err := cl.CallRemoteScatter(x, batches, count)[0]; err != nil {
				t.Fatal(err)
			}
			if items == 0 {
				t.Fatal("the lane placed no items")
			}
		}},
	} {
		if got := testing.AllocsPerRun(50, tc.run); got > tc.ceiling {
			t.Errorf("%s: %.0f allocations, ceiling %.0f", tc.name, got, tc.ceiling)
		} else {
			t.Logf("%s: %.0f allocations", tc.name, got)
		}
	}
}

// TestStreamFrameAccounting pins the writer's exec/serde split with
// equalities, not timings: for one traced request, the frames' exec-ns sum
// to the server's RemoteExecNS, and their serde-ns (the terminal frame's
// being the request shred) to its ServerSerdeNS — so no change can move
// time between exec and serde, or into no frame, unseen. The peak of
// buffered items is the golden fixture's: each call's 14 results, one frame.
func TestStreamFrameAccounting(t *testing.T) {
	request, srv, _ := youngStream(t, true)
	srv.Metrics = &Metrics{}
	var exec, serde int64
	frames, spans := 0, 0
	if err := srv.HandleStream(request, func(frame []byte) error {
		ch, err := ParseResponseChunk(frame)
		if err != nil {
			return err
		}
		frames++
		exec += ch.ExecNanos
		serde += ch.SerializeNanos
		spans += len(ch.Spans)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	m := srv.Metrics.Snapshot()
	if spans == 0 {
		t.Error("the traced stream's terminal frame carries no spans")
	}
	if exec != m.RemoteExecNS {
		t.Errorf("frames carry %d ns of exec, the server counted %d", exec, m.RemoteExecNS)
	}
	if serde != m.ServerSerdeNS {
		t.Errorf("frames carry %d ns of serde, the server counted %d", serde, m.ServerSerdeNS)
	}
	if m.PeakBufferedItems != 14 {
		t.Errorf("peak buffered items %d, want 14", m.PeakBufferedItems)
	}
	t.Logf("%d frames: exec %d ns, serde %d ns", frames, exec, serde)
}

// cannedWave answers every exchange with one prebuilt response: a whole
// message to RoundTrip, a list of frames to RoundTripStream. With no server
// behind it, a dispatch over it costs only the originator's work.
type cannedWave struct {
	whole  []byte
	frames [][]byte
}

func (c *cannedWave) RoundTrip(string, []byte) ([]byte, error) { return c.whole, nil }

func (c *cannedWave) RoundTripStream(_ context.Context, _ string, _ []byte, sink func([]byte) error) error {
	for _, f := range c.frames {
		if err := sink(f); err != nil {
			return err
		}
	}
	return nil
}

// TestScatterDispatchAllocationCeilings pins what the one scatter dispatcher
// allocates on the originator: four lanes of the young() golden request
// (two calls each), answered by a canned transport — a whole response per
// gathered lane, three frames per streamed lane — into a sink that keeps
// nothing, with metrics on and reset per run. The counts of the parent
// design, a gather dispatcher beside a streamed one with a channel per lane,
// are in the comments.
func TestScatterDispatchAllocationCeilings(t *testing.T) {
	request, srv, x := youngStream(t, false)
	whole, err := srv.Handle(request)
	if err != nil {
		t.Fatal(err)
	}
	tr := &cannedWave{whole: whole}
	if err := srv.HandleStream(request, func(f []byte) error {
		tr.frames = append(tr.frames, append([]byte(nil), f...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(tr.frames) != 3 {
		t.Fatalf("the canned stream has %d frames, want 3", len(tr.frames))
	}
	var batches []eval.ScatterBatch
	for _, p := range []string{"peer1", "peer2", "peer3", "peer4"} {
		batches = append(batches, eval.ScatterBatch{Target: p, Iterations: [][]xdm.Sequence{{}, {}}})
	}
	discard := sinkFunc(func(int, int, xdm.Sequence) error { return nil })
	for _, tc := range []struct {
		name               string
		streamed           bool
		ceiling, underRace float64
	}{
		{"gathered", false, 128, 148}, // measured 124 (142–145 under -race); parent 141 (160)
		{"streamed", true, 152, 171},  // measured 148 (166–168 under -race); parent 191 (210)
	} {
		cl := &Client{Transport: tr, Semantics: ByFragment, Static: eval.DefaultStatic(),
			Metrics: &Metrics{}, Streamed: tc.streamed}
		got := testing.AllocsPerRun(100, func() {
			cl.Metrics.Reset()
			for _, err := range cl.CallRemoteScatter(x, batches, discard) {
				if err != nil {
					t.Fatal(err)
				}
			}
		})
		ceiling := tc.ceiling
		if raceBuild {
			ceiling = tc.underRace
		}
		if got > ceiling {
			t.Errorf("%s: %.0f allocations, ceiling %.0f", tc.name, got, ceiling)
		} else {
			t.Logf("%s: %.0f allocations", tc.name, got)
		}
	}
}
