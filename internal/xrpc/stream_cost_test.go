package xrpc

import (
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
	cl := &StreamedClient{Client: &Client{Transport: tr, Semantics: ByFragment, Static: eval.DefaultStatic()}}
	batches := []eval.ScatterBatch{{Target: "peer1", Iterations: [][]xdm.Sequence{{}, {}}}}
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
		{"one in-memory streamed lane, drained", 112, func() { // measured 101 (107–108 under -race); with a race built for every lane: 111 (119–121); the per-hand-over writer and per-frame decoder: 143
			lanes, cancel := cl.CallRemoteScatterStream(x, batches)
			defer cancel()
			items := 0
			for chunk := range lanes[0] {
				if chunk.Err != nil {
					t.Fatal(chunk.Err)
				}
				items += len(chunk.Items)
			}
			if items == 0 {
				t.Fatal("the lane delivered no items")
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
