package xrpc

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"distxq/internal/eval"
	"distxq/internal/projection"
	"distxq/internal/testkit"
	"distxq/internal/xdm"
	"distxq/internal/xq"
)

// laneModes are the two attempt kinds of the one lane runner: every
// fault-tolerance behavior below must hold for both.
var laneModes = []struct {
	name   string
	remote func(*Client) eval.RemoteCaller
}{
	{"gather", func(cl *Client) eval.RemoteCaller { return cl }},
	{"streamed", func(cl *Client) eval.RemoteCaller { return &StreamedClient{Client: cl} }},
}

// wireRetry builds a client engine with a retry policy and a replica map
// over the in-memory transport; handlers are servers or fault injectors.
func wireRetry(peers map[string]Handler, pol *RetryPolicy, replicas map[string][]string) (*eval.Engine, *Client, *InMemoryTransport) {
	tr := NewInMemoryTransport()
	for name, h := range peers {
		tr.Register(name, h)
	}
	cl := &Client{
		Transport: tr,
		Semantics: ByValue,
		Static:    eval.DefaultStatic(),
		Relatives: map[*xq.XRPCExpr]projection.RelativePaths{},
		Metrics:   &Metrics{},
		Retry:     pol,
	}
	eng := eval.NewEngine(nil)
	eng.Remote = cl
	eng.Replicas = replicas
	return eng, cl, tr
}

// echoScatter ships a body that echoes its parameter, which is the loop's
// target string — so the gathered result proves loop order survived whatever
// the lanes went through.
func echoScatter(targets ...string) string {
	return `declare function f($x as xs:string) as item()* { $x };
	for $p in ("` + strings.Join(targets, `", "`) + `") return execute at {$p} { f($p) }`
}

// laneFor returns the recorded lane of a scatter target.
func laneFor(t *testing.T, cl *Client, target string) Lane {
	t.Helper()
	for _, w := range cl.Metrics.Snapshot().Waves {
		for _, l := range w {
			if l.Target == target {
				return l
			}
		}
	}
	t.Fatalf("no lane recorded for target %s", target)
	return Lane{}
}

// flakyServer fails its first n exchanges, then behaves.
type flakyServer struct {
	*Server
	failures atomic.Int64
}

func (f *flakyServer) Handle(request []byte) ([]byte, error) {
	if f.failures.Add(-1) >= 0 {
		return nil, errors.New("injected transient failure")
	}
	return f.Server.Handle(request)
}

func (f *flakyServer) HandleStream(request []byte, emit func([]byte) error) error {
	if f.failures.Add(-1) >= 0 {
		return errors.New("injected transient failure")
	}
	return f.Server.HandleStream(request, emit)
}

// countingServer counts the exchanges that reach it.
type countingServer struct {
	*Server
	calls atomic.Int64
}

func (c *countingServer) Handle(request []byte) ([]byte, error) {
	c.calls.Add(1)
	return c.Server.Handle(request)
}

func (c *countingServer) HandleStream(request []byte, emit func([]byte) error) error {
	c.calls.Add(1)
	return c.Server.HandleStream(request, emit)
}

// spentServer answers every exchange with a deadline fault.
type spentServer struct{}

func (spentServer) Handle([]byte) ([]byte, error) { return nil, &DeadlineError{Peer: "spent"} }

func (spentServer) HandleStream([]byte, func([]byte) error) error {
	return &DeadlineError{Peer: "spent"}
}

// slowTransport delays exchanges to selected peers, honoring cancellation —
// the injected-straggler harness for hedging tests.
type slowTransport struct {
	inner     *InMemoryTransport
	delay     map[string]time.Duration
	cancelled atomic.Int64
}

func (s *slowTransport) wait(ctx context.Context, peer string) error {
	if d := s.delay[peer]; d > 0 {
		select {
		case <-time.After(d):
		case <-ctx.Done():
			s.cancelled.Add(1)
			return ctx.Err()
		}
	}
	return nil
}

func (s *slowTransport) RoundTrip(peer string, req []byte) ([]byte, error) {
	return s.RoundTripContext(context.Background(), peer, req)
}

func (s *slowTransport) RoundTripContext(ctx context.Context, peer string, req []byte) ([]byte, error) {
	if err := s.wait(ctx, peer); err != nil {
		return nil, err
	}
	return s.inner.RoundTrip(peer, req)
}

func (s *slowTransport) RoundTripStream(ctx context.Context, peer string, req []byte, sink func([]byte) error) error {
	if err := s.wait(ctx, peer); err != nil {
		return err
	}
	return s.inner.RoundTripStream(ctx, peer, req, sink)
}

// awaitCancelled waits for a straggler to observe its torn-down context: the
// winner returns without waiting for losers to unwind.
func awaitCancelled(t *testing.T, slow *slowTransport) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); slow.cancelled.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("straggling attempt was never cancelled")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLaneRunner is the fault-tolerance contract of the one lane runner, run
// over both attempt kinds: whichever kind of exchange an attempt performs,
// rotation, budget, back-off, hedging, re-routing, fault reporting and
// provenance behave the same.
func TestLaneRunner(t *testing.T) {
	type world struct {
		eng  *eval.Engine
		cl   *Client
		slow *slowTransport
	}
	cases := []struct {
		name  string
		build func() world
		query string
		// want is the serialized result; wantErr, when set, a substring of the
		// lane failure instead.
		want    string
		wantErr string
		check   func(t *testing.T, w world, wall time.Duration)
	}{
		{
			// A dead primary's lane completes via its replica, in loop order,
			// and the winning lane's provenance records the failover.
			name: "fail over to replica",
			build: func() world {
				// p2 is never registered: its lane must fail over to r2.
				eng, cl, _ := wireRetry(map[string]Handler{"p1": newPeer(nil), "p3": newPeer(nil), "r2": newPeer(nil)},
					nil, map[string][]string{"p2": {"r2"}})
				return world{eng: eng, cl: cl}
			},
			query: echoScatter("p1", "p2", "p3"),
			want:  "p1 p2 p3",
			check: func(t *testing.T, w world, _ time.Duration) {
				if l := laneFor(t, w.cl, "p2"); l.Peer != "r2" || l.Replica != 1 || l.Retries != 1 || l.Hedges != 0 {
					t.Errorf("lane = %+v, want winner r2 / replica 1 / 1 retry / 0 hedges", l)
				}
			},
		},
		{
			// With MaxAttempts > 1 and no replicas, a transient fault is
			// retried against the same peer (after the back-off).
			name: "retry same target",
			build: func() world {
				fl := &flakyServer{Server: newPeer(nil)}
				fl.failures.Store(1)
				eng, cl, _ := wireRetry(map[string]Handler{"p": fl},
					&RetryPolicy{MaxAttempts: 2, Backoff: time.Millisecond}, nil)
				return world{eng: eng, cl: cl}
			},
			query: echoScatter("p"),
			want:  "p",
			check: func(t *testing.T, w world, _ time.Duration) {
				if l := laneFor(t, w.cl, "p"); l.Retries != 1 || l.Replica != 0 || l.Peer != "p" {
					t.Errorf("lane = %+v, want one same-target retry", l)
				}
			},
		},
		{
			// When the primary and every replica fail, the lane error is the
			// original fault, never a cancellation echo of the teardown.
			name: "exhausted lanes report the original fault",
			build: func() world {
				eng, cl, _ := wireRetry(map[string]Handler{"up": newPeer(nil)}, nil,
					map[string][]string{"dead": {"alsodead"}})
				return world{eng: eng, cl: cl}
			},
			query:   echoScatter("up", "dead"),
			wantErr: `unknown peer "dead"`,
		},
		{
			// A spent budget is terminal: the replica is never tried.
			name: "deadline stops fail-over",
			build: func() world {
				eng, cl, _ := wireRetry(map[string]Handler{"p1": spentServer{}, "r1": &countingServer{Server: newPeer(nil)}},
					&RetryPolicy{MaxAttempts: 3}, map[string][]string{"p1": {"r1"}})
				return world{eng: eng, cl: cl}
			},
			query:   echoScatter("p1"),
			wantErr: "exceeded query deadline",
			check: func(t *testing.T, w world, _ time.Duration) {
				h, _ := w.cl.Transport.(*InMemoryTransport).handler("r1")
				if n := h.(*countingServer).calls.Load(); n != 0 {
					t.Errorf("replica saw %d exchanges after a deadline fault, want 0", n)
				}
			},
		},
		{
			// A straggling primary is hedged after HedgeAfter and the replica
			// wins the race; the straggler is cancelled and the lane records
			// the hedge and the time it wasted.
			name: "hedge race: replica wins",
			build: func() world {
				eng, cl, tr := wireRetry(map[string]Handler{"p1": newPeer(nil), "r1": newPeer(nil)},
					&RetryPolicy{MaxAttempts: 2, HedgeAfter: 5 * time.Millisecond}, map[string][]string{"p1": {"r1"}})
				slow := &slowTransport{inner: tr, delay: map[string]time.Duration{"p1": 2 * time.Second}}
				cl.Transport = slow
				return world{eng: eng, cl: cl, slow: slow}
			},
			query: echoScatter("p1"),
			want:  "p1",
			check: func(t *testing.T, w world, wall time.Duration) {
				if wall > time.Second {
					t.Fatalf("query took %v — the hedge did not cut the straggler short", wall)
				}
				l := laneFor(t, w.cl, "p1")
				if l.Peer != "r1" || l.Replica != 1 || l.Hedges != 1 || l.Retries != 0 {
					t.Errorf("lane = %+v, want hedged winner r1", l)
				}
				if l.WastedNS <= 0 {
					t.Errorf("lane.WastedNS = %d, want > 0 (the losing straggler burned time)", l.WastedNS)
				}
				awaitCancelled(t, w.slow)
			},
		},
		{
			// A hedge races the attempt it doubts, it never cancels it: when
			// the hedge lands on a dead copy, the slow-but-healthy first
			// attempt still wins the lane.
			name: "hedge race: healthy straggler survives a dead hedge target",
			build: func() world {
				// r1 is never registered.
				eng, cl, tr := wireRetry(map[string]Handler{"p1": newPeer(nil)},
					&RetryPolicy{MaxAttempts: 2, HedgeAfter: time.Millisecond}, map[string][]string{"p1": {"r1"}})
				slow := &slowTransport{inner: tr, delay: map[string]time.Duration{"p1": 30 * time.Millisecond}}
				cl.Transport = slow
				return world{eng: eng, cl: cl, slow: slow}
			},
			query: echoScatter("p1"),
			want:  "p1",
			check: func(t *testing.T, w world, _ time.Duration) {
				if l := laneFor(t, w.cl, "p1"); l.Peer != "p1" || l.Replica != 0 || l.Hedges != 1 || l.Retries != 0 {
					t.Errorf("lane = %+v, want primary p1 winning past one lost hedge", l)
				}
			},
		},
	}
	for _, mode := range laneModes {
		for _, tc := range cases {
			t.Run(mode.name+"/"+tc.name, func(t *testing.T) {
				w := tc.build()
				w.eng.Remote = mode.remote(w.cl)
				t0 := time.Now()
				res, err := testkit.Query(w.eng, tc.query)
				wall := time.Since(t0)
				if tc.wantErr != "" {
					if err == nil {
						t.Fatalf("query succeeded with %q, want error containing %q", serialize(res), tc.wantErr)
					}
					if errors.Is(err, context.Canceled) || strings.Contains(err.Error(), "context canceled") {
						t.Fatalf("error = %v, a cancellation echo instead of the original fault", err)
					}
					if !strings.Contains(err.Error(), tc.wantErr) {
						t.Fatalf("error = %v, want it to contain %q", err, tc.wantErr)
					}
				} else {
					if err != nil {
						t.Fatal(err)
					}
					if got := serialize(res); got != tc.want {
						t.Fatalf("result = %q, want %q", got, tc.want)
					}
				}
				if tc.check != nil {
					tc.check(t, w, wall)
				}
			})
		}
	}
}

// TestRetrySequentialBulk: sequential dispatch carries no replica set, but
// MaxAttempts > 1 still retries a transient fault against the same peer.
func TestRetrySequentialBulk(t *testing.T) {
	fl := &flakyServer{Server: newPeer(nil)}
	fl.failures.Store(1)
	eng, cl, _ := wireRetry(map[string]Handler{"p": fl}, &RetryPolicy{MaxAttempts: 2}, nil)
	res, err := testkit.Query(eng, `
	declare function f() as item()* { "ok" };
	let $r := execute at {"p"} { f() } return $r`)
	if err != nil {
		t.Fatal(err)
	}
	if serialize(res) != "ok" {
		t.Fatalf("result = %q, want ok", serialize(res))
	}
	s := cl.Metrics.Snapshot()
	if len(s.Waves) != 1 || len(s.Waves[0]) != 1 {
		t.Fatalf("waves = %+v, want one single-lane wave", s.Waves)
	}
	if lane := s.Waves[0][0]; lane.Retries != 1 || lane.Replica != 0 || lane.Peer != "p" {
		t.Errorf("lane = %+v, want one same-target retry", lane)
	}
}

// failAfterFrames streams n frames of each exchange, then dies — the
// mid-stream kill-peer injection.
type failAfterFrames struct {
	*Server
	frames int
}

func (f *failAfterFrames) HandleStream(request []byte, emit func([]byte) error) error {
	n := 0
	return f.Server.HandleStream(request, func(frame []byte) error {
		if n >= f.frames {
			return errors.New("injected: peer died mid-stream")
		}
		n++
		return emit(frame)
	})
}

// streamedScatterResult runs a streamed two-peer scatter over the given
// transport-registered servers and returns the serialized result and lanes.
func runStreamedScatter(t *testing.T, eng *eval.Engine, src string) string {
	t.Helper()
	res, err := testkit.Query(eng, src)
	if err != nil {
		t.Fatal(err)
	}
	return serialize(res)
}

// TestStreamedFailoverMidStream: a peer that dies after emitting part of its
// chunked stream fails over to its replica; the replayed prefix is
// suppressed, so the gathered result is byte-identical to the healthy run.
func TestStreamedFailoverMidStream(t *testing.T) {
	docs := mapResolver{"xmk.xml": "<r><a>1</a><a>2</a><a>3</a><a>4</a><a>5</a></r>"}
	src := `
	declare function f() as item()* { doc("xmk.xml")/child::r/child::a };
	for $p in ("p1", "p2") return execute at {$p} { f() }`

	mkEngine := func(pol *RetryPolicy, install func(tr *InMemoryTransport)) (*eval.Engine, *Client) {
		tr := NewInMemoryTransport()
		// One item per chunk so several frames flow before the injected death.
		tr.Register("p1", &Server{Engine: eval.NewEngine(docs), ChunkItems: 1})
		tr.Register("p2", &Server{Engine: eval.NewEngine(docs), ChunkItems: 1})
		if install != nil {
			install(tr)
		}
		cl := &Client{Transport: tr, Semantics: ByValue, Static: eval.DefaultStatic(),
			Relatives: map[*xq.XRPCExpr]projection.RelativePaths{}, Metrics: &Metrics{}, Retry: pol}
		eng := eval.NewEngine(nil)
		eng.Remote = &StreamedClient{Client: cl}
		return eng, cl
	}

	healthyEng, _ := mkEngine(nil, nil)
	want := runStreamedScatter(t, healthyEng, src)

	for _, dieAfter := range []int{0, 1, 2, 3} {
		eng, cl := mkEngine(&RetryPolicy{}, func(tr *InMemoryTransport) {
			tr.Register("p2", &failAfterFrames{
				Server: &Server{Engine: eval.NewEngine(docs), ChunkItems: 1}, frames: dieAfter})
		})
		eng.Replicas = map[string][]string{"p2": {"r2"}}
		cl.Transport.(*InMemoryTransport).Register("r2", &Server{Engine: eval.NewEngine(docs), ChunkItems: 2})
		got := runStreamedScatter(t, eng, src)
		if got != want {
			t.Fatalf("die-after-%d-frames: result %q != healthy %q", dieAfter, got, want)
		}
		s := cl.Metrics.Snapshot()
		var lane *Lane
		for _, w := range s.Waves {
			for i := range w {
				if w[i].Target == "p2" {
					lane = &w[i]
				}
			}
		}
		if lane == nil || lane.Peer != "r2" || lane.Retries != 1 {
			t.Fatalf("die-after-%d-frames: lane = %+v, want one retry won by r2", dieAfter, lane)
		}
	}
}

// TestStreamedStallSwitches: a streamed lane whose first frame never arrives
// within HedgeAfter is raced by the replica, whose first frame takes the lane
// and cancels the stalled attempt.
func TestStreamedStallSwitches(t *testing.T) {
	docs := mapResolver{"d.xml": "<r><a>1</a><a>2</a></r>"}
	tr := NewInMemoryTransport()
	tr.Register("p1", &Server{Engine: eval.NewEngine(docs), ChunkItems: 1})
	tr.Register("r1", &Server{Engine: eval.NewEngine(docs), ChunkItems: 1})
	slow := &slowTransport{inner: tr, delay: map[string]time.Duration{"p1": 2 * time.Second}}
	cl := &Client{Transport: slow, Semantics: ByValue, Static: eval.DefaultStatic(),
		Relatives: map[*xq.XRPCExpr]projection.RelativePaths{}, Metrics: &Metrics{},
		Retry: &RetryPolicy{MaxAttempts: 2, HedgeAfter: 5 * time.Millisecond}}
	eng := eval.NewEngine(nil)
	eng.Remote = &StreamedClient{Client: cl}
	eng.Replicas = map[string][]string{"p1": {"r1"}}
	t0 := time.Now()
	got := runStreamedScatter(t, eng, `
	declare function f() as item()* { doc("d.xml")/child::r/child::a };
	for $p in ("p1") return execute at {$p} { f() }`)
	if got != "<a>1</a> <a>2</a>" {
		t.Fatalf("result = %q", got)
	}
	if wall := time.Since(t0); wall > time.Second {
		t.Fatalf("query took %v — the stalled stream was not switched away from", wall)
	}
	s := cl.Metrics.Snapshot()
	if len(s.Waves) != 1 || len(s.Waves[0]) != 1 {
		t.Fatalf("waves = %+v, want one single-lane wave", s.Waves)
	}
	lane := s.Waves[0][0]
	if lane.Peer != "r1" || lane.Hedges != 1 {
		t.Errorf("lane = %+v, want stall-hedged winner r1", lane)
	}
	awaitCancelled(t, slow)
}

// TestReplayFilterSuppressesPrefix exercises the replay arithmetic directly,
// with the replacement stream chunking its calls differently from the
// original: only the suffix beyond the failover point may reach the
// consumer, empty calls included.
func TestReplayFilterSuppressesPrefix(t *testing.T) {
	mk := func(vals ...string) xdm.Sequence {
		var s xdm.Sequence
		for _, v := range vals {
			s = append(s, xdm.NewString(v))
		}
		return s
	}
	var got []string
	deliver := func(chunk eval.StreamChunk) bool {
		got = append(got, fmt.Sprintf("%d:%s", chunk.Iteration, serialize(chunk.Items)))
		return true
	}
	p := &laneProgress{}
	// Attempt 1 delivers call 0 = [a b c] as two chunks plus the start of
	// call 1, then dies.
	f1 := replayFilter(p, deliver)
	f1(eval.StreamChunk{Iteration: 0, Items: mk("a", "b")})
	f1(eval.StreamChunk{Iteration: 0, Items: mk("c")})
	f1(eval.StreamChunk{Iteration: 1, Items: mk("d")})
	// Attempt 2 replays from the start with coarser chunks; only e (the rest
	// of call 1), the empty call 2 and call 3 are new.
	f2 := replayFilter(p, deliver)
	f2(eval.StreamChunk{Iteration: 0, Items: mk("a", "b", "c")})
	f2(eval.StreamChunk{Iteration: 1, Items: mk("d", "e")})
	f2(eval.StreamChunk{Iteration: 2, Items: nil})
	f2(eval.StreamChunk{Iteration: 3, Items: mk("f")})
	want := []string{"0:a b", "0:c", "1:d", "1:e", "2:", "3:f"}
	if len(got) != len(want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery %d = %q, want %q (all: %v)", i, got[i], want[i], got)
		}
	}
}
