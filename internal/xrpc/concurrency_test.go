package xrpc

import (
	"errors"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"distxq/internal/eval"
	"distxq/internal/projection"
	"distxq/internal/testkit"
	"distxq/internal/xdm"
	"distxq/internal/xq"
)

// TestMetricsResetThenAdd is the regression test for the Reset bug: the old
// implementation replaced the whole struct (`*m = Metrics{}`), clobbering the
// held mutex so the deferred Unlock panicked with "unlock of unlocked mutex".
func TestMetricsResetThenAdd(t *testing.T) {
	m := &Metrics{}
	m.Add(&Metrics{Requests: 2, BytesSent: 100, Waves: [][]Lane{{{Peer: "a"}}}})
	m.Reset()
	m.Add(&Metrics{Requests: 3, BytesSent: 7})
	s := m.Snapshot()
	if s.Requests != 3 || s.BytesSent != 7 || len(s.Waves) != 0 {
		t.Errorf("after Add→Reset→Add: requests=%d bytes=%d waves=%d, want 3/7/0",
			s.Requests, s.BytesSent, len(s.Waves))
	}
	// Reset must also be safe under contention with Add/Snapshot.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				m.Add(&Metrics{Requests: 1})
				m.Reset()
				_ = m.Snapshot()
			}
		}()
	}
	wg.Wait()
}

// TestFaultParityAcrossTransports: a failing shipped function must surface
// as the same *Fault through the in-memory transport and through HTTP, so
// fault semantics do not depend on the wiring.
func TestFaultParityAcrossTransports(t *testing.T) {
	srv := newPeer(nil) // no resolver: doc() inside the shipped body fails
	src := `
	declare function f() as item()* { doc("missing.xml") };
	let $r := execute at {"peer"} { f() } return $r`

	runVia := func(tr Transport) error {
		cl := &Client{Transport: tr, Semantics: ByValue, Static: eval.DefaultStatic(),
			Relatives: map[*xq.XRPCExpr]projection.RelativePaths{}, Metrics: &Metrics{}}
		eng := eval.NewEngine(nil)
		eng.Remote = cl
		_, err := testkit.Query(eng, src)
		return err
	}

	mem := NewInMemoryTransport()
	mem.Register("peer", srv)
	memErr := runVia(mem)

	hs := httptest.NewServer(NewHTTPHandler(srv))
	defer hs.Close()
	httpErr := runVia(&HTTPTransport{URLFor: func(string) string { return hs.URL }})

	for name, err := range map[string]error{"in-memory": memErr, "http": httpErr} {
		var f *Fault
		if !errors.As(err, &f) {
			t.Fatalf("%s: error %v (%T) is not a *Fault", name, err, err)
		}
		if !strings.Contains(f.Msg, "missing.xml") {
			t.Errorf("%s: fault message %q lacks the original cause", name, f.Msg)
		}
	}
	var mf, hf *Fault
	errors.As(memErr, &mf)
	errors.As(httpErr, &hf)
	if mf.Msg != hf.Msg {
		t.Errorf("fault messages differ across transports:\n in-memory: %q\n http:      %q", mf.Msg, hf.Msg)
	}
}

// countingTransport tracks the number of exchanges in flight simultaneously.
type countingTransport struct {
	inner      Transport
	inFlight   atomic.Int64
	maxFlight  atomic.Int64
	started    chan struct{}
	holdUntil  chan struct{}
	holdFirstN int64
}

func (c *countingTransport) RoundTrip(peer string, req []byte) ([]byte, error) {
	n := c.inFlight.Add(1)
	defer c.inFlight.Add(-1)
	for {
		old := c.maxFlight.Load()
		if n <= old || c.maxFlight.CompareAndSwap(old, n) {
			break
		}
	}
	if c.started != nil {
		c.started <- struct{}{}
	}
	if c.holdUntil != nil {
		<-c.holdUntil
	}
	return c.inner.RoundTrip(peer, req)
}

// TestScatterDispatchesConcurrently proves the per-peer bulk RPCs of one
// wave are actually in flight together: every lane blocks inside the
// transport until all peers have started.
func TestScatterDispatchesConcurrently(t *testing.T) {
	const peers = 4
	tr := NewInMemoryTransport()
	for _, name := range []string{"p1", "p2", "p3", "p4"} {
		tr.Register(name, newPeer(nil))
	}
	ct := &countingTransport{inner: tr, started: make(chan struct{}, peers), holdUntil: make(chan struct{})}
	cl := &Client{Transport: ct, Semantics: ByValue, Static: eval.DefaultStatic(),
		Relatives: map[*xq.XRPCExpr]projection.RelativePaths{}, Metrics: &Metrics{}}
	eng := eval.NewEngine(nil)
	eng.Remote = cl

	done := make(chan error, 1)
	go func() {
		res, err := testkit.Query(eng, `
		declare function f($x as xs:string) as item()* { $x };
		for $p in ("p1", "p2", "p3", "p4") return execute at {$p} { f($p) }`)
		if err == nil && xdm.SequenceString(res) != "p1 p2 p3 p4" {
			err = errors.New("wrong result order: " + xdm.SequenceString(res))
		}
		done <- err
	}()
	// All four exchanges must start before any is released.
	for i := 0; i < peers; i++ {
		<-ct.started
	}
	close(ct.holdUntil)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := ct.maxFlight.Load(); got != peers {
		t.Errorf("max in-flight exchanges = %d, want %d", got, peers)
	}
	s := cl.Metrics.Snapshot()
	if s.Requests != peers {
		t.Errorf("requests = %d, want %d", s.Requests, peers)
	}
	if len(s.Waves) != 1 || len(s.Waves[0]) != peers {
		t.Fatalf("waves = %v, want one wave of %d lanes", s.Waves, peers)
	}
}

// TestScatterHonorsMaxConcurrent: a width-1 pool serializes the wave.
func TestScatterHonorsMaxConcurrent(t *testing.T) {
	tr := NewInMemoryTransport()
	for _, name := range []string{"p1", "p2", "p3"} {
		tr.Register(name, newPeer(nil))
	}
	ct := &countingTransport{inner: tr}
	cl := &Client{Transport: ct, Semantics: ByValue, Static: eval.DefaultStatic(),
		Relatives: map[*xq.XRPCExpr]projection.RelativePaths{}, Metrics: &Metrics{},
		MaxConcurrent: 1}
	eng := eval.NewEngine(nil)
	eng.Remote = cl
	if _, err := testkit.Query(eng, `
	declare function f($x as xs:string) as item()* { $x };
	for $p in ("p1", "p2", "p3") return execute at {$p} { f($p) }`); err != nil {
		t.Fatal(err)
	}
	if got := ct.maxFlight.Load(); got != 1 {
		t.Errorf("max in-flight = %d, want 1 under MaxConcurrent=1", got)
	}
	// The recorded waves must not claim more overlap than the pool allowed:
	// three lanes through a width-1 pool are three single-lane waves.
	s := cl.Metrics.Snapshot()
	if len(s.Waves) != 3 {
		t.Fatalf("waves = %d, want 3 (one per lane at width 1)", len(s.Waves))
	}
	for i, w := range s.Waves {
		if len(w) != 1 {
			t.Errorf("wave %d has %d lanes, want 1", i, len(w))
		}
	}
}

// TestScatterPartialFailure: one dead peer fails the query with a fault,
// while the metrics wave still records the surviving lanes.
func TestScatterPartialFailure(t *testing.T) {
	tr := NewInMemoryTransport()
	tr.Register("up", newPeer(nil))
	// "down" is not registered: transport-level failure for that lane only.
	cl := &Client{Transport: tr, Semantics: ByValue, Static: eval.DefaultStatic(),
		Relatives: map[*xq.XRPCExpr]projection.RelativePaths{}, Metrics: &Metrics{}}
	eng := eval.NewEngine(nil)
	eng.Remote = cl
	_, err := testkit.Query(eng, `
	declare function f($x as xs:string) as item()* { $x };
	for $p in ("up", "down") return execute at {$p} { f($p) }`)
	if err == nil || !strings.Contains(err.Error(), `scatter to down`) {
		t.Fatalf("error = %v, want scatter failure naming peer down", err)
	}
	s := cl.Metrics.Snapshot()
	if len(s.Waves) != 1 || len(s.Waves[0]) != 1 || s.Waves[0][0].Peer != "up" {
		t.Errorf("waves = %+v, want one wave with only the surviving lane", s.Waves)
	}
}
