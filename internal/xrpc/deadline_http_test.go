package xrpc

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"distxq/internal/eval"
	"distxq/internal/projection"
	"distxq/internal/testkit"
	"distxq/internal/xq"
)

// Deadline propagation over real HTTP: the originator's budget travels as
// the X-Xrpc-Budget-Ns header, the peer re-clocks it at receipt and cuts
// its own evaluation short when it expires — observable in the peer
// engine's DeadlineAborts counter — and the client surfaces a
// *DeadlineError matching ErrDeadlineExceeded, never a bare
// context.Canceled. Gather-whole and streamed paths must behave alike.

// crunchSrc is a remote evaluation that runs far past any test budget (a
// million loop-body evaluations, ~2s of tree-walking), so the peer-side
// abort has to come from the propagated deadline.
const crunchSrc = `
declare function ten() as item()* { (1,2,3,4,5,6,7,8,9,10) };
declare function crunch() as item()* {
  count(for $a in ten() return
        for $b in ten() return
        for $c in ten() return
        for $d in ten() return
        for $e in ten() return
        for $f in ten() return $f)
};
execute at {"a"} { crunch() }`

func deadlineFederation(t *testing.T) (*HTTPTransport, *eval.Engine) {
	t.Helper()
	peerEng := eval.NewEngine(nil)
	tr := httpFederation(t, map[string]*Server{"a": {Engine: peerEng}})
	return tr, peerEng
}

func httpDeadlineClient(tr *HTTPTransport, ctx context.Context) *Client {
	return &Client{
		Transport: tr,
		Semantics: ByFragment,
		Static:    eval.DefaultStatic(),
		Relatives: map[*xq.XRPCExpr]projection.RelativePaths{},
		Metrics:   &Metrics{},
		Context:   ctx,
	}
}

// waitForAbort polls the peer engine until it records the server-side
// deadline abort — the proof the evaluation did not outlive the client's
// budget by running to completion.
func waitForAbort(t *testing.T, peerEng *eval.Engine) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; {
		if peerEng.StatsSnapshot().DeadlineAborts >= 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("peer never aborted the over-budget evaluation")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func checkDeadlineFailure(t *testing.T, err error, start time.Time) {
	t.Helper()
	if err == nil {
		t.Fatal("over-budget query succeeded")
	}
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("error %v does not match ErrDeadlineExceeded", err)
	}
	if errors.Is(err, ErrOverloaded) {
		t.Fatalf("deadline failure %v must not match ErrOverloaded", err)
	}
	var de *DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("error %v carries no *DeadlineError", err)
	}
	if de.Peer != "a" {
		t.Errorf("DeadlineError names peer %q, want a", de.Peer)
	}
	if de.Elapsed <= 0 || de.Elapsed > time.Since(start)+time.Second {
		t.Errorf("implausible lane elapsed time %v", de.Elapsed)
	}
}

// TestDeadlinePropagatesOverHTTPGather: gather-whole dispatch, the peer
// tree-walking and compiled — the compiled closure chains must hit the same
// budget checks and record the same typed abort.
func TestDeadlinePropagatesOverHTTPGather(t *testing.T) {
	for _, compiled := range []bool{false, true} {
		tr, peerEng := deadlineFederation(t)
		peerEng.Options.Compile = compiled
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		eng := eval.NewEngine(nil)
		eng.Options.Compile = compiled
		eng.Remote = httpDeadlineClient(tr, ctx)

		start := time.Now()
		res, err := testkit.Query(eng, crunchSrc)
		checkDeadlineFailure(t, err, start)
		if res != nil {
			t.Errorf("compiled=%v: partial result %v survived a blown budget", compiled, res)
		}
		waitForAbort(t, peerEng)
		cancel()
	}
}

// TestDeadlinePropagatesOverHTTPStreamed: the streamed dispatch path must
// discard partial chunk frames and surface the same typed failure, again in
// both execution modes.
func TestDeadlinePropagatesOverHTTPStreamed(t *testing.T) {
	for _, compiled := range []bool{false, true} {
		tr, peerEng := deadlineFederation(t)
		peerEng.Options.Compile = compiled
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		eng := eval.NewEngine(nil)
		eng.Options.Compile = compiled
		eng.Remote = &StreamedClient{Client: httpDeadlineClient(tr, ctx)}

		start := time.Now()
		res, err := testkit.Query(eng, crunchSrc)
		checkDeadlineFailure(t, err, start)
		if res != nil {
			t.Errorf("compiled=%v: partial streamed result %v survived a blown budget", compiled, res)
		}
		waitForAbort(t, peerEng)
		cancel()
	}
}

// TestBudgetedQueryWithinDeadlineSucceeds: the budget plumbing must be
// invisible to queries that finish in time.
func TestBudgetedQueryWithinDeadlineSucceeds(t *testing.T) {
	tr, peerEng := deadlineFederation(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	eng := eval.NewEngine(nil)
	eng.Remote = httpDeadlineClient(tr, ctx)

	res, err := testkit.Query(eng, `
declare function ten() as item()* { (1,2,3,4,5,6,7,8,9,10) };
declare function quick() as item()* { count(for $i in ten() return $i) };
execute at {"a"} { quick() }`)
	if err != nil {
		t.Fatal(err)
	}
	if got := serialize(res); got != "10" {
		t.Errorf("got %q, want 10", got)
	}
	if aborts := peerEng.StatsSnapshot().DeadlineAborts; aborts != 0 {
		t.Errorf("healthy query recorded %d deadline aborts", aborts)
	}
}

// TestBudgetExpiredBeforeDispatch: a budget already spent at dispatch fails
// the lane client-side without an exchange.
func TestBudgetExpiredBeforeDispatch(t *testing.T) {
	tr, _ := deadlineFederation(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	eng := eval.NewEngine(nil)
	eng.Remote = httpDeadlineClient(tr, ctx)

	start := time.Now()
	_, err := testkit.Query(eng, crunchSrc)
	checkDeadlineFailureNoPeerWait(t, err, start)
}

func checkDeadlineFailureNoPeerWait(t *testing.T, err error, start time.Time) {
	t.Helper()
	if err == nil {
		t.Fatal("spent-budget query succeeded")
	}
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("error %v does not match ErrDeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("spent-budget dispatch took %v, want fast-fail", elapsed)
	}
}

// TestFaultCodeRoundTrip: typed fault codes survive marshalling — the wire
// form every transport shares.
func TestFaultCodeRoundTrip(t *testing.T) {
	cases := []struct {
		err      error
		sentinel error
		code     string
	}{
		{fmt.Errorf("eval cut short: %w", ErrDeadlineExceeded), ErrDeadlineExceeded, FaultCodeDeadline},
		{fmt.Errorf("queue full: %w", ErrOverloaded), ErrOverloaded, FaultCodeOverloaded},
	}
	for _, c := range cases {
		_, err := ParseResponse(MarshalFault(c.err))
		if err == nil {
			t.Fatalf("%v round-tripped into success", c.err)
		}
		var f *Fault
		if !errors.As(err, &f) {
			t.Fatalf("parsed error %v is not a *Fault", err)
		}
		if f.Code != c.code {
			t.Errorf("fault code %q, want %q", f.Code, c.code)
		}
		if !errors.Is(err, c.sentinel) {
			t.Errorf("parsed fault %v does not match its sentinel", err)
		}
	}
	// An uncoded fault stays a generic failure matching neither sentinel.
	_, err := ParseResponse(MarshalFault(errors.New("boom")))
	if errors.Is(err, ErrDeadlineExceeded) || errors.Is(err, ErrOverloaded) {
		t.Errorf("generic fault %v matches a typed sentinel", err)
	}
}
