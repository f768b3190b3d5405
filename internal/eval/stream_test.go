package eval

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"distxq/internal/xq"
)

// streamFake is a streaming caller: it evaluates shipped bodies locally like
// fakeRemote, each lane on its own goroutine, and places each iteration's
// result split into increments of splitAt items. A peer in failPeers faults
// before its first increment, a peer in failAfter after that many good
// iterations.
type streamFake struct {
	fakeRemote
	splitAt   int
	failAfter map[string]int
	// skipIteration switches the fake into protocol-violation mode.
	skipIteration bool
}

func (f *streamFake) CallRemoteScatter(x *xq.XRPCExpr, batches []ScatterBatch, sink ScatterSink) []error {
	f.mu.Lock()
	f.scatterCalls++
	f.batches = batches
	f.mu.Unlock()
	errs := make([]error, len(batches))
	var wg sync.WaitGroup
	for b, batch := range batches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[b] = f.lane(x, b, batch, sink)
		}()
	}
	wg.Wait()
	return errs
}

// lane streams batch b into sink, stopping at its first fault or refusal.
func (f *streamFake) lane(x *xq.XRPCExpr, b int, batch ScatterBatch, sink ScatterSink) error {
	failAfter, fails := f.failAfter[batch.Target]
	if f.failPeers[batch.Target] {
		failAfter, fails = 0, true
	}
	for it, params := range batch.Iterations {
		if fails && it >= failAfter {
			return fmt.Errorf("peer %s down", batch.Target)
		}
		if f.skipIteration && it == 1 {
			continue // protocol violation: iteration never mentioned
		}
		items, err := f.evalShipped(x, params)
		if err != nil {
			return err
		}
		split := max(f.splitAt, 1)
		for first := true; first || len(items) > 0; first = false {
			n := min(split, len(items))
			if err := sink.Place(b, it, items[:n]); err != nil {
				return err
			}
			items = items[n:]
		}
	}
	return nil
}

func newStreamFake(splitAt int) func() *streamFake {
	return func() *streamFake { return &streamFake{splitAt: splitAt} }
}

// TestStreamScatterReassemblesLoopOrder: lanes that place their iterations in
// pieces still give the loop's order, in one scatter wave. Whether that wave
// streamed is the caller's mode, not the engine's to count: the service's
// streamed-wave metric is pinned by TestStreamedWavesMetric.
func TestStreamScatterReassemblesLoopOrder(t *testing.T) {
	for _, split := range []int{1, 2, 100} {
		for _, r := range dispatchBoth(t, nil, scatterSrc, newStreamFake(split), nil) {
			if r.err != nil {
				t.Fatal(r.err)
			}
			if r.res != "a b a c b a" {
				t.Errorf("split %d: results must reassemble in loop order, got %q", split, r.res)
			}
			if r.remote.scatterCalls != 1 || r.stats.ScatterWaves != 1 {
				t.Errorf("split %d: %d dispatches, stats = %+v, want one streamed scatter wave",
					split, r.remote.scatterCalls, r.stats)
			}
		}
	}
}

// TestStreamScatterSplitsItemRuns: a single iteration whose result spans
// many chunks must concatenate byte-identically.
func TestStreamScatterSplitsItemRuns(t *testing.T) {
	runs := dispatchBoth(t, nil, `
	declare function f() as item()* { (1, 2, 3, 4, 5) };
	for $p in ("a") return execute at {$p} { f() }`, newStreamFake(1), nil)
	if r := runs[0]; r.err != nil || r.res != "1 2 3 4 5" {
		t.Errorf("item runs must concatenate in order, got %q, %v", r.res, r.err)
	}
}

func TestStreamScatterEmptyIteration(t *testing.T) {
	runs := dispatchBoth(t, nil, `
	declare function f($x as xs:string) as item()* { if ($x = "b") then () else $x };
	for $p in ("a", "b", "a") return execute at {$p} { f($p) }`, newStreamFake(2), nil)
	if r := runs[0]; r.err != nil || r.res != "a a" {
		t.Errorf("empty iterations must vanish in place, got %q, %v", r.res, r.err)
	}
}

// TestStreamScatterErrorDeterministic: the reported failure is the lane
// whose earliest unfinished loop iteration comes first, whichever lane
// failed first in time.
func TestStreamScatterErrorDeterministic(t *testing.T) {
	for i := 0; i < 25; i++ {
		runs := dispatchBoth(t, nil, scatterSrc, func() *streamFake {
			return &streamFake{splitAt: 1, failAfter: map[string]int{"b": 0, "c": 0}}
		}, nil)
		for _, r := range runs {
			if r.err == nil || !strings.Contains(r.err.Error(), "scatter to b") {
				t.Fatalf("error = %v, want failure naming peer b (first failing loop position)", r.err)
			}
		}
	}
}

// TestStreamScatterMidLaneFailure: a lane that fails after delivering some
// iterations surfaces its error when the loop reaches the failed iteration.
func TestStreamScatterMidLaneFailure(t *testing.T) {
	runs := dispatchBoth(t, nil, scatterSrc, func() *streamFake { // "a" is at loop positions 0, 2, 5
		return &streamFake{splitAt: 1, failAfter: map[string]int{"a": 2}}
	}, nil)
	if err := runs[0].err; err == nil || !strings.Contains(err.Error(), "scatter to a") {
		t.Fatalf("error = %v, want failure naming peer a", err)
	}
}

func TestStreamScatterSkippedIterationRejected(t *testing.T) {
	runs := dispatchBoth(t, nil, scatterSrc, func() *streamFake {
		return &streamFake{splitAt: 1, skipIteration: true}
	}, nil)
	if err := runs[0].err; err == nil || !strings.Contains(err.Error(), "skipped") {
		t.Fatalf("error = %v, want skipped-iteration protocol error", err)
	}
}
