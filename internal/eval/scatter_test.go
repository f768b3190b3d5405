package eval

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"distxq/internal/xdm"
	"distxq/internal/xq"
)

// dispatch is one executor's run of a query against a fake remote caller.
type dispatch[R RemoteCaller] struct {
	res    string
	err    error
	stats  Stats // the dispatch counters alone
	remote R
}

// dispatchBoth runs src once tree-walking and once compiled, each engine over
// docs with a fresh caller from mk, after setup (when non-nil) has seen the
// engine and the normalized query. It fails unless both runs produce the
// same bytes, the same error text and the same dispatch counters.
func dispatchBoth[R RemoteCaller](t *testing.T, docs Resolver, src string, mk func() R, setup func(*Engine, *xq.Query)) [2]dispatch[R] {
	t.Helper()
	var runs [2]dispatch[R]
	for i := range runs {
		q, err := xq.ParseQuery(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := xq.Normalize(q); err != nil {
			t.Fatal(err)
		}
		e := NewEngine(docs)
		e.Options.Compile = i == 1
		runs[i].remote = mk()
		e.Remote = runs[i].remote
		if setup != nil {
			setup(e, q)
		}
		query := e.Query
		if i == 0 {
			query = func(q *xq.Query) (xdm.Sequence, error) { return treeWalk(e, q) }
		}
		res, err := query(q)
		runs[i].res, runs[i].err = serialize(res), err
		st := e.StatsSnapshot()
		runs[i].stats = Stats{RemoteCalls: st.RemoteCalls, BulkCalls: st.BulkCalls,
			ScatterWaves: st.ScatterWaves}
		if _, compiled := q.CompiledArtifact().(*Program); compiled != e.Options.Compile {
			t.Fatalf("compile=%v: Program attached %v", e.Options.Compile, compiled)
		}
	}
	tw, cc := runs[0], runs[1]
	if tw.res != cc.res || fmt.Sprint(tw.err) != fmt.Sprint(cc.err) || tw.stats != cc.stats {
		t.Fatalf("executors diverge on %s\ntree-walk: %q, %v, %+v\ncompiled:  %q, %v, %+v",
			src, tw.res, tw.err, tw.stats, cc.res, cc.err, cc.stats)
	}
	return runs
}

// routeAll gives every remote call of the query the replica routes given.
func routeAll(routes map[string][]string) func(*Engine, *xq.Query) {
	return func(e *Engine, q *xq.Query) {
		e.ReplicaRoutes = map[*xq.XRPCExpr]map[string][]string{}
		xq.Walk(q.Body, func(sub xq.Expr) bool {
			if x, ok := sub.(*xq.XRPCExpr); ok {
				e.ReplicaRoutes[x] = routes
			}
			return true
		})
	}
}

const scatterSrc = `
	declare function f($x as xs:string) as item()* { $x };
	for $p in ("a", "b", "a", "c", "b", "a") return execute at {$p} { f($p) }`

func TestScatterPartitionsByPeerPreservingOrder(t *testing.T) {
	for _, tc := range []struct {
		src, want    string
		waves, bulks int
		// order and sizes are the batches of the last wave.
		order string
		sizes []int
	}{
		{src: scatterSrc, want: "a b a c b a", waves: 1, bulks: 3, order: "a,b,c", sizes: []int{3, 2, 1}},
		// Five outer iterations memoize the invariant count(): the loop
		// body keeps the very remote call the routes are keyed on.
		{src: `declare function f($x as xs:string) as item()* { $x };
		for $i in (1, 2, 3, 4, 5) return if ($i = count(doc("f.xml")//book)) then ()
		else (for $p in ("a", "b") return execute at {$p} { f($p) })`,
			want: "a b a b a b a b", waves: 4, bulks: 8, order: "a,b", sizes: []int{1, 1}},
	} {
		runs := dispatchBoth(t, mapResolver{"f.xml": fuzzFixtureXML}, tc.src,
			func() *fakeRemote { return &fakeRemote{} }, routeAll(map[string][]string{"a": {"a2"}}))
		for _, r := range runs {
			if r.err != nil {
				t.Fatal(r.err)
			}
			if r.res != tc.want {
				t.Errorf("results must reassemble in original loop order, got %q, want %q", r.res, tc.want)
			}
			if r.remote.scatterCalls != tc.waves {
				t.Fatalf("scatter dispatches = %d, want %d", r.remote.scatterCalls, tc.waves)
			}
			if r.stats.ScatterWaves != tc.waves || r.stats.BulkCalls != tc.bulks {
				t.Errorf("stats waves=%d bulk=%d, want %d/%d", r.stats.ScatterWaves, r.stats.BulkCalls, tc.waves, tc.bulks)
			}
			// Batches ordered by first appearance of each peer; iteration
			// counts match each peer's share of the loop; the routed peer
			// carries its replica.
			var order []string
			var sizes []int
			for _, b := range r.remote.batches {
				order = append(order, b.Target)
				sizes = append(sizes, len(b.Iterations))
				if want := map[string]string{"a": "a2"}[b.Target]; strings.Join(b.Replicas, ",") != want {
					t.Errorf("batch %s ships replicas %v, want %q", b.Target, b.Replicas, want)
				}
			}
			if strings.Join(order, ",") != tc.order || fmt.Sprint(sizes) != fmt.Sprint(tc.sizes) {
				t.Errorf("batches %v of sizes %v, want first-appearance order %s of sizes %v", order, sizes, tc.order, tc.sizes)
			}
		}
	}
}

func TestScatterErrorIsDeterministic(t *testing.T) {
	// Both b and c fail; the surfaced error must always name b — the failed
	// peer that appears first in the loop — regardless of scheduling.
	for i := 0; i < 10; i++ {
		runs := dispatchBoth(t, nil, scatterSrc, func() *fakeRemote {
			return &fakeRemote{failPeers: map[string]bool{"b": true, "c": true}}
		}, nil)
		if err := runs[0].err; err == nil || !strings.Contains(err.Error(), "scatter to b") {
			t.Fatalf("error = %v, want the first failed peer (b)", err)
		}
	}
}

func TestScatterEmptyLoopSkipsDispatch(t *testing.T) {
	for _, r := range dispatchBoth(t, nil, `
	declare function f($x as xs:string) as item()* { $x };
	for $p in () return execute at {$p} { f($p) }`, func() *fakeRemote { return &fakeRemote{} }, nil) {
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.res != "" || r.remote.scatterCalls != 0 || r.remote.bulkCalls != 0 {
			t.Errorf("empty loop: res=%q scatter=%d bulk=%d", r.res, r.remote.scatterCalls, r.remote.bulkCalls)
		}
	}
}

func TestScatterResultCountMismatchIsAnError(t *testing.T) {
	runs := dispatchBoth(t, nil, scatterSrc, func() *shortScatter { return &shortScatter{} }, nil)
	if err := runs[0].err; err == nil || !strings.Contains(err.Error(), "results for") {
		t.Errorf("want result-count mismatch error, got %v", err)
	}
}

// shortScatter places one result fewer than iterations per batch.
type shortScatter struct{ fakeRemote }

func (s *shortScatter) CallRemoteScatter(x *xq.XRPCExpr, batches []ScatterBatch, sink ScatterSink) []error {
	errs := make([]error, len(batches))
	for b, batch := range batches {
		res, err := s.fakeRemote.CallRemoteBulk(batch.Target, x, batch.Iterations)
		for k := 0; err == nil && k < len(res)-1; k++ {
			err = sink.Place(b, k, res[k])
		}
		errs[b] = err
	}
	return errs
}

// TestDocSingleFlight: concurrent doc() resolutions of one URI must share a
// single resolver call and observe identical node identities.
func TestDocSingleFlight(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	e := NewEngine(ResolverFunc(func(uri string) (*xdm.Document, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		return xdm.ParseString("<r/>", uri)
	}))
	const goroutines = 16
	docs := make([]*xdm.Document, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d, err := e.Doc("u.xml")
			if err != nil {
				t.Error(err)
			}
			docs[i] = d
		}(i)
	}
	wg.Wait()
	if calls != 1 {
		t.Errorf("resolver calls = %d, want 1 (single flight)", calls)
	}
	for i := 1; i < goroutines; i++ {
		if docs[i] != docs[0] {
			t.Fatalf("goroutine %d observed a different document identity", i)
		}
	}
	if st := e.StatsSnapshot(); st.DocsResolved != 1 {
		t.Errorf("DocsResolved = %d, want 1", st.DocsResolved)
	}
}

// TestDocErrorNotCached: a failed resolution must not poison the cache.
func TestDocErrorNotCached(t *testing.T) {
	fail := true
	e := NewEngine(ResolverFunc(func(uri string) (*xdm.Document, error) {
		if fail {
			return nil, errors.New("transient")
		}
		return xdm.ParseString("<r/>", uri)
	}))
	if _, err := e.Doc("u.xml"); err == nil {
		t.Fatal("expected transient error")
	}
	fail = false
	if _, err := e.Doc("u.xml"); err != nil {
		t.Fatalf("error was cached: %v", err)
	}
}

// TestDocPanickingResolverFaults: a resolver that panics leaves its cache
// entry holding a fault that names the URI; the call that meets it drops the
// entry, so the call after that resolves again.
func TestDocPanickingResolverFaults(t *testing.T) {
	calls := 0
	e := NewEngine(ResolverFunc(func(uri string) (*xdm.Document, error) {
		if calls++; calls == 1 {
			panic("resolver bug")
		}
		return xdm.ParseString("<r/>", uri)
	}))
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the resolver's panic did not reach the caller")
			}
		}()
		_, _ = e.Doc("u")
	}()
	_, err := e.Doc("u")
	if err == nil || err.Error() != `eval: doc("u"): resolution did not complete` || !errors.Is(err, errDocIncomplete) {
		t.Fatalf("after a panicking resolution: %v, want the incomplete-resolution fault", err)
	}
	if d, err := e.Doc("u"); err != nil || d == nil || calls != 2 {
		t.Fatalf("the faulted entry was kept: doc %v, err %v, %d resolver calls, want 2", d, err, calls)
	}
}
