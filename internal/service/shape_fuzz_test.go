package service

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"distxq/internal/core"
	"distxq/internal/peer"
	"distxq/internal/xdm"
	"distxq/internal/xq"
	"distxq/internal/xrpc"
)

// shapeShards are the two peers' documents: shards of shapeLogical, whose
// records are child::r/child::v.
var shapeShards = [2]string{
	`<r><v n="1"><age>30</age>a</v><v n="2"><age>45</age>b</v></r>`,
	`<r><v n="3"><age>50</age>c</v><v n="4"><age>20</age>d</v></r>`,
}

const shapeLogical = "shard://t/r"

// shapeSkeletons are query texts with %s slots that the fuzzer fills from
// shapeValues: every structural class, and holes in local code, in shipped
// bodies, in parameters and in synthesized scatter bodies.
var shapeSkeletons = []string{
	`doc(%s)/child::r/child::v[child::age < %s]/@n`,
	`for $x in doc(%s)/child::r/child::v return if ($x/child::age >= %s) then string($x) else %s`,
	`declare function f($k as xs:integer) as item()* { doc("d.xml")/child::r/child::v[child::age > $k][%s] };
for $p in (%s, %s) return execute at {$p} { f(%s) }`,
	`declare function g($s) { doc("d.xml")//v[@n = $s] }; execute at {%s} { g(%s) }`,
	`doc(%s)/child::r/child::v[(%s)]`,
	`count(doc(%s)//v) + %s * %s`,
	`for $x in doc("shard://t/r")/child::r/child::v return if ($x/child::age < %s) then $x/@n else ()`,
	`doc("xrpc://peer1/d.xml")/child::r/child::v[child::age = (%s, %s)]/text()`,
	`for $i in (%s, %s) return doc("xrpc://peer2/d.xml")//v[$i]`,
	`string-join(doc("xrpc://peer1/d.xml")//v/text(), %s), %s`,
}

var shapeValues = []string{`"xrpc://peer1/d.xml"`, `"xrpc://peer2/d.xml"`, `"peer1"`, `"peer2"`,
	`1`, `2`, `40`, `25`, `"1"`, `"a"`, `1.5`, `2e1`, `0`, `"shard://t/r"`}

// shapeVectors is how many argument vectors each fuzz input fills.
const shapeVectors = 3

// recordingTransport records every request it carries, prefixed by its
// destination.
type recordingTransport struct {
	inner xrpc.Transport
	mu    sync.Mutex
	reqs  []string
}

func (r *recordingTransport) RoundTrip(peer string, req []byte) ([]byte, error) {
	r.mu.Lock()
	r.reqs = append(r.reqs, peer+"\n"+string(req))
	r.mu.Unlock()
	return r.inner.RoundTrip(peer, req)
}

// take returns the requests recorded since the last take, in a canonical
// order (scatter lanes run concurrently).
func (r *recordingTransport) take() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.reqs
	r.reqs = nil
	slices.Sort(out)
	return out
}

// shapeService is a fresh federation of two shard peers and an originator
// behind a service under strat, with every request recorded.
func shapeService(t testing.TB, strat core.Strategy) (*Service, *recordingTransport) {
	n := peer.NewNetwork()
	rec := &recordingTransport{inner: n.Transport}
	for i, doc := range shapeShards {
		name := fmt.Sprintf("peer%d", i+1)
		if err := n.AddPeer(name).LoadXML("d.xml", doc); err != nil {
			t.Fatal(err)
		}
		n.RouteExternal(name, rec)
	}
	s := New(n, n.AddPeer("local"), strat, Config{})
	return s.UseShards(core.ShardMap{Logical: shapeLogical, Peers: []string{"peer1", "peer2"},
		ShardPath: "d.xml", RecordPath: "child::r/child::v"}), rec
}

// reply renders a query's outcome: its items or its fault.
func reply(res xdm.Sequence, _ *peer.Report, err error) string {
	if err != nil {
		return "fault: " + err.Error()
	}
	return xdm.SequenceString(res)
}

// FuzzShapeKeyEquivalence fills a skeleton with several argument vectors.
// Every text of the first text's shape, run through a service whose plan
// cache and peer module caches already hold that shape (compiled and
// retained), must answer and put on the wire byte for byte what a fresh
// federation planning the text alone does, under all three
// function-shipping strategies. Texts of another shape are not compared: a
// miss is only slower, a wrong hit a wrong answer.
func FuzzShapeKeyEquivalence(f *testing.F) {
	for _, seed := range []struct {
		skel  uint8
		picks []byte
	}{
		{0, []byte{0, 6, 0, 7, 0, 4}}, {0, []byte{0, 6, 1, 6, 0, 6}},
		{1, []byte{1, 6, 9, 1, 7, 9, 1, 12, 8}},
		{2, []byte{4, 2, 3, 6, 4, 3, 2, 7, 4, 2, 2, 12}}, {2, []byte{4, 2, 3, 6, 5, 2, 3, 6, 4, 2, 3, 6}},
		{3, []byte{2, 8, 2, 9, 2, 8}}, {3, []byte{2, 8, 3, 8, 2, 8}},
		{4, []byte{0, 4, 0, 5, 0, 4}},
		{5, []byte{0, 4, 6, 0, 5, 7, 0, 12, 4}},
		{6, []byte{6, 7, 4}},
		{7, []byte{6, 7, 7, 6, 4, 12}},
		{8, []byte{4, 5, 5, 4, 12, 4}},
		{9, []byte{9, 6, 8, 7, 9, 11}},
	} {
		f.Add(seed.skel, seed.picks)
	}
	f.Fuzz(func(t *testing.T, skel uint8, picks []byte) {
		if len(picks) == 0 {
			return
		}
		tmpl := shapeSkeletons[int(skel)%len(shapeSkeletons)]
		n := strings.Count(tmpl, "%s")
		var texts []string
		for k := 0; k < shapeVectors; k++ {
			vals := make([]any, n)
			for i := range vals {
				vals[i] = shapeValues[int(picks[(k*n+i)%len(picks)])%len(shapeValues)]
			}
			texts = append(texts, fmt.Sprintf(tmpl, vals...))
		}
		key, _ := xq.AppendShapeKey(nil, texts[0])
		for _, strat := range []core.Strategy{core.ByValue, core.ByFragment, core.ByProjection} {
			cached, crec := shapeService(t, strat)
			// Two runs of the first text: the second hits, compiles the plan
			// and retains its modules, and the peers admit its modules.
			for i := 0; i < 2; i++ {
				cached.Query(texts[0], core.Budget{})
			}
			crec.take()
			for _, src := range texts {
				if k, _ := xq.AppendShapeKey(nil, src); string(k) != string(key) {
					continue
				}
				got := reply(cached.Query(src, core.Budget{}))
				gotReqs := crec.take()
				fresh, frec := shapeService(t, strat)
				want := reply(fresh.Query(src, core.Budget{}))
				if got != want {
					t.Fatalf("%s, %s after %q:\ncached plan answers %s\nfresh plan answers  %s", strat, src, texts[0], got, want)
				}
				if wantReqs := frec.take(); !slices.Equal(gotReqs, wantReqs) {
					t.Fatalf("%s, %s after %q: the cached plan sent\n%s\na fresh plan sent\n%s",
						strat, src, texts[0], strings.Join(gotReqs, "\n"), strings.Join(wantReqs, "\n"))
				}
			}
		}
	})
}
