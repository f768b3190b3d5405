// Package core_test holds the shard-rewrite equivalence harness: a seeded
// random query generator over the XMark people schema whose queries run both
// locally on the unsharded logical document and through the shard-aware
// planner on simulated 2/4/8-peer federations, requiring byte-identical
// serialized results — for scattered plans and fallback plans alike. It lives
// in the external test package so it can drive the full peer stack.
package core_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"distxq/internal/core"
	"distxq/internal/eval"
	"distxq/internal/peer"
	"distxq/internal/service"
	"distxq/internal/testkit"
	"distxq/internal/xdm"
	"distxq/internal/xmark"
)

// harnessConfig is the shared document shape: a person count not divisible
// by any tested peer count, so shards are uneven.
func harnessConfig() xmark.Config {
	return xmark.Config{Seed: 19, Persons: 18, FillerBytes: 0, MinAge: 18, MaxAge: 50}
}

var layouts = []int{2, 4, 8}

// shardedWorld is one federation layout plus the matching unsharded
// reference: the logical document whose record sequence concatenates the
// shards in shard-major order.
type shardedWorld struct {
	peers    int
	net      *peer.Network
	local    *peer.Peer
	names    []string
	refDoc   *xdm.Document
	refEng   *eval.Engine
	shardMap core.ShardMap
}

func newShardedWorld(t *testing.T, cfg xmark.Config, n int) *shardedWorld {
	t.Helper()
	w := &shardedWorld{peers: n, net: peer.NewNetwork()}
	shards := make([]*xdm.Document, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("peer%d", i+1)
		p := w.net.AddPeer(name)
		d := xmark.PeopleShardDocument(cfg, i, n, "xrpc://"+name+"/"+xmark.PeopleShardPath)
		p.AddDoc(xmark.PeopleShardPath, d)
		shards[i] = d
		w.names = append(w.names, name)
	}
	w.local = w.net.AddPeer("local")
	w.shardMap = xmark.PeopleShardMap(w.names)
	w.refDoc = buildReference(t, shards)
	w.refEng = eval.NewEngine(eval.ResolverFunc(func(uri string) (*xdm.Document, error) {
		if uri != xmark.LogicalPeopleURI {
			return nil, fmt.Errorf("reference engine: unexpected doc(%q)", uri)
		}
		return w.refDoc, nil
	}))
	return w
}

// serve puts the world behind a federation service, the way xqd runs it: the
// harness re-sends every query, so a plan's first execution tree-walks and
// its reuse runs compiled, on the originator and (through the module caches)
// on the peers.
func (w *shardedWorld) serve(strat core.Strategy) *service.Service {
	return service.New(w.net, w.local, strat, service.Config{}).UseShards(w.shardMap)
}

// sends is how often the harness sends each query: planned and tree-walked,
// compiled on the plan's first cache hit, then run compiled.
const sends = 3

// requireBothExecutors is the harness's non-vacuity check: every service
// tree-walked first executions and compiled reused plans, and at least one
// peer compiled a shipped module it saw twice.
func (w *shardedWorld) requireBothExecutors(t *testing.T, svcs ...*service.Service) {
	t.Helper()
	for _, svc := range svcs {
		if st, c := svc.Stats(), testkit.Metric(t, svc.WriteMetrics, "distxq_eval_compilations_total"); st.PlanMisses == 0 || c == 0 {
			t.Errorf("%d peers: originator planned %d queries afresh and compiled %d; the harness must exercise both executors",
				w.peers, st.PlanMisses, c)
		}
	}
	for _, name := range w.names {
		if p, ok := w.net.Peer(name); ok && p.Engine.StatsSnapshot().Compilations > 0 {
			return
		}
	}
	t.Errorf("%d peers: no peer compiled a shipped module", w.peers)
}

// buildReference constructs the unsharded logical document independently of
// core.ShardMap.Materialize: one site/people skeleton with every shard's
// person records copied in shard-major order.
func buildReference(t *testing.T, shards []*xdm.Document) *xdm.Document {
	t.Helper()
	d := xdm.NewDocument(xmark.LogicalPeopleURI)
	site := xdm.NewElement("site")
	people := xdm.NewElement("people")
	site.AppendChild(people)
	for _, sd := range shards {
		srcSite := sd.Root.Children[0]
		var srcPeople *xdm.Node
		for _, ch := range srcSite.Children {
			if ch.Kind == xdm.ElementNode && ch.Name == "people" {
				srcPeople = ch
			}
		}
		if srcPeople == nil {
			t.Fatal("shard lacks site/people")
		}
		for _, rec := range srcPeople.Children {
			if rec.Kind == xdm.ElementNode && rec.Name == "person" {
				people.AppendChild(rec.Copy())
			}
		}
	}
	d.Root.AppendChild(site)
	d.Freeze()
	return d
}

func serializeSeq(s xdm.Sequence) string {
	var sb strings.Builder
	for i, it := range s {
		if i > 0 {
			sb.WriteByte(' ')
		}
		switch v := it.(type) {
		case *xdm.Node:
			_ = xdm.Serialize(&sb, v)
		case xdm.Atomic:
			sb.WriteString(v.ItemString())
		}
	}
	return sb.String()
}

// genQuery is one generated query plus the expected planner decision for its
// topmost shard candidate.
type genQuery struct {
	src string
	// topScatter is whether the first (topmost) shard decision must be a
	// scatter; false marks the deliberate fallback cases.
	topScatter bool
}

const doc = `doc("` + xmark.LogicalPeopleURI + `")`
const prefix = doc + `/child::site/child::people/child::person`

// cities must match the generator vocabulary in xmark.appendPerson.
var cities = []string{"Amsterdam", "Utrecht", "Delft", "Leiden"}

// safePred returns a record-level predicate the planner can prove
// non-positional.
func safePred(r *rand.Rand) string {
	switch r.Intn(5) {
	case 0:
		return fmt.Sprintf(`[child::profile/child::age > %d]`, 18+r.Intn(35))
	case 1:
		return fmt.Sprintf(`[descendant::age < %d]`, 18+r.Intn(35))
	case 2:
		return fmt.Sprintf(`[child::address/child::city = %q]`, cities[r.Intn(len(cities))])
	case 3:
		return fmt.Sprintf(`[child::profile/attribute::income > %d]`, 20000+r.Intn(80000))
	default:
		return ""
	}
}

// positionalPred returns a record-level predicate that must force fallback.
func positionalPred(r *rand.Rand) string {
	switch r.Intn(3) {
	case 0:
		return fmt.Sprintf(`[%d]`, 1+r.Intn(6))
	case 1:
		return fmt.Sprintf(`[position() = %d]`, 1+r.Intn(6))
	default:
		return `[last()]`
	}
}

// safeTail returns a downward continuation below the record step.
func safeTail(r *rand.Rand) string {
	return []string{
		``,
		`/child::name`,
		`/child::name/text()`,
		`/descendant::age`,
		`/child::profile/child::age`,
		`/child::emailaddress`,
		`/attribute::id`,
		`/child::address/child::city/text()`,
	}[r.Intn(8)]
}

// generate produces one random query. Roughly three quarters should scatter;
// the rest exercise every fallback condition.
func generate(r *rand.Rand) genQuery {
	switch r.Intn(14) {
	case 0: // plain path
		return genQuery{src: prefix + safePred(r) + safeTail(r), topScatter: true}
	case 1: // aggregate consumer over a scattered path
		agg := []string{"count", "exists"}[r.Intn(2)]
		return genQuery{src: fmt.Sprintf(`%s(%s%s)`, agg, prefix, safePred(r)), topScatter: true}
	case 2: // FLWOR with filtering body
		return genQuery{src: fmt.Sprintf(
			`for $x in %s%s return if ($x/descendant::age < %d) then $x/child::name else ()`,
			prefix, safePred(r), 18+r.Intn(35)), topScatter: true}
	case 3: // FLWOR with constructor body
		return genQuery{src: fmt.Sprintf(
			`for $x in %s%s return element rec { $x/child::name, $x/descendant::age }`,
			prefix, safePred(r)), topScatter: true}
	case 4: // FLWOR with let and sequence body
		return genQuery{src: fmt.Sprintf(
			`for $x in %s return let $a := $x/descendant::age return if ($a > %d) then ($x/child::emailaddress, $x/child::address/child::city) else ()`,
			prefix, 18+r.Intn(35)), topScatter: true}
	case 5: // let-bound path, loop over the binding
		return genQuery{src: fmt.Sprintf(
			`let $s := %s%s return for $x in $s return $x/child::name`,
			prefix, safePred(r)), topScatter: true}
	case 6: // outer variable shipped as scatter parameter
		return genQuery{src: fmt.Sprintf(
			`let $k := %d return for $x in %s[descendant::age > $k] return if ($x/descendant::age < $k + %d) then $x/child::name else ()`,
			18+r.Intn(20), prefix, 5+r.Intn(10)), topScatter: true}
	case 7: // positional record predicate: fallback
		return genQuery{src: prefix + positionalPred(r) + safeTail(r), topScatter: false}
	case 8: // reverse axis escaping the record subtree: fallback
		return genQuery{src: fmt.Sprintf(
			`for $x in %s%s return $x/parent::people/child::person[descendant::age < %d]/child::name`,
			prefix, safePred(r), 18+r.Intn(35)), topScatter: false}
	case 9: // second document access (cross-shard join shape): fallback
		return genQuery{src: fmt.Sprintf(
			`for $x in %s[descendant::age > %d] return if ($x/child::address/child::city = %s[descendant::age < %d]/child::address/child::city) then $x/child::name else ()`,
			prefix, 18+r.Intn(20), prefix, 18+r.Intn(20)), topScatter: false}
	case 10: // path stops above the record sequence: fallback
		return genQuery{src: []string{
			doc,
			doc + `/child::site`,
			doc + `/child::site/child::people`,
			`count(` + doc + `)`,
		}[r.Intn(4)], topScatter: false}
	case 11: // node-set operator over two applications of the logical doc: fallback
		return genQuery{src: fmt.Sprintf(`count(%s union %s%s)`, prefix, prefix, safePred(r)), topScatter: false}
	case 12: // call to a user-declared function: fallback (body is not shipped)
		return genQuery{src: fmt.Sprintf(
			`declare function pick($y as item()*) as item()* { if ($y/descendant::age < %d) then $y/child::name else () };
			 for $x in %s%s return pick($x)`,
			18+r.Intn(35), prefix, safePred(r)), topScatter: false}
	default: // user function navigating upward from the records: the whole
		// query must stay local (shipped copies lack the skeleton context)
		return genQuery{src: fmt.Sprintf(
			`declare function up($y as item()*) as item()* { $y/parent::people/child::person/child::name };
			 for $x in %s return if ($x/descendant::age > %d) then up($x) else ()`,
			prefix, 18+r.Intn(35)), topScatter: false}
	}
}

// TestShardRewriteEquivalence is the headline harness: ≥200 generated
// queries per seed, each evaluated locally on the unsharded reference and
// through the shard-aware planner on 2/4/8-peer federations, requiring
// byte-identical serialized results and the expected rewrite decision — on
// every send, so the tree-walked and the compiled execution of each query
// both match the reference (which always tree-walks, keeping the oracle
// independent of the compiler).
func TestShardRewriteEquivalence(t *testing.T) {
	cfg := harnessConfig()
	worlds := make([]*shardedWorld, 0, len(layouts))
	services := map[*shardedWorld]*service.Service{}
	for _, n := range layouts {
		w := newShardedWorld(t, cfg, n)
		worlds = append(worlds, w)
		services[w] = w.serve(core.ByFragment)
	}
	const perSeed = 208
	for _, seed := range []int64{1, 2} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			scattered, fellBack := 0, 0
			for qi := 0; qi < perSeed; qi++ {
				q := generate(r)
				if q.topScatter {
					scattered++
				} else {
					fellBack++
				}
				for _, w := range worlds {
					localRes, err := testkit.Query(w.refEng, q.src)
					if err != nil {
						t.Fatalf("query %d (%d peers) local eval: %v\n%s", qi, w.peers, err, q.src)
					}
					for send := 1; send <= sends; send++ {
						shardRes, rep, err := services[w].Query(q.src, core.Budget{})
						if err != nil {
							t.Fatalf("query %d (%d peers, send %d) sharded eval: %v\n%s", qi, w.peers, send, err, q.src)
						}
						if got, want := serializeSeq(shardRes), serializeSeq(localRes); got != want {
							t.Fatalf("query %d (%d peers, send %d) diverged:\n query: %s\n local: %q\n shard: %q\n decisions: %+v",
								qi, w.peers, send, q.src, want, got, rep.Shards)
						}
						if len(rep.Shards) == 0 {
							t.Fatalf("query %d (%d peers): no shard decision recorded\n%s", qi, w.peers, q.src)
						}
						if rep.Shards[0].Scattered != q.topScatter {
							t.Fatalf("query %d (%d peers): top decision scattered=%v (reason %q), want %v\n%s",
								qi, w.peers, rep.Shards[0].Scattered, rep.Shards[0].Reason, q.topScatter, q.src)
						}
					}
				}
			}
			if scattered < 100 || fellBack < 50 {
				t.Fatalf("generator mix too thin: %d scattered, %d fallback", scattered, fellBack)
			}
			for _, w := range worlds {
				w.requireBothExecutors(t, services[w])
			}
		})
	}
}

// TestShardRewriteEquivalenceAcrossStrategies runs the canonical logical
// scatter workload under every function-shipping strategy and the
// data-shipping baseline; all must agree with the local reference.
func TestShardRewriteEquivalenceAcrossStrategies(t *testing.T) {
	cfg := harnessConfig()
	w := newShardedWorld(t, cfg, 4)
	localRes, err := testkit.Query(w.refEng, xmark.LogicalScatterQuery())
	if err != nil {
		t.Fatal(err)
	}
	want := serializeSeq(localRes)
	var svcs []*service.Service
	for _, strat := range []core.Strategy{core.DataShipping, core.ByValue, core.ByFragment, core.ByProjection} {
		svc := w.serve(strat)
		svcs = append(svcs, svc)
		for send := 1; send <= sends; send++ {
			res, rep, err := svc.Query(xmark.LogicalScatterQuery(), core.Budget{})
			if err != nil {
				t.Fatalf("%s (send %d): %v", strat, send, err)
			}
			if got := serializeSeq(res); got != want {
				t.Fatalf("%s (send %d) diverged:\n local: %q\n shard: %q", strat, send, want, got)
			}
			if strat != core.DataShipping {
				if len(rep.Shards) == 0 || !rep.Shards[0].Scattered {
					t.Fatalf("%s: expected a scattered plan, got %+v", strat, rep.Shards)
				}
			}
		}
	}
	w.requireBothExecutors(t, svcs...)
}
