package peer

// churn_equiv_test.go is the randomized churn-equivalence harness for
// replicated shards: seeded schedules of kill/revive operations over a static
// replicated shard map interleave with generated queries, and every query must
// serialize byte-identically to static local execution over the unsharded
// reference document — whichever copies are down, for 2/4/8-shard layouts,
// gather-whole and streamed dispatch, on both sides of the executor policy
// (queries sent once tree-walk; queries re-sent cross into compiled
// execution). Correctness of the scatter rewrite with every host up is proven
// by the core equivalence harness; this one proves hosts can fail and return
// underneath the session without the answers moving with them.

import (
	"fmt"
	"math/rand"
	"testing"

	"distxq/internal/core"
	"distxq/internal/eval"
	"distxq/internal/testkit"
	"distxq/internal/xdm"
	"distxq/internal/xmark"
	"distxq/internal/xrpc"
)

// buildUnionReference constructs the unsharded logical document: one
// site/people skeleton with every shard's person records copied in
// shard-major order — the oracle every churned execution must match.
func buildUnionReference(t *testing.T, shards []*xdm.Document) *xdm.Document {
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

// churnWorld is one federation layout under churn: every shard i is held by
// three interchangeable hosts (s<i>a, s<i>b, s<i>c — byte-identical copies),
// mapped as primary s<i>a with replicas s<i>b and s<i>c. The schedule
// machinery keeps one invariant: every shard always retains at least one live
// copy, so every query has a correct answer to find.
type churnWorld struct {
	t      *testing.T
	n      *Network
	local  *Peer
	shards int
	hosts  [][]string
	m      core.ShardMap
	refEng *eval.Engine
	dead   map[string]bool
	kills  int // mapped hosts killed in the current schedule
}

func newChurnWorld(t *testing.T, shards int) *churnWorld {
	t.Helper()
	cfg := xmark.Config{Seed: 23, Persons: 18, FillerBytes: 0, MinAge: 18, MaxAge: 50}
	w := &churnWorld{t: t, n: NewNetwork(), shards: shards, dead: map[string]bool{}}
	refShards := make([]*xdm.Document, shards)
	var primaries []string
	var replicas [][]string
	for i := 0; i < shards; i++ {
		var hs []string
		for _, suffix := range []string{"a", "b", "c"} {
			name := fmt.Sprintf("s%d%s", i, suffix)
			d := xmark.PeopleShardDocument(cfg, i, shards, "xrpc://"+name+"/"+xmark.PeopleShardPath)
			w.n.AddPeer(name).AddDoc(xmark.PeopleShardPath, d)
			if suffix == "a" {
				refShards[i] = d
			}
			hs = append(hs, name)
		}
		w.hosts = append(w.hosts, hs)
		primaries = append(primaries, hs[0])
		replicas = append(replicas, hs[1:])
	}
	w.m = xmark.PeopleShardMap(primaries)
	w.m.Replicas = replicas
	w.local = w.n.AddPeer("local")
	ref := buildUnionReference(t, refShards)
	w.refEng = eval.NewEngine(eval.ResolverFunc(func(uri string) (*xdm.Document, error) {
		if uri != xmark.LogicalPeopleURI {
			return nil, fmt.Errorf("reference engine: unexpected doc(%q)", uri)
		}
		return ref, nil
	}))
	return w
}

// reset revives every host for the next schedule.
func (w *churnWorld) reset() {
	for name := range w.dead {
		w.n.RevivePeer(name)
		delete(w.dead, name)
	}
	w.kills = 0
}

// liveCopies counts shard i's copies that are alive, pretending `excluding`
// were dead — the invariant check before a kill.
func (w *churnWorld) liveCopies(i int, excluding string) int {
	count := 0
	for _, c := range w.hosts[i] {
		if c != excluding && !w.dead[c] {
			count++
		}
	}
	return count
}

// kill takes host h of shard i down if the shard keeps a live copy without
// it, reporting whether it did.
func (w *churnWorld) kill(i int, h string) bool {
	if w.dead[h] || w.liveCopies(i, h) == 0 {
		return false
	}
	w.n.KillPeer(h)
	w.dead[h] = true
	w.kills++
	return true
}

// randomOp kills or revives one random host, skipping draws that would
// strand a shard without a live copy.
func (w *churnWorld) randomOp(rng *rand.Rand) {
	for attempt := 0; attempt < 12; attempt++ {
		i := rng.Intn(w.shards)
		if rng.Intn(2) == 0 {
			if w.kill(i, w.hosts[i][rng.Intn(3)]) {
				return
			}
			continue
		}
		var downs []string
		for _, row := range w.hosts {
			for _, h := range row {
				if w.dead[h] {
					downs = append(downs, h)
				}
			}
		}
		if len(downs) == 0 {
			continue
		}
		h := downs[rng.Intn(len(downs))]
		w.n.RevivePeer(h)
		delete(w.dead, h)
		return
	}
}

// churnQuery generates one query over the logical people document: mostly
// scatter-safe shapes the planner rewrites into per-shard lanes, plus a
// positional one that exercises the materialized-union fallback — both paths
// must survive churn.
const churnQueryPrefix = `doc("` + xmark.LogicalPeopleURI + `")/child::site/child::people/child::person`

func churnQuery(rng *rand.Rand) string {
	const prefix = churnQueryPrefix
	age := 18 + rng.Intn(35)
	switch rng.Intn(6) {
	case 0:
		return prefix + `/child::name`
	case 1:
		return fmt.Sprintf(`%s[descendant::age < %d]/child::name`, prefix, age)
	case 2:
		return fmt.Sprintf(
			`for $x in %s return if ($x/descendant::age < %d) then $x/child::name else ()`, prefix, age)
	case 3:
		return fmt.Sprintf(`count(%s[child::profile/child::age > %d])`, prefix, age)
	case 4:
		return fmt.Sprintf(
			`for $x in %s return element rec { $x/child::name, $x/descendant::age }`, prefix)
	default:
		return fmt.Sprintf(`%s[%d]/child::name`, prefix, 1+rng.Intn(6))
	}
}

// runSchedule drives one seeded schedule: a session over the static
// replicated map issues generated queries while kills and revivals land
// between them, at least one of them a kill; every result must match the
// static local reference byte for byte. With a nil reuse every query is sent
// once through the plain session — nothing is ever re-planned, so the
// originator only tree-walks; otherwise each query is sent three times
// through reuse under its liveness state: planned and tree-walked, compiled on
// the plan's first reuse, and run compiled.
func (w *churnWorld) runSchedule(rng *rand.Rand, schedule int, reuse *planReuse) {
	w.t.Helper()
	w.reset()
	streamed := schedule%2 == 1
	pol := &xrpc.RetryPolicy{RouteLive: rng.Intn(2) == 0}
	sess := w.n.NewSession(w.local, core.ByFragment).
		UseShards(w.m).UseRetry(pol)
	if pol.RouteLive {
		sess.UseHealth(xrpc.NewHealthTracker())
	}
	sess.Streamed = streamed
	sends, send := 1, reuse.sender(sess)
	if reuse != nil {
		sends = 3
	}
	const queries = 3
	for qi := 0; qi < queries; qi++ {
		if qi > 0 {
			for o, ops := 0, 1+rng.Intn(2); o < ops; o++ {
				w.randomOp(rng)
			}
			if qi == queries-1 && w.kills == 0 {
				// The draws killed nothing, so every host is up: take shard
				// 0's primary down to guarantee the schedule's kill.
				w.kill(0, w.hosts[0][0])
			}
		}
		src := churnQuery(rng)
		localRes, err := testkit.Query(w.refEng, src)
		if err != nil {
			w.t.Fatalf("schedule %d query %d local eval: %v\n%s", schedule, qi, err, src)
		}
		want := serializeSeq(w.t, localRes)
		for i := 1; i <= sends; i++ {
			res, _, err := send(src)
			if err != nil {
				w.t.Fatalf("schedule %d (shards=%d streamed=%v routeLive=%v) query %d send %d/%d: %v\n%s\ndead: %v",
					schedule, w.shards, streamed, pol.RouteLive, qi, i, sends, err, src, w.dead)
			}
			if got := serializeSeq(w.t, res); got != want {
				w.t.Fatalf("schedule %d (shards=%d streamed=%v routeLive=%v) query %d send %d/%d diverged\nquery: %s\nlocal: %q\nchurn: %q\ndead: %v",
					schedule, w.shards, streamed, pol.RouteLive, qi, i, sends, src, want, got, w.dead)
			}
		}
	}
	if w.kills == 0 {
		w.t.Fatalf("schedule %d killed no mapped host", schedule)
	}
}

// TestChurnEquivalence is the headline harness: 35 seeded schedules per
// layout on either side of the executor policy (210 total) on 2/4/8-shard
// federations, each schedule killing at least one mapped host mid-session,
// alternating gather-whole/streamed dispatch per schedule, every query
// byte-identical to static local evaluation. Nobody picks an executor: the
// compiled=false schedules send each query once (no plan is ever reused, so
// the originator never compiles), the compiled=true schedules re-send each
// query until plan reuse and the peers' module caches have
// both crossed into compiled execution — which the run then proves happened.
func TestChurnEquivalence(t *testing.T) {
	const schedules = 35
	for _, shards := range []int{2, 4, 8} {
		for _, reused := range []bool{false, true} {
			shards, reused := shards, reused
			t.Run(fmt.Sprintf("%dshards/compiled=%v", shards, reused), func(t *testing.T) {
				w := newChurnWorld(t, shards)
				base := int64(1000 * shards)
				var reuse *planReuse
				if reused {
					base += 500
					reuse = &planReuse{}
				}
				for s := 0; s < schedules; s++ {
					w.runSchedule(rand.New(rand.NewSource(base+int64(s))), s, reuse)
				}
				if reused {
					reuse.requireBothExecutors(t, w.n.engines()...)
				}
			})
		}
	}
}
