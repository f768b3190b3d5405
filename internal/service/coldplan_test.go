package service

import (
	"fmt"
	"strings"
	"testing"

	"distxq/internal/core"
	"distxq/internal/peer"
	"distxq/internal/xmark"
	"distxq/internal/xrpc"
)

// coldPlanTemplates are the three query templates of the repository
// benchmark's plan_cold workload (genPlanCold in benchmark/fixture.go), each
// with one of its constants, and what a Service.Query of a fresh shape of
// each allocates, measured when the plan path last changed.
var coldPlanTemplates = []struct {
	name, src string
	measured  float64
}{
	{"scatter", `for $x in doc("` + xmark.LogicalPeopleURI + `")/child::site/child::people/child::person
return if ($x/descendant::age < 50) then $x/child::name else ()`, 768},
	{"bulk", `declare function f($n as xs:string) as item()*
{ count(doc("xrpc://peer1/xmk.xml")//person[attribute::id = $n]) };
for $i in ("person50", "person51", "person52", "person53") return execute at {"peer1"} { f($i) }`, 531},
	{"single-peer", `doc("xrpc://peer2/xmk.xml")/child::site/child::people/child::person[descendant::age < 50]/child::name`, 291},
}

// planColdFederation is plan_cold's federation: four peers sharding a
// 16 KiB people document, behind a service under by-projection configured
// by cfg.
func planColdFederation(cfg Config) (*Service, *peer.Network, []string) {
	peers := []string{"peer1", "peer2", "peer3", "peer4"}
	people := xmark.ForSize(16 << 10)
	people.Seed = 1
	n := peer.NewNetwork()
	for i, name := range peers {
		n.AddPeer(name).AddDoc(xmark.PeopleShardPath, xmark.PeopleShardDocument(people, i, len(peers), "xrpc://"+name+"/"+xmark.PeopleShardPath))
	}
	return New(n, n.AddPeer("local"), core.ByProjection, cfg).UseShards(xmark.PeopleShardMap(peers)), n, peers
}

// TestModuleCacheHitsPlanColdShapes: plan_cold's 512 texts — three
// templates, each with 171 constants — are three plan shapes at the
// originator and a handful of module shapes at the peers, so both caches
// answer at least nine lookups in ten.
func TestModuleCacheHitsPlanColdShapes(t *testing.T) {
	s, n, peers := planColdFederation(Config{})
	for i := 0; i < 512; i++ {
		k := 50 + i/3
		src := coldPlanTemplates[i%3].src
		switch i % 3 {
		case 1:
			src = strings.NewReplacer("person50", fmt.Sprintf("person%d", k), "person51", fmt.Sprintf("person%d", k+1),
				"person52", fmt.Sprintf("person%d", k+2), "person53", fmt.Sprintf("person%d", k+3)).Replace(src)
		default:
			src = strings.Replace(src, "< 50", fmt.Sprintf("< %d", k), 1)
		}
		if _, _, err := s.Query(src, core.Budget{}); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
	}
	st := s.Stats()
	if ratio := float64(st.PlanHits) / float64(st.PlanHits+st.PlanMisses); ratio < 0.9 {
		t.Errorf("plan cache hit ratio %.3f (%d hits, %d misses), want ≥ 0.9", ratio, st.PlanHits, st.PlanMisses)
	}
	var mod xrpc.ModuleCacheStats
	for _, name := range peers {
		p, _ := n.Peer(name)
		c := p.Server.ModuleCacheStats()
		mod.Hits, mod.Misses, mod.Admissions = mod.Hits+c.Hits, mod.Misses+c.Misses, mod.Admissions+c.Admissions
	}
	if ratio := float64(mod.Hits) / float64(mod.Hits+mod.Misses); ratio < 0.9 {
		t.Errorf("module caches: hit ratio %.3f (%+v), want ≥ 0.9", ratio, mod)
	} else {
		t.Logf("plan cache %d hits, %d misses; module caches %+v", st.PlanHits, st.PlanMisses, mod)
	}
}

// TestColdPlanAllocCeilings keeps the true cold path gated now that
// plan_cold's texts share three shapes: per template, Service.Query of a
// shape the plan cache has never seen — an unused declaration with a fresh
// name makes each run's text its own shape — may allocate at most 10 % over
// its measured count. The peers see the same shipped modules every run, so
// after the warm-up their module caches hit; TestColdLoweringAllocCeilings
// gates their cold calls.
func TestColdPlanAllocCeilings(t *testing.T) {
	s, _, _ := planColdFederation(Config{})
	fresh := 0
	for _, tpl := range coldPlanTemplates {
		var err error
		got := testing.AllocsPerRun(20, func() {
			fresh++
			src := fmt.Sprintf("declare function g%06d() as item()* { () };\n%s", fresh, tpl.src)
			if _, _, qerr := s.Query(src, core.Budget{}); qerr != nil {
				err = qerr
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", tpl.name, err)
		}
		if ceiling := tpl.measured * 1.1; got > ceiling {
			t.Errorf("%s: a fresh shape's query allocates %.0f times, ceiling %.0f (measured %.0f)", tpl.name, got, ceiling, tpl.measured)
		} else {
			t.Logf("%s: %.0f allocations (measured %.0f)", tpl.name, got, tpl.measured)
		}
	}
	if st := s.Stats(); st.PlanHits != 0 {
		t.Errorf("%d plan-cache hits: the shapes were not fresh", st.PlanHits)
	}
}
