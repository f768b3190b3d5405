package eval_test

import (
	"strings"
	"sync"
	"testing"

	"distxq/internal/core"
	"distxq/internal/eval"
	"distxq/internal/xdm"
	"distxq/internal/xmark"
	"distxq/internal/xq"
)

// localEvalShapes are the seven query shapes of the repository benchmark's
// local_eval workload (benchmark/fixture.go), over one people document.
var localEvalShapes = []struct {
	name, src string
	// measured is the compiled allocation count per query on
	// localEvalDocument when the shape was last lowered further.
	measured float64
}{
	{"count-predicate", `count(doc("xmk.xml")/descendant::person[descendant::age < 40])`, 22},
	{"for-where", `for $p in doc("xmk.xml")/child::site/child::people/child::person
	 where $p/child::profile/child::age < 40 return $p/child::name`, 26},
	{"sum", `sum(doc("xmk.xml")/child::site/child::regions/child::*/child::item/child::quantity)`, 27},
	{"distinct-values", `distinct-values(doc("xmk.xml")/child::site/child::people/child::person/child::profile/child::age)`, 67},
	{"constructor", `for $i in subsequence(doc("xmk.xml")/child::site/child::regions/child::*/child::item, 1, 300)
	 return <offer>{$i/attribute::id}<n>{$i/child::name/text()}</n>{$i/child::payment}</offer>`, 1238},
	{"order-by", `for $p in doc("xmk.xml")/child::site/child::people/child::person
	 order by $p/child::profile/attribute::income descending return $p/child::emailaddress/text()`, 41},
	{"string-join", `string-join(doc("xmk.xml")/child::site/child::people/child::person/child::name, ",")`, 26},
}

// localEvalDocument is the people document local_eval runs over: 1 MiB of
// XMark with seed 3.
func localEvalDocument() *xdm.Document {
	cfg := xmark.ForSize(2 << 20)
	cfg.Seed = 3
	return xmark.PeopleDocument(cfg, "xmk.xml")
}

func serializeSeq(s xdm.Sequence) string {
	var sb strings.Builder
	for i, it := range s {
		if i > 0 {
			sb.WriteByte(' ')
		}
		if n, ok := it.(*xdm.Node); ok {
			sb.WriteString(xdm.SerializeString(n))
		} else {
			sb.WriteString(it.ItemString())
		}
	}
	return sb.String()
}

// TestLocalEvalAllocCeilings pins, per local_eval shape, how many
// allocations one compiled execution may cost, so an executor regression
// fails here before anyone runs the benchmark.
func TestLocalEvalAllocCeilings(t *testing.T) {
	doc := localEvalDocument()
	eng := eval.NewEngine(eval.ResolverFunc(func(string) (*xdm.Document, error) { return doc, nil }))
	for _, sh := range localEvalShapes {
		q, err := xq.ParseQuery(sh.src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eval.CompileQuery(q); err != nil {
			t.Fatal(err)
		}
		var runErr error
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := eng.Query(q); err != nil {
				runErr = err
			}
		})
		if runErr != nil {
			t.Fatalf("%s: %v", sh.name, runErr)
		}
		t.Logf("%s: %.0f allocs per compiled query", sh.name, allocs)
		// The ceiling is the measured count plus 10 %, and never less than
		// four more: map growth differs a little between Go releases.
		if ceiling := max(sh.measured*1.1, sh.measured+4); allocs > ceiling {
			t.Errorf("%s: %.0f allocs per compiled query, ceiling %.0f", sh.name, allocs, ceiling)
		}
	}
}

// TestWorkloadPlansCompileWhole: the decomposed plans of the repository
// benchmark's distributed workloads — the scatter query, the §VII semijoin
// and plan_cold's three templates — lower completely under every passing
// strategy, their remote calls included.
func TestWorkloadPlansCompileWhole(t *testing.T) {
	peers := []string{"peer1", "peer2", "peer3", "peer4"}
	known := map[string]bool{}
	for _, p := range peers {
		known[p] = true
	}
	for _, src := range []string{
		xmark.ScatterQuery(peers),
		xmark.BenchmarkQuery("peer1", "peer2"),
		`for $x in doc("` + xmark.LogicalPeopleURI + `")/child::site/child::people/child::person
		 return if ($x/descendant::age < 50) then $x/child::name else ()`,
		`declare function f($n as xs:string) as item()*
		 { count(doc("xrpc://peer1/xmk.xml")//person[attribute::id = $n]) };
		 for $i in ("person1", "person2") return execute at {"peer1"} { f($i) }`,
		`doc("xrpc://peer2/xmk.xml")/child::site/child::people/child::person[descendant::age < 50]/child::name`,
	} {
		for _, strat := range []core.Strategy{core.ByValue, core.ByFragment, core.ByProjection} {
			q, err := xq.ParseQuery(src)
			if err != nil {
				t.Fatal(err)
			}
			opts := core.DefaultOptions()
			opts.Shards, opts.KnownPeers = []core.ShardMap{xmark.PeopleShardMap(peers)}, known
			plan, err := core.Decompose(q, strat, opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eval.CompileQuery(plan.Query); err != nil {
				t.Fatalf("%s: %v in the plan of\n%s", strat, err, src)
			}
		}
	}
}

// TestConcurrentProgramOrderByConstructors runs one Program that sorts and
// constructs from eight goroutines at once: every run must produce the same
// bytes, because all scratch lives in the run's own frames.
func TestConcurrentProgramOrderByConstructors(t *testing.T) {
	doc := localEvalDocument()
	q, err := xq.ParseQuery(`for $p in doc("xmk.xml")/child::site/child::people/child::person
	 order by $p/child::profile/attribute::income descending, $p/child::name
	 return <r id="{1}">{$p/attribute::id}<n>{$p/child::name/text()}</n>{$p/child::profile/child::age, "y"}</r>`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eval.CompileQuery(q); err != nil {
		t.Fatal(err)
	}
	run := func() (string, error) {
		eng := eval.NewEngine(eval.ResolverFunc(func(string) (*xdm.Document, error) { return doc, nil }))
		res, err := eng.Query(q)
		return serializeSeq(res), err
	}
	want, err := run()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	got := make([]string, 8)
	errs := make([]error, 8)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4 && errs[g] == nil; i++ {
				got[g], errs[g] = run()
				if got[g] != want {
					return
				}
			}
		}()
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil || got[g] != want {
			t.Fatalf("goroutine %d: err %v, %d bytes, want %d", g, errs[g], len(got[g]), len(want))
		}
	}
}
