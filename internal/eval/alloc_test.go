package eval_test

import (
	"strings"
	"sync"
	"testing"
	"time"

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
	{"sum", `sum(doc("xmk.xml")/child::site/child::regions/child::*/child::item/child::quantity)`, 25},
	{"distinct-values", `distinct-values(doc("xmk.xml")/child::site/child::people/child::person/child::profile/child::age)`, 67},
	{"constructor", `for $i in subsequence(doc("xmk.xml")/child::site/child::regions/child::*/child::item, 1, 300)
	 return <offer>{$i/attribute::id}<n>{$i/child::name/text()}</n>{$i/child::payment}</offer>`, 113},
	{"order-by", `for $p in doc("xmk.xml")/child::site/child::people/child::person
	 order by $p/child::profile/attribute::income descending return $p/child::emailaddress/text()`, 41},
	{"string-join", `string-join(doc("xmk.xml")/child::site/child::people/child::person/child::name, ",")`, 24},
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

// planColdTemplates are the three query templates of the repository
// benchmark's plan_cold workload (genPlanCold in benchmark/fixture.go), each
// with one of its constants.
var planColdTemplates = []struct{ name, src string }{
	{"scatter", `for $x in doc("` + xmark.LogicalPeopleURI + `")/child::site/child::people/child::person
return if ($x/descendant::age < 50) then $x/child::name else ()`},
	{"bulk", `declare function f($n as xs:string) as item()*
{ count(doc("xrpc://peer1/xmk.xml")//person[attribute::id = $n]) };
for $i in ("person50", "person51", "person52", "person53") return execute at {"peer1"} { f($i) }`},
	{"single-peer", `doc("xrpc://peer2/xmk.xml")/child::site/child::people/child::person[descendant::age < 50]/child::name`},
}

// coldLoweringRows are the rows of TestColdLoweringAllocCeilings: per
// plan_cold template, the originator's run of its decomposed query and the
// peer's call of the module it ships. measured is a row's allocation count
// per call when the executor last changed.
var coldLoweringRows = []struct {
	name     string
	measured float64
}{
	{"scatter/originator", 60}, {"scatter/peer", 53},
	{"bulk/originator", 72}, {"bulk/peer", 56},
	{"single-peer/originator", 10}, {"single-peer/peer", 44},
}

// coldTreeWalkedSum is the sum over coldLoweringRows when a cold query was
// tree-walked, before every call ran a Program.
const coldTreeWalkedSum = 333

// recordingRemote is a RemoteCaller that answers every call with empty
// results and keeps the first call it sees.
type recordingRemote struct {
	x      *xq.XRPCExpr
	params []xdm.Sequence
}

func (r *recordingRemote) keep(x *xq.XRPCExpr, params []xdm.Sequence) {
	if r.x == nil {
		r.x, r.params = x, params
	}
}

func (r *recordingRemote) CallRemote(_ string, x *xq.XRPCExpr, params []xdm.Sequence) (xdm.Sequence, error) {
	r.keep(x, params)
	return nil, nil
}

func (r *recordingRemote) CallRemoteBulk(_ string, x *xq.XRPCExpr, iterations [][]xdm.Sequence) ([]xdm.Sequence, error) {
	r.keep(x, iterations[0])
	return make([]xdm.Sequence, len(iterations)), nil
}

func (r *recordingRemote) CallRemoteScatter(x *xq.XRPCExpr, batches []eval.ScatterBatch, sink eval.ScatterSink) []error {
	r.keep(x, batches[0].Iterations[0])
	errs := make([]error, len(batches))
	for b := range batches {
		for k := 0; errs[b] == nil && k < len(batches[b].Iterations); k++ {
			errs[b] = sink.Place(b, k, nil)
		}
	}
	return errs
}

// TestColdLoweringAllocCeilings pins what plan_cold's cold calls allocate:
// per template, a cold Engine.Query of a freshly decomposed plan against a
// fake caller, and a cold EvalFunctionDeadline of the module that plan
// ships, on a fresh parse, as a peer sees it the first time. Each row may
// grow by 10 % over its measured count, and the rows together by no more
// than 2 % over what tree-walking them cost.
func TestColdLoweringAllocCeilings(t *testing.T) {
	peers := []string{"peer1", "peer2", "peer3", "peer4"}
	known := map[string]bool{}
	for _, p := range peers {
		known[p] = true
	}
	cfg := xmark.ForSize(16 << 10)
	cfg.Seed = 1
	doc := xmark.PeopleDocument(cfg, "xmk.xml")
	resolver := eval.ResolverFunc(func(string) (*xdm.Document, error) { return doc, nil })
	const runs = 10
	var sum float64
	row := 0
	for _, tpl := range planColdTemplates {
		plan := func() *xq.Query {
			q, err := xq.ParseQuery(tpl.src)
			if err != nil {
				t.Fatal(err)
			}
			opts := core.DefaultOptions()
			opts.Shards, opts.KnownPeers = []core.ShardMap{xmark.PeopleShardMap(peers)}, known
			p, err := core.Decompose(q, core.ByProjection, opts)
			if err != nil {
				t.Fatal(err)
			}
			return p.Query
		}
		rec := &recordingRemote{}
		origin := eval.NewEngine(resolver)
		origin.Remote = rec
		if _, err := origin.Query(plan()); err != nil {
			t.Fatalf("%s: %v", tpl.name, err)
		}
		if rec.x == nil {
			t.Fatalf("%s: the plan made no remote call", tpl.name)
		}
		name := rec.x.FuncName
		if name == "" {
			name = "xrpcgen:f1"
		}
		module := &xq.FuncDecl{Name: name, Return: xq.AnyItems, Body: rec.x.Body}
		for i, par := range rec.x.Params {
			typ := xq.AnyItems
			if i < len(rec.x.Types) {
				typ = rec.x.Types[i]
			}
			module.Params = append(module.Params, xq.Param{Name: par.Name, Type: typ})
		}
		text := xq.FuncDeclTemplate(module).Text + "\n0"
		peer := eval.NewEngine(resolver)
		for _, side := range []func() (func() error, error){
			func() (func() error, error) {
				q := plan()
				return func() error { _, err := origin.Query(q); return err }, nil
			},
			func() (func() error, error) {
				q, err := xq.ParseQuery(text)
				return func() error {
					_, err := peer.EvalFunctionDeadline(q, name, rec.params, nil, time.Time{})
					return err
				}, err
			},
		} {
			calls := make([]func() error, runs+1)
			for i := range calls {
				var err error
				if calls[i], err = side(); err != nil {
					t.Fatal(err)
				}
			}
			var runErr error
			allocs := testing.AllocsPerRun(runs, func() {
				if err := calls[0](); err != nil {
					runErr = err
				}
				calls = calls[1:]
			})
			r := coldLoweringRows[row]
			row++
			if runErr != nil {
				t.Fatalf("%s: %v", r.name, runErr)
			}
			t.Logf("%s: %.0f allocs per cold call", r.name, allocs)
			if ceiling := max(r.measured*1.1, r.measured+4); allocs > ceiling {
				t.Errorf("%s: %.0f allocs per cold call, ceiling %.0f", r.name, allocs, ceiling)
			}
			sum += allocs
		}
	}
	t.Logf("sum: %.0f allocs over the cold calls, %d when they were tree-walked", sum, coldTreeWalkedSum)
	if sum > coldTreeWalkedSum*1.02 {
		t.Errorf("cold calls allocate %.0f in sum, over 2 %% more than tree-walking them (%d)", sum, coldTreeWalkedSum)
	}
}
