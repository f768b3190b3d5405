// Benchmarks regenerating every figure of the paper's evaluation (§VII).
// Run with: go test -bench=. -benchmem
//
// Each benchmark reports the figure's metric via b.ReportMetric so the
// harness output reads like the paper's plots:
//
//	Figure 7  → bytes/query per strategy (bandwidth usage)
//	Figure 8  → per-phase ms at the largest size (time breakdown)
//	Figure 9  → total simulated ms per strategy (execution time)
//	Figure 10 → projected-document bytes (projection precision)
//	Figure 11 → projection ms (projection execution time)
//
// cmd/figures prints the same data as tables; EXPERIMENTS.md records the
// paper-vs-measured comparison.
package distxq_test

import (
	"fmt"
	"testing"
	"time"

	"distxq/internal/bench"
	"distxq/internal/core"
	"distxq/internal/eval"
	"distxq/internal/netsim"
	"distxq/internal/projection"
	"distxq/internal/xdm"
	"distxq/internal/xmark"
	"distxq/internal/xq"
)

const benchDocBytes = 1 << 19 // 512 KiB combined; scale via cmd/figures -size

// BenchmarkFig7Bandwidth measures bytes moved per query for each strategy.
func BenchmarkFig7Bandwidth(b *testing.B) {
	for _, strat := range bench.Strategies {
		b.Run(strat.String(), func(b *testing.B) {
			f := bench.NewFixture(benchDocBytes)
			var bytes int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := f.Run(strat)
				if err != nil {
					b.Fatal(err)
				}
				bytes = rep.TotalBytes()
			}
			b.ReportMetric(float64(bytes), "transfer-bytes/query")
		})
	}
}

// BenchmarkFig8Breakdown measures the per-phase time split per strategy.
func BenchmarkFig8Breakdown(b *testing.B) {
	for _, strat := range bench.Strategies {
		b.Run(strat.String(), func(b *testing.B) {
			f := bench.NewFixture(benchDocBytes)
			var shred, local, serde, remote, network int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := f.Run(strat)
				if err != nil {
					b.Fatal(err)
				}
				shred, local, serde = rep.ShredNS, rep.LocalExecNS, rep.SerdeNS
				remote, network = rep.RemoteExecNS, rep.NetworkNS
			}
			b.ReportMetric(float64(shred)/1e6, "shred-ms")
			b.ReportMetric(float64(local)/1e6, "localexec-ms")
			b.ReportMetric(float64(serde)/1e6, "serde-ms")
			b.ReportMetric(float64(remote)/1e6, "remoteexec-ms")
			b.ReportMetric(float64(network)/1e6, "network-ms")
		})
	}
}

// BenchmarkFig9ExecTime measures total simulated execution time per strategy
// across two document sizes (the scaling series of Figure 9).
func BenchmarkFig9ExecTime(b *testing.B) {
	for _, size := range []int64{benchDocBytes / 2, benchDocBytes} {
		for _, strat := range bench.Strategies {
			name := strat.String() + "/" + byteLabel(size)
			b.Run(name, func(b *testing.B) {
				f := bench.NewFixture(size)
				var total int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rep, err := f.Run(strat)
					if err != nil {
						b.Fatal(err)
					}
					total = rep.TotalNS()
				}
				b.ReportMetric(float64(total)/1e6, "simulated-ms/query")
			})
		}
	}
}

// BenchmarkFig10Precision measures projected-document sizes for the
// compile-time and runtime projection techniques.
func BenchmarkFig10Precision(b *testing.B) {
	b.Run("sweep", func(b *testing.B) {
		var rows []bench.ProjRow
		for i := 0; i < b.N; i++ {
			var err error
			rows, err = bench.Fig10and11Projection([]int64{benchDocBytes / 2})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(rows[0].CompileTimeSize), "compiletime-bytes")
		b.ReportMetric(float64(rows[0].RuntimeSize), "runtime-bytes")
		b.ReportMetric(float64(rows[0].CompileTimeSize)/float64(rows[0].RuntimeSize), "precision-ratio")
	})
}

// BenchmarkFig11ProjTime measures the two projection techniques' runtime.
func BenchmarkFig11ProjTime(b *testing.B) {
	cfg := xmark.ForSize(benchDocBytes)
	doc := xmark.PeopleDocument(cfg, "xmk.xml")
	personPath, _ := projection.ParsePath(
		`child::site/child::people/child::person/descendant-or-self::node()`)
	b.Run("compile-time", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := projection.CompileTimeProject(nil,
				projection.PathSet{personPath}, doc, projection.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("runtime", func(b *testing.B) {
		var selected []*xdm.Node
		doc.Root.WalkDescendants(func(n *xdm.Node) bool {
			if n.Kind == xdm.ElementNode && n.Name == "age" && n.StringValue() > "45" {
				selected = append(selected, n.Parent.Parent)
			}
			return true
		})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := projection.RuntimeProject(selected, nil, nil, doc,
				projection.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTable1Semantics exercises the Q1 problem cases of Table I under
// each passing semantics (the paper's motivating example as a micro-bench).
func BenchmarkTable1Semantics(b *testing.B) {
	src := `
	declare function makenodes() as node() { <a><b><c/></b></a>/b };
	let $bc := execute at {"peer"} { makenodes() }
	return count($bc/parent::a)`
	for _, strat := range []core.Strategy{core.ByValue, core.ByFragment, core.ByProjection} {
		b.Run(strat.String(), func(b *testing.B) {
			f := newQ1Fixture()
			for i := 0; i < b.N; i++ {
				if _, _, err := f.Net.NewSession(f.Local, strat).Query(src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func byteLabel(n int64) string {
	if n >= 1<<20 {
		return fmt.Sprintf("%dMiB", n>>20)
	}
	return fmt.Sprintf("%dKiB", n>>10)
}

func newQ1Fixture() *bench.Fixture {
	f := bench.NewFixture(1 << 14)
	f.Net.AddPeer("peer")
	return f
}

// BenchmarkAblationCodeMotion compares the Qf2 message sizes with and
// without distributed code motion (the §IV optimization): moving the
// $t/child::id extraction to the caller ships strings instead of nodes.
func BenchmarkAblationCodeMotion(b *testing.B) {
	for _, withMotion := range []bool{false, true} {
		name := "without-motion"
		if withMotion {
			name = "with-motion"
		}
		b.Run(name, func(b *testing.B) {
			f := bench.NewFixture(benchDocBytes / 4)
			var bytes int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q, err := xq.ParseQuery(f.Query)
				if err != nil {
					b.Fatal(err)
				}
				plan, err := core.Decompose(q, core.ByFragment,
					core.Options{CodeMotion: withMotion})
				if err != nil {
					b.Fatal(err)
				}
				sess := f.Net.NewSession(f.Local, core.ByFragment)
				_, rep, err := sess.ExecutePlan(plan)
				if err != nil {
					b.Fatal(err)
				}
				bytes = rep.MsgBytes
			}
			b.ReportMetric(float64(bytes), "msg-bytes/query")
		})
	}
}

// BenchmarkAblationBulkRPC compares a remote-call-in-loop with Bulk RPC (one
// message) against the same workload issued as individual calls.
func BenchmarkAblationBulkRPC(b *testing.B) {
	bulk := `
	declare function f($n as xs:string) as item()*
	{ count(doc("xrpc://peer1/xmk.xml")//person[attribute::id = $n]) };
	for $i in ("person0","person1","person2","person3","person4","person5","person6","person7")
	return execute at {"peer1"} { f($i) }`
	single := `
	declare function f($n as xs:string) as item()*
	{ count(doc("xrpc://peer1/xmk.xml")//person[attribute::id = $n]) };
	(execute at {"peer1"} { f("person0") }, execute at {"peer1"} { f("person1") },
	 execute at {"peer1"} { f("person2") }, execute at {"peer1"} { f("person3") },
	 execute at {"peer1"} { f("person4") }, execute at {"peer1"} { f("person5") },
	 execute at {"peer1"} { f("person6") }, execute at {"peer1"} { f("person7") })`
	for _, tc := range []struct{ name, src string }{{"bulk", bulk}, {"single-calls", single}} {
		b.Run(tc.name, func(b *testing.B) {
			f := bench.NewFixture(1 << 16)
			var requests int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sess := f.Net.NewSession(f.Local, core.ByFragment)
				_, rep, err := sess.Query(tc.src)
				if err != nil {
					b.Fatal(err)
				}
				requests = rep.Requests
			}
			b.ReportMetric(float64(requests), "messages/query")
		})
	}
}

// BenchmarkEngineLocal measures raw local evaluation throughput (substrate
// speed, not a paper figure): the query is parsed and planned once, and each
// iteration executes it — "cold" on a lowering of its own per run, as a
// plan-cache miss does, and "compiled" on the Program the first run
// attached, as a plan-cache hit does.
func BenchmarkEngineLocal(b *testing.B) {
	cfg := xmark.DefaultConfig()
	cfg.Persons, cfg.Items, cfg.Auctions = 100, 50, 0
	doc := xmark.PeopleDocument(cfg, "xmk.xml")
	const src = `count(doc("local-people")//person[descendant::age > 30])`
	for _, mode := range []struct {
		name    string
		compile bool
	}{{"cold", false}, {"compiled", true}} {
		b.Run(mode.name, func(b *testing.B) {
			eng := eval.NewEngine(eval.ResolverFunc(func(uri string) (*xdm.Document, error) {
				if uri == "local-people" {
					return doc, nil
				}
				return nil, fmt.Errorf("no such document %q", uri)
			}))
			eng.Options.Compile = mode.compile
			q, err := xq.ParseQuery(src)
			if err != nil {
				b.Fatal(err)
			}
			// Warm once: normalization (and, compiled, the attached lowering)
			// happens here and amortizes across every later execution.
			if _, err := eng.Query(q); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Query(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationWAN reruns the Figure 9 comparison on the WAN link model
// (20 ms latency, 50 Mb/s), the setting where the paper notes "queries over
// remote XML documents [would] profit even more from reduced data size":
// the fragment/projection gap over data-shipping widens dramatically.
func BenchmarkAblationWAN(b *testing.B) {
	for _, model := range []struct {
		name string
		m    netsim.Model
	}{
		{"gigabit-lan", netsim.GigabitLAN()},
		{"wan", netsim.Model{Latency: 20 * time.Millisecond, BandwidthBytesPerSec: 6.25e6}},
	} {
		for _, strat := range bench.Strategies {
			b.Run(model.name+"/"+strat.String(), func(b *testing.B) {
				// Larger documents: the WAN effect is about bandwidth-bound
				// transfers, not per-message latency.
				f := bench.NewFixture(benchDocBytes * 4)
				f.Net.Model = model.m
				var total int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rep, err := f.Run(strat)
					if err != nil {
						b.Fatal(err)
					}
					total = rep.TotalNS()
				}
				b.ReportMetric(float64(total)/1e6, "simulated-ms/query")
			})
		}
	}
}

// BenchmarkScatterGather measures the sharded-people scatter query over 4
// peers dispatched as one concurrent wave; the reported metric is the
// simulated network speedup of overlapped dispatch over the serial sum of
// the same exchanges.
func BenchmarkScatterGather(b *testing.B) {
	b.Run("concurrent", func(b *testing.B) {
		f := bench.NewScatterFixture(benchDocBytes, 4)
		var netNS, serialNS int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, rep, err := f.Run(core.ByFragment)
			if err != nil {
				b.Fatal(err)
			}
			netNS, serialNS = rep.NetworkNS, rep.SerialNetworkNS
		}
		b.ReportMetric(float64(netNS)/1e6, "net-ms/query")
		if netNS > 0 {
			b.ReportMetric(float64(serialNS)/float64(netNS), "net-speedup")
		}
	})
}
