// Command figures regenerates the evaluation figures of the paper (§VII):
// Figure 7 (bandwidth usage), Figure 8 (query time breakdown), Figure 9
// (execution time), Figures 10/11 (projection precision and time).
//
// Usage:
//
//	figures [-fig all|7|8|9|10|scatter|shard|stream|incremental|hedge|load|trace|topology] [-size bytes] [-steps n] [-json file]
//
// -size sets the largest combined document size of the sweep (default 2 MiB;
// the paper used 320 MB on a cluster — larger sizes just take longer).
// -json additionally writes the timing figures' points as one JSON document
// (see cmd/figures/json.go).
package main

import (
	"flag"
	"fmt"
	"os"

	"distxq/internal/bench"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: all, 7, 8, 9, 10 (10 includes 11), scatter, shard, stream, incremental, hedge, load, trace, topology")
	size := flag.Int64("size", 1<<21, "largest combined document size in bytes")
	steps := flag.Int("steps", 5, "number of sizes in the sweep (halving per step)")
	maxPeers := flag.Int("peers", 8, "largest peer count of the scatter sweep (doubling from 1)")
	jsonPath := flag.String("json", "", "also write machine-readable points to this file")
	traceOut := flag.String("trace-out", "",
		"with -fig trace: also write the live run's span tree as Chrome trace-event JSON (open in chrome://tracing or Perfetto)")
	flag.Parse()
	sink := newJSONSink()

	var sizes []int64
	for s, i := *size, 0; i < *steps && s >= 1<<14; i, s = i+1, s/2 {
		sizes = append([]int64{s}, sizes...)
	}

	run := func(name string, f func() error) {
		if *fig != "all" && *fig != name {
			return
		}
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "figures: %v\n", err)
			os.Exit(1)
		}
		fmt.Println()
	}
	run("7", func() error {
		sweep, err := bench.Fig7Bandwidth(sizes)
		if err != nil {
			return err
		}
		bench.PrintFig7(os.Stdout, sweep)
		return nil
	})
	run("8", func() error {
		rows, err := bench.Fig8Breakdown(*size)
		if err != nil {
			return err
		}
		bench.PrintFig8(os.Stdout, rows)
		return nil
	})
	run("9", func() error {
		sweep, err := bench.Fig9ExecTime(sizes)
		if err != nil {
			return err
		}
		bench.PrintFig9(os.Stdout, sweep)
		return nil
	})
	run("10", func() error {
		rows, err := bench.Fig10and11Projection(sizes)
		if err != nil {
			return err
		}
		bench.PrintFig10and11(os.Stdout, rows)
		return nil
	})
	run("scatter", func() error {
		var counts []int
		for p := 1; p <= *maxPeers; p *= 2 {
			counts = append(counts, p)
		}
		rows, err := bench.FigScatter(*size, counts)
		if err != nil {
			return err
		}
		bench.PrintFigScatter(os.Stdout, *size, rows)
		sink.addScatter(*size, rows)
		return nil
	})
	run("stream", func() error {
		var counts []int
		for p := 1; p <= *maxPeers; p *= 2 {
			counts = append(counts, p)
		}
		rows, err := bench.FigStream(*size, counts)
		if err != nil {
			return err
		}
		bench.PrintFigStream(os.Stdout, *size, rows)
		return nil
	})
	run("incremental", func() error {
		rows, err := bench.FigIncremental(sizes)
		if err != nil {
			return err
		}
		bench.PrintFigIncremental(os.Stdout, rows)
		sink.addIncremental(rows)
		return nil
	})
	run("shard", func() error {
		var counts []int
		for p := 1; p <= *maxPeers; p *= 2 {
			counts = append(counts, p)
		}
		rows, err := bench.FigShard(*size, counts)
		if err != nil {
			return err
		}
		bench.PrintFigShard(os.Stdout, *size, rows)
		return nil
	})
	run("hedge", func() error {
		cfg := bench.DefaultHedgeConfig()
		cfg.Lanes = *maxPeers
		rows := bench.FigHedge(cfg, bench.DefaultHedgeAfters)
		bench.PrintFigHedge(os.Stdout, cfg, rows)
		sink.addHedge(rows)
		fmt.Println()
		fo, err := bench.FigFailover(*size, *maxPeers)
		if err != nil {
			return err
		}
		bench.PrintFigFailover(os.Stdout, *size, fo)
		return nil
	})
	run("trace", func() error {
		// The simulated waterfall is deterministic (netsim time only); the
		// live run below it validates the real assembled tree.
		bench.PrintFigTrace(os.Stdout, bench.SimTraceFig())
		fmt.Println()
		row, err := bench.FigTrace(*size, 4)
		if err != nil {
			return err
		}
		bench.PrintFigTraceRow(os.Stdout, *size, row)
		if *traceOut != "" {
			if err := os.WriteFile(*traceOut, row.ChromeJSON, 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s (%d spans) — open in chrome://tracing or Perfetto\n",
				*traceOut, row.Spans)
		}
		return nil
	})
	run("topology", func() error {
		cfg := bench.DefaultTopologyConfig()
		cfg.Lanes = *maxPeers
		rows := bench.FigTopology(cfg, bench.DefaultTopologyChurn)
		bench.PrintFigTopology(os.Stdout, cfg, rows)
		sink.addTopology(rows)
		return nil
	})
	run("load", func() error {
		cfg := bench.DefaultLoadConfig()
		rows, err := bench.FigLoad(cfg)
		if err != nil {
			return err
		}
		bench.PrintFigLoad(os.Stdout, cfg, rows)
		sink.addLoad(rows)
		return nil
	})
	if *jsonPath != "" {
		if err := sink.write(*jsonPath); err != nil {
			fmt.Fprintf(os.Stderr, "figures: %v\n", err)
			os.Exit(1)
		}
	}
}
