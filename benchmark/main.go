// Command benchmark is the repository's performance benchmark: six
// workloads over the distributed XQuery service, every reply checked
// against a plain-Go oracle, eight end-to-end metrics per workload taken
// with nothing injected (no sleeps, no modelled network time) and, in a
// separate traced run, per-layer metrics obtained by timing calls into each
// layer's exported functions from outside the program.
//
// BENCHMARK.json at the root of the repository names this program
// (benchmark/run.sh builds and starts it), its workloads and its metrics;
// README.md in this directory says what each is for and how to read the
// output. The driver's mode runs one workload and prints one JSON line:
//
//	bash benchmark/run.sh --workload scatter_gather --seed 1 --seconds 15 --trace 0
//
// and the whole report, results file and trace files come from:
//
//	bash benchmark/run.sh -all -seed 1 -out benchmark/results/latest.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
)

// heapFloor stands in for the documents a real peer holds. The benchmark's
// federations are a few hundred KiB, so the process's live heap would be
// ~5 MB and the collector would start a cycle every four queries (each
// allocates about 1 MB): measured here, that more than doubles every
// latency, and it turns the latency distribution of a 1 ms query into a
// plateau whose median slid by 50 % between two sessions on the same box
// while throughput moved by 20 %. Peers in the paper hold 20-320 MB; with a
// heap of that order a cycle starts every ~60 queries. The floor is
// pointer-free, so it is never scanned; it changes when collections run,
// not what they cost. The daemons of http_scatter run as shipped, without
// it: that workload keeps the small-heap regime in view.
var heapFloor = make([]byte, 64<<20)

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload and print one JSON result line (the driver's mode)")
		seed    = flag.Uint64("seed", 1, "seed of the generated documents and every parameter draw")
		seconds = flag.Float64("seconds", 10, "seconds measured per workload run")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics, recorder off; 1: per-layer metrics from the traced run")
		all     = flag.Bool("all", false, "run every workload, untraced then traced, and print every metric")
		aa      = flag.Int("aa", 0, "A/A self-check: run every workload N times on consecutive seeds and fail if a gated metric's spread exceeds its bound")
		compare = flag.Bool("compare", false, "compare two results files given as arguments: a.json (parent) b.json (change)")
		spec    = flag.Bool("spec", false, "print BENCHMARK.json as the program's tables define it")
		out     = flag.String("out", "", "write the results of -all or -aa to this file")
		binDir  = flag.String("bin", "", "directory holding the xqd and xqpeer binaries (default: beside this executable)")
		tmpDir  = flag.String("tmp", filepath.Join(".bench_build", "tmp"), "scratch directory for the daemons' shard files")
		results = flag.String("results", filepath.Join("benchmark", "results"), "directory the traced run writes trace-<workload>.json to")
	)
	flag.Parse()

	if *spec {
		printSpec(os.Stdout)
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two results files"))
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if runtime.NumCPU() < clients {
		fatal(fmt.Errorf("the throughput phase needs %d clients but this machine has %d CPUs", clients, runtime.NumCPU()))
	}
	e := env{BinDir: *binDir, TmpDir: *tmpDir, ResultsDir: *results}
	if e.BinDir == "" {
		exe, err := os.Executable()
		if err != nil {
			fatal(err)
		}
		e.BinDir = filepath.Dir(exe)
	}

	// Daemons and temp dirs are released on every exit path: deferred here
	// for returns and panics on this goroutine, and from the signal handler.
	defer closeLiveFleets()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		closeLiveFleets()
		os.Exit(130)
	}()

	code := 0
	switch {
	case *aa > 0:
		code = selfCheck(os.Stdout, *aa, *seed, *seconds, e, *out)
	case *all:
		code = runAll(os.Stdout, *seed, *seconds, e, *out)
	default:
		code = runOne(*name, *seed, *seconds, *traced != 0, e)
	}
	if code != 0 {
		closeLiveFleets()
		os.Exit(code)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
	closeLiveFleets()
	os.Exit(2)
}

// runOne is the driver's mode: one workload, one JSON object as the last
// line of standard output.
func runOne(name string, seed uint64, seconds float64, traced bool, e env) int {
	w := workloadByName(name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q; use -workload with one of:\n", name)
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "  %-20s %s\n", w.Name, w.Why)
		}
		return 2
	}
	run, table := runUntraced, endToEnd
	if traced {
		run, table = runTraced, perLayer
	}
	res, err := run(w, seed, seconds, e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]value{}}
	for _, m := range table {
		line.Metrics[m.Name] = value{Value: res.Metrics[m.Name], Unit: m.Unit}
	}
	enc, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Println(string(enc))
	return 0
}
