package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// fingerprint is what a results file says about where its numbers came from.
type fingerprint struct {
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	GitCommit  string  `json:"git_commit"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Clients    int     `json:"clients"`
	HeapFloor  int     `json:"heap_floor_mb"`
	// OpsPerSlice is [latency-phase ops, throughput-phase ops] per workload.
	OpsPerSlice map[string][2]int `json:"ops_per_slice"`
	// DaemonFlags are the flags http_scatter starts its processes with,
	// besides -listen, -doc and -peer.
	DaemonFlags map[string]string `json:"daemon_flags"`
}

func newFingerprint(seed uint64, seconds float64) fingerprint {
	fp := fingerprint{
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), CPUModel: "unknown",
		GoVersion: runtime.Version(), GitCommit: "unknown",
		Seed: seed, Seconds: seconds, Clients: clients, HeapFloor: len(heapFloor) >> 20,
		OpsPerSlice: map[string][2]int{},
		DaemonFlags: map[string]string{
			"xqd":    "-pprof -strategy pass-by-fragment",
			"xqpeer": "-pprof -name <peer>",
		},
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		for sc := bufio.NewScanner(f); sc.Scan(); {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// Best effort: the driver's checkout is not a git repository.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		fp.GitCommit = strings.TrimSpace(string(out))
	}
	for _, w := range workloads {
		fp.OpsPerSlice[w.Name] = [2]int{w.OpsL, w.OpsT}
	}
	return fp
}

// workloadReport is one workload's numbers in a results file. Spread is
// filled by -aa: per end-to-end metric, the interquartile range of the runs
// as a share of their median.
type workloadReport struct {
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	ErrorRate float64 `json:"error_rate"`
	Slices    int     `json:"slices"`
	// MachineSpeed is the probe's verdict on the machine during the untraced
	// run (1 = the reference box at its fastest); the wall-clock end-to-end
	// metrics are already scaled by it.
	MachineSpeed float64            `json:"machine_speed"`
	EndToEnd     map[string]float64 `json:"end_to_end"`
	PerLayer     map[string]float64 `json:"per_layer,omitempty"`
	Spread       map[string]float64 `json:"spread,omitempty"`
	// Runs holds every run's value per metric, for -aa files.
	Runs map[string][]float64 `json:"runs,omitempty"`
}

type resultsFile struct {
	Fingerprint fingerprint               `json:"fingerprint"`
	Workloads   map[string]workloadReport `json:"workloads"`
}

func writeResults(path string, rf *resultsFile) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rf := &resultsFile{}
	if err := json.Unmarshal(data, rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

func printMetrics(out io.Writer, table []metric, values map[string]float64) {
	for _, m := range table {
		fmt.Fprintf(out, "  %-36s %14.4f %-6s (%s is better)\n", m.Name, values[m.Name], m.Unit, m.Better)
	}
}

// runAll is the one command of the README: every workload, untraced and
// then traced, every metric printed by name with its unit, every reply
// checked against the oracle.
func runAll(out io.Writer, seed uint64, seconds float64, e env, outPath string) int {
	rf := &resultsFile{Fingerprint: newFingerprint(seed, seconds), Workloads: map[string]workloadReport{}}
	code := 0
	for i := range workloads {
		w := &workloads[i]
		fmt.Fprintf(out, "== %s: %s\n", w.Name, w.Why)
		res, err := runUntraced(w, seed, seconds, e)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		printMetrics(out, endToEnd, res.Metrics)
		fmt.Fprintf(out, "  (wall-clock metrics above are at reference machine speed; the machine ran at %.2f of it)\n", res.Speed)
		layers, err := runTraced(w, seed, seconds, e)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		fmt.Fprintf(out, "  -- per layer (traced run; peer.network_modelled_us is MODELLED, everything else measured)\n")
		printMetrics(out, perLayer, layers.Metrics)
		attempted, failed := res.Attempted+layers.Attempted, res.Failed+layers.Failed
		fmt.Fprintf(out, "  error_rate %g (%d failed of %d attempted)\n", float64(failed)/float64(attempted), failed, attempted)
		if failed > 0 {
			code = 1
		}
		rf.Workloads[w.Name] = workloadReport{
			Attempted: attempted, Failed: failed, ErrorRate: float64(failed) / float64(attempted),
			Slices: res.Slices, MachineSpeed: res.Speed, EndToEnd: res.Metrics, PerLayer: layers.Metrics,
		}
	}
	if err := writeResults(outPath, rf); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	return code
}

// selfCheck is the A/A rule: the same binary, n runs per workload on
// consecutive seeds, and for each end-to-end metric the spread the contract
// defines (IQR / median). A spread above the metric's bound fails the
// check; one above a third of the bound is flagged, because the builder's
// target is below that. set-up time is reported but, like in the contract,
// not failed on its spread.
func selfCheck(out io.Writer, n int, seed uint64, seconds float64, e env, outPath string) int {
	rf := &resultsFile{Fingerprint: newFingerprint(seed, seconds), Workloads: map[string]workloadReport{}}
	code := 0
	for i := range workloads {
		w := &workloads[i]
		runs := map[string][]float64{}
		rep := workloadReport{EndToEnd: map[string]float64{}, Spread: map[string]float64{}}
		for r := 0; r < n; r++ {
			res, err := runUntraced(w, seed+uint64(r), seconds, e)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				return 1
			}
			rep.Attempted, rep.Failed, rep.Slices = rep.Attempted+res.Attempted, rep.Failed+res.Failed, res.Slices
			runs["machine_speed"] = append(runs["machine_speed"], res.Speed)
			for _, m := range endToEnd {
				runs[m.Name] = append(runs[m.Name], res.Metrics[m.Name])
			}
		}
		rep.ErrorRate, rep.Runs, rep.MachineSpeed = float64(rep.Failed)/float64(rep.Attempted), runs, median(runs["machine_speed"])
		fmt.Fprintf(out, "== %s: %d runs, %d failed of %d attempted, machine speed %.2f (spread %.1f%%)\n",
			w.Name, n, rep.Failed, rep.Attempted, rep.MachineSpeed, spread(runs["machine_speed"])*100)
		if rep.Failed > 0 {
			code = 1
		}
		for _, m := range endToEnd {
			rep.EndToEnd[m.Name], rep.Spread[m.Name] = median(runs[m.Name]), spread(runs[m.Name])
			verdict := "steady"
			switch s := rep.Spread[m.Name]; {
			case s > m.Bound && m.Name != "setup_s":
				verdict, code = "FAILS its bound", 1
			case s > m.Bound/3:
				verdict = "above a third of its bound"
			}
			fmt.Fprintf(out, "  %-22s median %14.4f %-6s spread %6.2f%% of bound %5.2f%%  %s\n",
				m.Name, rep.EndToEnd[m.Name], m.Unit, rep.Spread[m.Name]*100, m.Bound*100, verdict)
		}
		rf.Workloads[w.Name] = rep
	}
	if err := writeResults(outPath, rf); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	return code
}

// verdict judges one end-to-end metric of one workload between a parent
// (a) and a change (b). worse: b's value is worse than a's by more than the
// bound. better: it improved by more than the bound. unresolved: the A/A
// spread either file recorded for the pair exceeds the bound, so neither
// can be told from noise. within: anything else.
func verdict(m metric, a, b, spreadA, spreadB float64) string {
	if a == 0 {
		return "unresolved"
	}
	change := (b - a) / a // positive = grew
	if m.Better == higher {
		change = -change // positive = got worse
	}
	switch {
	case max(spreadA, spreadB) > m.Bound:
		return "unresolved"
	case change > m.Bound:
		return "worse"
	case change < -m.Bound:
		return "better"
	}
	return "within"
}

// compareFiles prints one row per (workload, metric) and returns the exit
// code: non-zero on any "worse" and on any rise of a workload's error rate.
func compareFiles(out io.Writer, pathA, pathB string) int {
	a, errA := readResults(pathA)
	b, errB := readResults(pathB)
	for _, err := range []error{errA, errB} {
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 2
		}
	}
	return compareResults(out, a, b)
}

func compareResults(out io.Writer, a, b *resultsFile) int {
	code := 0
	names := make([]string, 0, len(a.Workloads))
	for name := range a.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wb.EndToEnd == nil {
			fmt.Fprintf(out, "%-20s missing from the second file\n", name)
			code = 1
			continue
		}
		for _, m := range endToEnd {
			v := verdict(m, wa.EndToEnd[m.Name], wb.EndToEnd[m.Name], wa.Spread[m.Name], wb.Spread[m.Name])
			if v == "worse" {
				code = 1
			}
			fmt.Fprintf(out, "%-20s %-22s %14.4f -> %14.4f %-6s %s\n",
				name, m.Name, wa.EndToEnd[m.Name], wb.EndToEnd[m.Name], m.Unit, v)
		}
		if wb.ErrorRate > wa.ErrorRate {
			fmt.Fprintf(out, "%-20s %-22s %14g -> %14g        worse\n", name, "error_rate", wa.ErrorRate, wb.ErrorRate)
			code = 1
		}
	}
	return code
}

// runSeconds is how long the driver lets one run measure (BENCHMARK.json's
// run_seconds).
const runSeconds = 15

// printSpec writes BENCHMARK.json from the tables above, so the file and
// the program cannot drift apart (a test compares them).
func printSpec(out io.Writer) {
	type row struct {
		Name   string   `json:"name"`
		Why    string   `json:"why,omitempty"`
		Unit   string   `json:"unit,omitempty"`
		Better string   `json:"better,omitempty"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	spec := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []row    `json:"workloads"`
		EndToEnd   []row    `json:"end_to_end"`
		PerLayer   []row    `json:"per_layer"`
	}{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, row{Name: w.Name, Why: w.Why})
	}
	for _, m := range endToEnd {
		bound := m.Bound
		spec.EndToEnd = append(spec.EndToEnd, row{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: &bound})
	}
	for _, m := range perLayer {
		spec.PerLayer = append(spec.PerLayer, row{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	_ = enc.Encode(spec) // the tables hold nothing json cannot encode
}
