package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"distxq"
	"distxq/internal/core"
	"distxq/internal/xdm"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileAndMedian(t *testing.T) {
	v := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	for _, tc := range []struct{ p, want float64 }{{50, 5}, {95, 10}, {90, 9}, {10, 1}, {1, 1}, {100, 10}} {
		if got := percentile(v, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := median(v); got != 5.5 {
		t.Errorf("median of ten = %v, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of three = %v, want 2", got)
	}
	if percentile(nil, 50) != 0 || median(nil) != 0 {
		t.Error("empty input must give 0")
	}
	// The slice-median estimator: one slow slice out of five moves nothing.
	if got := median([]float64{1.0, 1.1, 9.0, 1.2, 0.9}); got != 1.1 {
		t.Errorf("slice median = %v, want 1.1", got)
	}
}

// The expected values are what Python's statistics.quantiles(v, n=4) prints.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{1.2, 1.25, 1.3, 1.1, 1.5, 1.21, 1.22, 1.4, 1.19, 1.28}, 1.1975, 1.325},
	} {
		q1, q3 := quartiles(tc.v)
		if !near(q1, tc.q1) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.v, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "query", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "parse", StartNS: 0, EndNS: 10},
		{ID: 3, Parent: 1, Name: "execute", StartNS: 20, EndNS: 90},
		// Two concurrent lanes overlapping in [40, 60], a third inside the first.
		{ID: 4, Parent: 3, Name: "lane", StartNS: 30, EndNS: 60},
		{ID: 5, Parent: 3, Name: "lane", StartNS: 40, EndNS: 80},
		{ID: 6, Parent: 3, Name: "lane", StartNS: 35, EndNS: 45},
		// A child that outlives its parent is clipped to it.
		{ID: 7, Parent: 4, Name: "sink", StartNS: 55, EndNS: 70},
	}
	want := []int64{
		100 - 10 - 70, // query: parse and execute cover 80
		10,
		70 - 50, // execute: the lanes' union is [30, 80]
		30 - 5,  // lane 4: sink clipped to [55, 60]
		40,
		10,
		15,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", spans[i].ID, spans[i].Name, got[i], want[i])
		}
	}
	// Self times of a tree add up to its root's duration when nothing is clipped.
	tree := spans[:6]
	sum := int64(0)
	for _, s := range selfTimes(tree) {
		sum += s
	}
	if sum < 100 {
		t.Errorf("self times sum to %d, less than the root's 100", sum)
	}
}

func TestVerdict(t *testing.T) {
	lowerM := metric{Name: "query_mean_ms", Better: lower, Bound: 0.10}
	higherM := metric{Name: "throughput_qps", Better: higher, Bound: 0.10}
	for _, tc := range []struct {
		m            metric
		a, b, sa, sb float64
		want         string
	}{
		{lowerM, 1.0, 1.05, 0, 0, "within"},
		{lowerM, 1.0, 1.11, 0, 0, "worse"},
		{lowerM, 1.0, 0.85, 0, 0, "better"},
		{higherM, 100, 95, 0, 0, "within"},
		{higherM, 100, 89, 0, 0, "worse"},
		{higherM, 100, 120, 0, 0, "better"},
		{lowerM, 1.0, 1.5, 0.12, 0, "unresolved"},
		{lowerM, 1.0, 1.5, 0, 0.2, "unresolved"},
		{lowerM, 1.0, 1.5, 0.09, 0.09, "worse"},
		{lowerM, 0, 1, 0, 0, "unresolved"},
	} {
		if got := verdict(tc.m, tc.a, tc.b, tc.sa, tc.sb); got != tc.want {
			t.Errorf("verdict(%s, %v -> %v, spreads %v %v) = %s, want %s", tc.m.Name, tc.a, tc.b, tc.sa, tc.sb, got, tc.want)
		}
	}
}

func TestCompareExitCode(t *testing.T) {
	file := func(p50, errRate float64) *resultsFile {
		e2e := map[string]float64{}
		for _, m := range endToEnd {
			e2e[m.Name] = 1
		}
		e2e["query_mean_ms"] = p50
		return &resultsFile{Workloads: map[string]workloadReport{"w": {EndToEnd: e2e, ErrorRate: errRate}}}
	}
	var out bytes.Buffer
	if code := compareResults(&out, file(1, 0), file(1.05, 0)); code != 0 {
		t.Errorf("a change within its bounds exits %d:\n%s", code, out.String())
	}
	if code := compareResults(&out, file(1, 0), file(1.5, 0)); code == 0 {
		t.Error("a worse p50 must exit non-zero")
	}
	if code := compareResults(&out, file(1, 0), file(1, 0.01)); code == 0 {
		t.Error("a rise in error_rate must exit non-zero")
	}
	if code := compareResults(&out, file(1, 0), &resultsFile{}); code == 0 {
		t.Error("a workload missing from the second file must exit non-zero")
	}
}

// BENCHMARK.json and the program must name the same workloads and metrics.
func TestBenchmarkJSONAgrees(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		Name, Why, Unit, Better string
		Bound                   *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []row
		EndToEnd   []row `json:"end_to_end"`
		PerLayer   []row `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, rows []row, table []metric, bounded bool) {
		if len(rows) != len(table) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(rows), len(table))
			return
		}
		for i, r := range rows {
			m := table[i]
			if r.Name != m.Name || r.Unit != m.Unit || r.Better != m.Better {
				t.Errorf("%s[%d]: BENCHMARK.json says %s %s %s, the program %s %s %s", kind, i, r.Name, r.Unit, r.Better, m.Name, m.Unit, m.Better)
			}
			if !name.MatchString(r.Name) || !unit.MatchString(r.Unit) || seen[r.Name] {
				t.Errorf("%s[%d]: bad or repeated name %q or unit %q", kind, i, r.Name, r.Unit)
			}
			seen[r.Name] = true
			switch {
			case bounded && (r.Bound == nil || *r.Bound != m.Bound || m.Bound <= 0 || m.Bound > 0.25):
				t.Errorf("%s: bound of %s disagrees or is outside (0, 0.25]", kind, r.Name)
			case !bounded && r.Bound != nil:
				t.Errorf("%s: %s must not have a bound", kind, r.Name)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, r := range doc.Workloads {
		w := workloads[i]
		if r.Name != w.Name || r.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the program %q (%q)", i, r.Name, r.Why, w.Name, w.Why)
		}
		if !name.MatchString(r.Name) || seen[r.Name] || len(r.Why) > 200 || strings.Contains(r.Why, "\n") {
			t.Errorf("workload %q: bad name or why", r.Name)
		}
		seen[r.Name] = true
	}
}

// The oracle is plain Go over the generated trees; here it is checked
// against the engine on documents small enough to read, so that a later
// oracle mismatch can be blamed on the program.
func TestOracleMatchesEngine(t *testing.T) {
	for _, tc := range []struct {
		name  string
		strat core.Strategy
		fix   *fixture
	}{
		{"local_eval", core.ByProjection, localEvalFixture(3, 64<<10)},
		{"scatter", core.ByFragment, scatterFixture(3, 32<<10)},
		{"semijoin", core.ByProjection, semijoinFixture(3, 64<<10)},
		{"plan_cold", core.ByProjection, genPlanCold(3)},
	} {
		n, origin, err := federation(tc.fix)
		if err != nil {
			t.Fatal(err)
		}
		persons := personsOf(tc.fix.People)
		if len(persons) < 2 || len(persons) > 60 {
			t.Errorf("%s: %d persons in the small people document", tc.name, len(persons))
		}
		for _, op := range tc.fix.Ops {
			for _, q := range op {
				sess := n.NewSession(origin, tc.strat)
				sess.Shards = tc.fix.Shards
				res, _, err := sess.Query(q.Src)
				if err != nil {
					t.Fatalf("%s: %v\n%s", tc.name, err, q.Src)
				}
				if got := distxq.Serialize(res); got != q.Want {
					t.Fatalf("%s: %v", tc.name, mismatch(q, got))
				}
			}
		}
	}
}

func TestDealtCardinalities(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		f := scatterFixture(seed, 32<<10)
		var persons []*xdm.Node
		for _, d := range f.Docs {
			doc, err := xdm.ParseString(d.XML, d.Path)
			if err != nil {
				t.Fatal(err)
			}
			persons = append(persons, personsOf(doc)...)
		}
		young := 0
		for _, p := range persons {
			if ageOf(p) < youngAge {
				young++
			}
		}
		if want := len(persons) * 22 / 32; young != want {
			t.Errorf("seed %d: %d of %d persons are young, want exactly %d", seed, young, len(persons), want)
		}
		if want := strings.Count(f.Ops[0][0].Want, "<name>"); want != young {
			t.Errorf("seed %d: the oracle returns %d names for %d young persons", seed, want, young)
		}
	}
	a, b := scatterFixture(1, 32<<10), scatterFixture(1, 32<<10)
	if a.Docs[0].XML != b.Docs[0].XML || a.Ops[0][0].Want != b.Ops[0][0].Want {
		t.Error("the same seed must give the same inputs")
	}
	if c := scatterFixture(2, 32<<10); a.Docs[0].XML == c.Docs[0].XML {
		t.Error("another seed must give other inputs")
	}
}

// small returns a copy of the workload with a few ops per slice.
func small(w workload) *workload {
	w.OpsL, w.OpsT = 8, 4
	if w.Name == "plan_cold" {
		w.OpsL = 150 // enough texts to overflow the plan cache
	}
	return &w
}

// Every in-process workload runs end to end with no failed op. No timing is
// asserted, and the daemon workload is left to the real benchmark.
func TestSmokeUntraced(t *testing.T) {
	for _, w := range workloads {
		if w.HTTP {
			continue
		}
		res, err := runUntraced(small(w), 1, 0, env{})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if res.Failed != 0 || res.Attempted == 0 || res.Slices < 3 {
			t.Errorf("%s: %d failed of %d attempted in %d slices", w.Name, res.Failed, res.Attempted, res.Slices)
		}
		for _, m := range endToEnd {
			if v, ok := res.Metrics[m.Name]; !ok || v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v; it must be emitted and never 0", w.Name, m.Name, v)
			}
		}
	}
}

// The traced runs of the in-process workloads, between them, fill every
// per-layer metric except the ones only the daemons have and the counts
// that are expected to stay 0.
func TestSmokeTraced(t *testing.T) {
	filled := map[string]bool{}
	dir := t.TempDir()
	for _, w := range workloads {
		if w.HTTP {
			continue
		}
		res, err := runTraced(small(w), 1, 0, env{ResultsDir: dir})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d failed of %d attempted", w.Name, res.Failed, res.Attempted)
		}
		for name, v := range res.Metrics {
			if v != 0 {
				filled[name] = true
			}
		}
		data, err := os.ReadFile(dir + "/trace-" + w.Name + ".json")
		if err != nil {
			t.Fatal(err)
		}
		var spans []span
		if err := json.Unmarshal(data, &spans); err != nil || len(spans) == 0 {
			t.Fatalf("%s: trace file: %d spans, %v", w.Name, len(spans), err)
		}
		for _, s := range spans {
			if s.Parent != 0 && spans[s.Parent-1].Query != s.Query {
				t.Fatalf("%s: span %d is in query %d, its parent in %d", w.Name, s.ID, s.Query, spans[s.Parent-1].Query)
			}
		}
	}
	exempt := map[string]bool{
		"xqd.http_overhead_us": true, "xqd.cpu_ms_per_query": true, "xqpeer.cpu_ms_per_query": true,
		"xrpc.http_roundtrip_overhead_us": true,
		"xrpc.retries":                    true, "xrpc.hedges": true, "service.shed": true,
		// Too few ops to see a collection in.
		"runtime.gc_per_1k_queries": true, "runtime.gc_pause_ms_per_1k_queries": true,
	}
	for _, m := range perLayer {
		if !filled[m.Name] && !exempt[m.Name] {
			t.Errorf("no in-process workload's traced run fills %s", m.Name)
		}
	}
}
