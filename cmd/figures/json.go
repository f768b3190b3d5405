package main

// Machine-readable benchmark output (-json): every figure that produces a
// timing row also feeds a flat point list, written as one JSON document so
// CI can archive a trajectory of BENCH_scatter.json files across commits.

import (
	"encoding/json"
	"fmt"
	"os"

	"distxq/internal/bench"
)

// benchPoint is one metric point; zero-valued fields are omitted so a
// scatter point carries ns/op while a load point carries QPS and quantiles.
type benchPoint struct {
	Fig         string  `json:"fig"`
	Label       string  `json:"label"`
	NSPerOp     int64   `json:"ns_per_op,omitempty"`
	P50NS       int64   `json:"p50_ns,omitempty"`
	P99NS       int64   `json:"p99_ns,omitempty"`
	RejectP99NS int64   `json:"reject_p99_ns,omitempty"`
	QPS         float64 `json:"qps,omitempty"`
	OfferedQPS  float64 `json:"offered_qps,omitempty"`
	ShedRate    float64 `json:"shed_rate,omitempty"`
	Hedges      int64   `json:"hedges,omitempty"`
}

type benchReport struct {
	Schema string       `json:"schema"`
	Points []benchPoint `json:"points"`
}

// jsonSink accumulates points while figures run and writes them at exit.
type jsonSink struct {
	report benchReport
}

func newJSONSink() *jsonSink {
	return &jsonSink{report: benchReport{Schema: "distxq/bench/v1"}}
}

func (s *jsonSink) addScatter(size int64, rows []bench.ScatterRow) {
	for _, r := range rows {
		s.report.Points = append(s.report.Points, benchPoint{
			Fig:     "scatter",
			Label:   fmt.Sprintf("%dB/%dpeers", size, r.Peers),
			NSPerOp: r.MaxPeerNS,
		})
	}
}

func (s *jsonSink) addIncremental(rows []bench.IncRow) {
	for _, r := range rows {
		s.report.Points = append(s.report.Points,
			benchPoint{
				Fig:     "incremental",
				Label:   fmt.Sprintf("%dB/eager", r.DocBytes),
				NSPerOp: r.EagerFirstNS,
			},
			benchPoint{
				Fig:     "incremental",
				Label:   fmt.Sprintf("%dB/incremental", r.DocBytes),
				NSPerOp: r.IncFirstNS,
			})
	}
}

func (s *jsonSink) addHedge(rows []bench.HedgeRow) {
	for _, r := range rows {
		s.report.Points = append(s.report.Points, benchPoint{
			Fig:    "hedge",
			Label:  fmt.Sprintf("after=%dns", r.HedgeAfterNS),
			P50NS:  r.HedgedP50NS,
			P99NS:  r.HedgedP99NS,
			Hedges: int64(r.Hedges),
		})
	}
}

func (s *jsonSink) addTopology(rows []bench.TopologyRow) {
	for _, r := range rows {
		s.report.Points = append(s.report.Points,
			benchPoint{
				Fig:   "topology",
				Label: r.Churn.Name + "/blind",
				P50NS: r.BlindP50NS,
				P99NS: r.BlindP99NS,
			},
			benchPoint{
				Fig:   "topology",
				Label: r.Churn.Name + "/aware",
				P50NS: r.AwareP50NS,
				P99NS: r.AwareP99NS,
			})
	}
}

func (s *jsonSink) addLoad(rows []bench.LoadRow) {
	for _, r := range rows {
		s.report.Points = append(s.report.Points, benchPoint{
			Fig:         "load",
			Label:       fmt.Sprintf("offered=%.1fx", r.Multiplier),
			P50NS:       r.P50NS,
			P99NS:       r.P99NS,
			RejectP99NS: r.RejectP99NS,
			QPS:         r.GoodputQPS,
			OfferedQPS:  r.OfferedQPS,
			ShedRate:    r.ShedRate,
			Hedges:      r.Hedges,
		})
	}
}

// readReport parses a benchReport file previously written by -json.
func readReport(path string) (*benchReport, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep benchReport
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Schema != "distxq/bench/v1" {
		return nil, fmt.Errorf("%s: unknown schema %q", path, rep.Schema)
	}
	return &rep, nil
}

// regression is one load point failing one criterion against the baseline.
type regression struct {
	point, criterion string // e.g. "offered=1.0x", "admitted P99"
	detail           string // the measured values, for the report
}

func (r regression) String() string {
	return fmt.Sprintf("load %s: %s %s", r.point, r.criterion, r.detail)
}

// checkRegression compares the current run's load points against a baseline
// report: a point regresses when its goodput falls, or its admitted P99
// rises, by more than tolerance (fractional, e.g. 0.25). Baseline points
// missing from the current run count as regressions; extra current points
// are ignored (new sweeps extend the baseline on the next refresh). Empty
// on pass.
func checkRegression(baseline, current *benchReport, tolerance float64) []regression {
	cur := map[string]benchPoint{}
	for _, p := range current.Points {
		if p.Fig == "load" {
			cur[p.Label] = p
		}
	}
	var regressions []regression
	for _, b := range baseline.Points {
		if b.Fig != "load" {
			continue
		}
		c, ok := cur[b.Label]
		if !ok {
			regressions = append(regressions, regression{b.Label, "point", "missing from current run"})
			continue
		}
		if b.QPS > 0 && c.QPS < b.QPS*(1-tolerance) {
			regressions = append(regressions, regression{b.Label, "goodput",
				fmt.Sprintf("%.1f QPS is more than %.0f%% below baseline %.1f", c.QPS, tolerance*100, b.QPS)})
		}
		if b.P99NS > 0 && c.P99NS > int64(float64(b.P99NS)*(1+tolerance)) {
			regressions = append(regressions, regression{b.Label, "admitted P99",
				fmt.Sprintf("%dns is more than %.0f%% above baseline %dns", c.P99NS, tolerance*100, b.P99NS)})
		}
	}
	return regressions
}

// recurring keeps the regressions of prev that next shows again — the same
// point failing the same criterion, whatever the measured values.
func recurring(prev, next []regression) []regression {
	var out []regression
	for _, p := range prev {
		for _, n := range next {
			if n.point == p.point && n.criterion == p.criterion {
				out = append(out, n)
				break
			}
		}
	}
	return out
}

func (s *jsonSink) marshal() ([]byte, error) {
	b, err := json.MarshalIndent(s.report, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

func (s *jsonSink) write(path string) error {
	b, err := s.marshal()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
