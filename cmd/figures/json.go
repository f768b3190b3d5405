package main

// Machine-readable benchmark output (-json): every figure that produces a
// timing row also feeds a flat point list, written as one JSON document.

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
