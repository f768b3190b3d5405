package service

// This file renders the service's unified /metrics surface: one
// Prometheus-style text page joining the four observability feeds that
// otherwise live in separate packages — the service's own admission and
// plan-cache counters, the aggregated evaluation counters of every
// query-local engine, the aggregated transport metrics of every dispatch
// stack, and the shared HealthTracker's per-peer latency and fault state.
// Plain text exposition format (counters and gauges only), so any Prometheus
// scraper or curl can read it without a client library.

import (
	"fmt"
	"io"
	"sort"

	"distxq/internal/xrpc"
)

// metricRow is one sample: name, optional label (peer="a"), kind, help and
// value.
type metricRow struct {
	name  string
	label string
	kind  string // "counter" or "gauge"
	help  string
	value int64
}

// WriteMetrics writes the unified metrics page. Values are a consistent
// snapshot per feed (each source is snapshotted under its own lock), not
// across feeds — a scrape racing a query may see its transport bytes before
// its completion tick, which exposition-format consumers tolerate.
func (s *Service) WriteMetrics(w io.Writer) error {
	st := s.Stats()
	ev := s.evalStats.Snapshot()
	xm := s.xmetrics.Snapshot()
	// The service's mode decides how every scatter lane exchanges.
	streamedWaves := 0
	if s.cfg.Streamed {
		streamedWaves = ev.ScatterWaves
	}
	rows := []metricRow{
		{name: "distxq_service_admitted_total", kind: "counter",
			help: "Queries that got a capacity token.", value: st.Admitted},
		{name: "distxq_service_shed_total", kind: "counter",
			help: "Queries rejected by admission control.", value: st.Shed},
		{name: "distxq_service_completed_total", kind: "counter",
			help: "Admitted queries that finished successfully.", value: st.Completed},
		{name: "distxq_service_failed_total", kind: "counter",
			help: "Admitted queries that failed.", value: st.Failed},
		{name: "distxq_service_deadline_exceeded_total", kind: "counter",
			help: "Failed queries that blew their wall-time budget.", value: st.DeadlineExceeded},
		{name: "distxq_service_plan_cache_hits_total", kind: "counter",
			help: "Plan-cache lookups answered from cache.", value: st.PlanHits},
		{name: "distxq_service_plan_cache_misses_total", kind: "counter",
			help: "Plan-cache lookups that decomposed afresh.", value: st.PlanMisses},
		{name: "distxq_service_queued", kind: "gauge",
			help: "Queries currently waiting for a capacity token.", value: s.queued.Load()},

		{name: "distxq_eval_docs_resolved_total", kind: "counter",
			help: "Documents resolved by originator engines.", value: int64(ev.DocsResolved)},
		{name: "distxq_eval_remote_calls_total", kind: "counter",
			help: "Single remote execute-at calls.", value: int64(ev.RemoteCalls)},
		{name: "distxq_eval_bulk_calls_total", kind: "counter",
			help: "Bulk (loop-lifted) remote calls.", value: int64(ev.BulkCalls)},
		{name: "distxq_eval_scatter_waves_total", kind: "counter",
			help: "Variable-target loops dispatched as concurrent waves.", value: int64(ev.ScatterWaves)},
		{name: "distxq_eval_streamed_waves_total", kind: "counter",
			help: "Scatter waves consumed incrementally.", value: int64(streamedWaves)},
		{name: "distxq_eval_deadline_aborts_total", kind: "counter",
			help: "Evaluations cut short by a spent deadline.", value: int64(ev.DeadlineAborts)},
		{name: "distxq_eval_compilations_total", kind: "counter",
			help: "Plans lowered to closure chains (once each, on their first cache hit).", value: int64(ev.Compilations)},

		{name: "distxq_xrpc_requests_total", kind: "counter",
			help: "XRPC message exchanges sent.", value: xm.Requests},
		{name: "distxq_xrpc_bytes_sent_total", kind: "counter",
			help: "Request bytes put on the wire.", value: xm.BytesSent},
		{name: "distxq_xrpc_bytes_received_total", kind: "counter",
			help: "Response bytes taken off the wire.", value: xm.BytesReceived},
		{name: "distxq_xrpc_serialize_ns_total", kind: "counter",
			help: "Client-side marshal time.", value: xm.SerializeNS},
		{name: "distxq_xrpc_deserialize_ns_total", kind: "counter",
			help: "Client-side shred time.", value: xm.DeserializeNS},
		{name: "distxq_xrpc_remote_exec_ns_total", kind: "counter",
			help: "Server-reported remote evaluation time.", value: xm.RemoteExecNS},
		{name: "distxq_xrpc_server_serde_ns_total", kind: "counter",
			help: "Server-reported (de)serialization time.", value: xm.ServerSerdeNS},
		{name: "distxq_xrpc_roundtrip_wall_ns_total", kind: "counter",
			help: "Wall time spent inside Transport.RoundTrip.", value: xm.RoundTripWall},
		{name: "distxq_xrpc_peak_buffered_items", kind: "gauge",
			help: "High-water mark of server-buffered result items.", value: xm.PeakBufferedItems},
		{name: "distxq_xrpc_waves_total", kind: "counter",
			help: "Dispatch waves recorded.", value: xm.WaveCount},
		{name: "distxq_xrpc_raw_items_total", kind: "counter",
			help: "Returned-only result nodes kept as the bytes they were shipped as.", value: xm.Raw.Items},
	}
	for i, cause := range xrpc.FallbackCauses {
		rows = append(rows, metricRow{name: "distxq_xrpc_raw_fallbacks_total", label: fmt.Sprintf("cause=%q", cause.Error()),
			kind: "counter", help: "Returned-only responses decoded again in full, by cause.", value: xm.Raw.Fallbacks[i]})
	}
	// Per-peer health gauges, one labelled sample per tracked peer, in
	// stable name order so successive scrapes diff cleanly.
	health := s.Health.SnapshotAll()
	peers := make([]string, 0, len(health))
	for name := range health {
		peers = append(peers, name)
	}
	sort.Strings(peers)
	for _, name := range peers {
		h, peer := health[name], fmt.Sprintf("peer=%q", name)
		rows = append(rows,
			metricRow{name: "distxq_peer_ewma_ns", label: peer, kind: "gauge",
				help: "Smoothed exchange latency per peer.", value: h.EWMANS},
			metricRow{name: "distxq_peer_fresh_p90_ns", label: peer, kind: "gauge",
				help: "P90 over fresh samples (adaptive hedge trigger); zero below the sample floor.", value: h.FreshP90NS},
			metricRow{name: "distxq_peer_fresh_samples", label: peer, kind: "gauge",
				help: "Non-stale latency samples in the window.", value: int64(h.FreshSamples)},
			metricRow{name: "distxq_peer_seen_total", label: peer, kind: "counter",
				help: "Successful exchanges observed.", value: int64(h.Seen)},
			metricRow{name: "distxq_peer_faults", label: peer, kind: "gauge",
				help: "Current consecutive-failure streak.", value: int64(h.Faults)},
		)
	}
	return writeRows(w, rows)
}

// writeRows renders rows in exposition format, emitting each metric name's
// HELP/TYPE header once, before its first sample.
func writeRows(w io.Writer, rows []metricRow) error {
	headered := map[string]bool{}
	for _, r := range rows {
		if !headered[r.name] {
			headered[r.name] = true
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", r.name, r.help, r.name, r.kind); err != nil {
				return err
			}
		}
		label := ""
		if r.label != "" {
			label = "{" + r.label + "}"
		}
		if _, err := fmt.Fprintf(w, "%s%s %d\n", r.name, label, r.value); err != nil {
			return err
		}
	}
	return nil
}
