package main

import "distxq/internal/core"

// clients is the closed-loop client count of the throughput phase: both
// cores of the reference box, and never more than the machine has.
const clients = 2

// workload describes one set of inputs. Ops per slice are constants — the
// same on every commit — sized so that one slice takes about a second at
// seed speed and the latency phase holds at least 200 samples (ten beyond
// p95).
type workload struct {
	Name, Why  string
	Strategy   core.Strategy
	Streamed   bool
	HTTP       bool // real xqd + xqpeer processes instead of an in-process service
	OpsL, OpsT int  // ops per slice: latency phase (1 client), throughput phase (all clients)
	Gen        func(seed uint64) *fixture
}

var workloads = []workload{
	{
		Name:     "local_eval",
		Why:      "seven plan-cached queries over one 1 MiB document on the originator: eval does the work, xrpc idles, the plan cache always hits",
		Strategy: core.ByProjection, OpsL: 200, OpsT: 200, Gen: genLocalEval,
	},
	{
		Name:     "plan_cold",
		Why:      "512 distinct query texts through the 128-entry plan cache over a 16 KiB federation: parse, decompose and cache eviction dominate, data is tiny",
		Strategy: core.ByProjection, OpsL: 2048, OpsT: 4096, Gen: genPlanCold,
	},
	{
		Name:     "scatter_gather",
		Why:      "one by-fragment scatter query over four in-process peers sharding 512 KiB: the xrpc codec and allocator dominate, planning is a cache hit",
		Strategy: core.ByFragment, OpsL: 600, OpsT: 600, Gen: genScatter,
	},
	{
		Name:     "scatter_stream",
		Why:      "the same data and query dispatched as chunk streams: the same xrpc layer on its other lane runner, so a gain for gather that costs streaming shows",
		Strategy: core.ByFragment, Streamed: true, OpsL: 600, OpsT: 600, Gen: genScatter,
	},
	{
		Name:     "semijoin_projection",
		Why:      "the paper's section VII semijoin by projection over two peers: Bulk RPC with shipped node parameters, request marshal and projection work, idle in the scatter workloads",
		Strategy: core.ByProjection, OpsL: 200, OpsT: 200, Gen: genSemijoin,
	},
	{
		Name:     "http_scatter",
		Why:      "the scatter query POSTed to a real xqd in front of four xqpeer processes on loopback: adds net/http, result serialization and process boundaries to scatter_gather",
		Strategy: core.ByFragment, HTTP: true, OpsL: 300, OpsT: 300, Gen: genScatter,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metric is one row of BENCHMARK.json. Bound is the share of the parent's
// median an end-to-end metric may worsen by; per-layer metrics have none.
// Moves names the end-to-end metric and workload a per-layer metric is
// expected to move, written down before measuring.
type metric struct {
	Name, Unit, Better string
	Bound              float64
	Moves              string
}

const (
	lower  = "lower"
	higher = "higher"
)

var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "setup_heap_mb", Unit: "MB", Better: lower, Bound: 0.05},
	{Name: "query_mean_ms", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "query_p95_ms", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "throughput_qps", Unit: "1/s", Better: higher, Bound: 0.25},
	{Name: "wire_bytes_per_query", Unit: "B", Better: lower, Bound: 0.01},
	{Name: "allocs_per_query", Unit: "count", Better: lower, Bound: 0.02},
	{Name: "alloc_kb_per_query", Unit: "KB", Better: lower, Bound: 0.05},
}

var perLayer = []metric{
	{Name: "xq.parse_us", Unit: "us", Better: lower, Moves: "query_mean_ms, throughput_qps on plan_cold; a few % on local_eval (hit path); ~0 elsewhere"},
	{Name: "xq.print_us", Unit: "us", Better: lower, Moves: "as xq.parse_us: the plan-cache key is printed on every query"},
	{Name: "xq.normalize_us", Unit: "us", Better: lower, Moves: "query_mean_ms on plan_cold; no other"},
	{Name: "core.decompose_us", Unit: "us", Better: lower, Moves: "query_mean_ms on plan_cold; no other"},
	{Name: "core.shard_scattered", Unit: "count", Better: higher, Moves: "none: scattered shard decisions per plan, a planner-coverage count"},
	{Name: "eval.compile_us", Unit: "us", Better: lower, Moves: "query_mean_ms on plan_cold once compilation is the default; off the default path today"},
	{Name: "eval.exec_treewalk_us", Unit: "us", Better: lower, Moves: "query_mean_ms on local_eval"},
	{Name: "eval.exec_compiled_us", Unit: "us", Better: lower, Moves: "query_mean_ms on local_eval once compilation is the default"},
	{Name: "eval.exec_allocs", Unit: "count", Better: lower, Moves: "allocs_per_query on local_eval"},
	{Name: "eval.remote_fn_us", Unit: "us", Better: lower, Moves: "query_mean_ms on scatter_*, semijoin_projection, http_scatter"},
	{Name: "xdm.parse_mb_s", Unit: "MB/s", Better: higher, Moves: "setup_s on all (http_scatter most: daemons parse files); parse_request/parse_response ride on it"},
	{Name: "xdm.serialize_mb_s", Unit: "MB/s", Better: higher, Moves: "setup_s on http_scatter (shard files); wire marshal rides on it"},
	{Name: "xdm.heap_bytes_per_xml_byte", Unit: "B/B", Better: lower, Moves: "setup_heap_mb on all"},
	{Name: "xdm.result_serialize_us", Unit: "us", Better: lower, Moves: "query_mean_ms on every workload (the reply is serialized), http_scatter most"},
	{Name: "projection.runtime_project_us", Unit: "us", Better: lower, Moves: "query_mean_ms on semijoin_projection; none on by-fragment workloads"},
	{Name: "projection.kept_ratio", Unit: "ratio", Better: lower, Moves: "wire_bytes_per_query on semijoin_projection"},
	{Name: "xrpc.marshal_request_us", Unit: "us", Better: lower, Moves: "query_mean_ms on semijoin_projection (node parameters); ~0 on scatter_*"},
	{Name: "xrpc.parse_request_us", Unit: "us", Better: lower, Moves: "query_mean_ms on semijoin_projection"},
	{Name: "xrpc.marshal_response_us", Unit: "us", Better: lower, Moves: "query_mean_ms, query_p95_ms, allocs_per_query, alloc_kb_per_query on scatter_gather, http_scatter"},
	{Name: "xrpc.parse_response_us", Unit: "us", Better: lower, Moves: "as marshal_response, times lanes_per_query: the originator shreds gathered responses serially"},
	{Name: "xrpc.parse_chunk_us", Unit: "us", Better: lower, Moves: "query_mean_ms on scatter_stream only"},
	{Name: "xrpc.request_bytes", Unit: "B", Better: lower, Moves: "wire_bytes_per_query"},
	{Name: "xrpc.response_bytes", Unit: "B", Better: lower, Moves: "wire_bytes_per_query"},
	{Name: "xrpc.server_handle_us", Unit: "us", Better: lower, Moves: "query_mean_ms on every distributed workload: one lane's server side (shred, evaluate, marshal)"},
	{Name: "xrpc.lanes_per_query", Unit: "count", Better: lower, Moves: "none: the multiplier for the per-message codec numbers"},
	{Name: "xrpc.lane_max_us", Unit: "us", Better: lower, Moves: "bounds query_mean_ms on scatter_*: the slowest part sets the result"},
	{Name: "xrpc.lane_sum_us", Unit: "us", Better: lower, Moves: "throughput_qps on scatter_*: lane_sum / lane_max is the parallel efficiency"},
	{Name: "xrpc.stream_frames_per_query", Unit: "count", Better: lower, Moves: "scatter_stream only"},
	{Name: "xrpc.stream_first_frame_us", Unit: "us", Better: lower, Moves: "scatter_stream only: time to the first usable increment"},
	{Name: "xrpc.retries", Unit: "count", Better: lower, Moves: "none: expected 0"},
	{Name: "xrpc.hedges", Unit: "count", Better: lower, Moves: "none: expected 0"},
	{Name: "xrpc.http_roundtrip_overhead_us", Unit: "us", Better: lower, Moves: "query_mean_ms on http_scatter only"},
	{Name: "peer.execute_plan_us", Unit: "us", Better: lower, Moves: "query_mean_ms on every workload: everything below the plan cache"},
	{Name: "peer.gather_self_us", Unit: "us", Better: lower, Moves: "query_mean_ms on scatter_*: the originator's own work (marshal, shred, gather)"},
	{Name: "peer.wire_bytes.data_shipping", Unit: "B", Better: lower, Moves: "none: the paper's Fig. 7, must not change unless a change says so"},
	{Name: "peer.wire_bytes.by_value", Unit: "B", Better: lower, Moves: "none: Fig. 7"},
	{Name: "peer.wire_bytes.by_fragment", Unit: "B", Better: lower, Moves: "none: Fig. 7"},
	{Name: "peer.wire_bytes.by_projection", Unit: "B", Better: lower, Moves: "wire_bytes_per_query on semijoin_projection"},
	{Name: "peer.report_serde_us", Unit: "us", Better: lower, Moves: "none: the program's own count, cross-checks the replayed codec numbers"},
	{Name: "peer.report_remote_exec_us", Unit: "us", Better: lower, Moves: "none: cross-checks eval.remote_fn_us"},
	{Name: "peer.network_modelled_us", Unit: "us", Better: lower, Moves: "none: MODELLED by netsim, not measured; in no wall-clock number"},
	{Name: "service.query_us", Unit: "us", Better: lower, Moves: "query_mean_ms on every in-process workload"},
	{Name: "service.overhead_us", Unit: "us", Better: lower, Moves: "query_mean_ms on local_eval and scatter_* (parse + cache key on the hit path)"},
	{Name: "service.plan_hit_ratio", Unit: "ratio", Better: higher, Moves: "none: ~1 everywhere, ~0 on plan_cold"},
	{Name: "service.shed", Unit: "count", Better: lower, Moves: "none: expected 0"},
	{Name: "trace.overhead_pct", Unit: "%", Better: lower, Moves: "none: cost of service.Config.Trace on real time"},
	{Name: "xqd.http_overhead_us", Unit: "us", Better: lower, Moves: "query_mean_ms on http_scatter: its p50 minus the in-process p50 on the same data"},
	{Name: "xqd.cpu_ms_per_query", Unit: "ms", Better: lower, Moves: "throughput_qps on http_scatter"},
	{Name: "xqpeer.cpu_ms_per_query", Unit: "ms", Better: lower, Moves: "throughput_qps on http_scatter"},
	{Name: "runtime.cpu_ms_per_query", Unit: "ms", Better: lower, Moves: "throughput_qps on every in-process workload: about clients / cpu_ms"},
	{Name: "runtime.gc_per_1k_queries", Unit: "count", Better: lower, Moves: "query_p95_ms, throughput_qps on every allocation-heavy workload"},
	{Name: "runtime.gc_pause_ms_per_1k_queries", Unit: "ms", Better: lower, Moves: "query_p95_ms"},
	{Name: "bench.machine_speed", Unit: "ratio", Better: higher, Moves: "none: the probe's reference time over its measured time; the end-to-end wall-clock metrics are scaled by it, nothing per layer is"},
	{Name: "bench.query_p50_ms", Unit: "ms", Better: lower, Moves: "none: the unscaled median latency; slides along a flat distribution, so it is not gated"},
	{Name: "bench.query_p99_ms", Unit: "ms", Better: lower, Moves: "none: diagnostic tail, too noisy to gate"},
	{Name: "bench.coverage_pct", Unit: "%", Better: higher, Moves: "none: wall time the staged calls account for over the untraced p50, 85-115 expected"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: lower, Moves: "none: cost of the benchmark's own span recorder"},
}
