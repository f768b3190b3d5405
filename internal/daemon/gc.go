package daemon

// The collector regime. A daemon's live heap says nothing about its garbage
// rate: xqd in front of remote peers holds a few MB live while it shreds
// every gathered response, so under the default GOGC its heap goal sits at
// the runtime's 4 MiB minimum and it collects every few queries. The regime
// gives each cycle's goal a fixed headroom on top of the live heap — goal
// max(2·live, live + headroom) — re-derived after every cycle from what the
// process observes, so a peer holding large documents keeps GOGC = 100 and a
// front end stops thrashing. See DESIGN.md "Daemon runtime".

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"
)

const (
	// headroom is the garbage a small heap may accumulate between cycles.
	headroom = 32 << 20
	// minHeapAt100 is the runtime's minimum heap goal at GOGC = 100; the
	// minimum scales with GOGC.
	minHeapAt100 = 4 << 20
)

// gcPercent returns the GOGC that gives the next cycle a heap goal of
// max(2·live, live + headroom). The proportional solution 100·headroom/live
// alone is not enough: the runtime's minimum goal is minHeapAt100·GOGC/100,
// so on a small heap that GOGC would lift the goal far past live + headroom.
// The percentage is therefore the smaller of the proportional solution and
// the minimum-heap solution 100·(live + headroom)/minHeapAt100, floored at
// the default 100.
func gcPercent(live uint64) int {
	live = max(live, 1)
	proportional := 100 * headroom / live
	minHeap := 100 * (live + headroom) / minHeapAt100
	return int(max(min(proportional, minHeap), 100))
}

var regimeOnce sync.Once

// StartGCRegime installs the collector regime and reports whether it did: an
// operator's GOGC or GOMEMLIMIT in the environment leaves the runtime's own
// settings in force. It never forces a collection — until the first natural
// cycle measures the live heap, the default GOGC is the right one. Only a
// main may call it; calling it again is a no-op.
func StartGCRegime() bool {
	if os.Getenv("GOGC") != "" || os.Getenv("GOMEMLIMIT") != "" {
		return false
	}
	regimeOnce.Do(armSentinel)
	return true
}

// sentinel is allocated unreferenced, so it dies in the next cycle, and its
// finalizer re-tunes and arms a fresh one for the cycle after. It
// holds a pointer so the allocator never batches it with other tiny objects,
// which would delay its death past the cycle that should report it.
type sentinel struct{ _ *sentinel }

func armSentinel() {
	runtime.SetFinalizer(&sentinel{}, func(*sentinel) {
		retune()
		armSentinel()
	})
}

// retune sets GOGC from the live heap the cycle that just ended marked.
func retune() {
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(live)
	if live[0].Value.Kind() == metrics.KindUint64 {
		debug.SetGCPercent(gcPercent(live[0].Value.Uint64()))
	}
}

// runtimeMetrics are the gauges that make the regime observable, in the
// order WriteRuntimeMetrics prints them.
var runtimeMetrics = []struct{ sample, name, kind, help string }{
	{"/gc/cycles/total:gc-cycles", "distxq_runtime_gc_cycles_total", "counter",
		"Completed garbage-collection cycles."},
	{"/gc/heap/live:bytes", "distxq_runtime_heap_live_bytes", "gauge",
		"Heap bytes the last cycle marked live."},
	{"/gc/heap/goal:bytes", "distxq_runtime_heap_goal_bytes", "gauge",
		"Heap size at which the next cycle is due."},
	{"/gc/gogc:percent", "distxq_runtime_gc_percent", "gauge",
		"GOGC in force (the collector regime's, or the operator's)."},
}

// WriteRuntimeMetrics writes the collector's four runtime metrics in the
// Prometheus text format the daemons' /metrics pages use.
func WriteRuntimeMetrics(w io.Writer) error {
	samples := make([]metrics.Sample, len(runtimeMetrics))
	for i, m := range runtimeMetrics {
		samples[i].Name = m.sample
	}
	metrics.Read(samples)
	for i, m := range runtimeMetrics {
		var v uint64
		if samples[i].Value.Kind() == metrics.KindUint64 {
			v = samples[i].Value.Uint64()
		}
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", m.name, m.help, m.name, m.kind, m.name, v); err != nil {
			return err
		}
	}
	return nil
}
