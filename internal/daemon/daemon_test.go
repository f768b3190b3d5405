package daemon

import (
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// TestWriteRuntimeMetrics: four exposition-format samples, each with its
// HELP/TYPE header, carrying the runtime's own readings.
func TestWriteRuntimeMetrics(t *testing.T) {
	var sb strings.Builder
	if err := WriteRuntimeMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	samples := map[string]uint64{}
	for _, line := range strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "# ") {
			continue
		}
		name, v, ok := strings.Cut(line, " ")
		n, err := strconv.ParseUint(v, 10, 64)
		if !ok || err != nil {
			t.Fatalf("malformed sample line %q", line)
		}
		samples[name] = n
	}
	for _, m := range runtimeMetrics {
		if !strings.Contains(sb.String(), "# TYPE "+m.name+" "+m.kind+"\n") {
			t.Errorf("no TYPE header for %s", m.name)
		}
		if _, ok := samples[m.name]; !ok {
			t.Errorf("no sample for %s", m.name)
		}
	}
	if len(samples) != 4 {
		t.Errorf("%d samples, want 4:\n%s", len(samples), sb.String())
	}
	if samples["distxq_runtime_gc_percent"] != readMetric("/gc/gogc:percent") {
		t.Errorf("gc percent sample %d, runtime says %d", samples["distxq_runtime_gc_percent"], readMetric("/gc/gogc:percent"))
	}
	if samples["distxq_runtime_heap_goal_bytes"] == 0 {
		t.Error("heap goal reads 0")
	}
}

// TestNewMuxServesPprofOnlyWhenAsked: the private mux exposes profiling only
// under the flag.
func TestNewMuxServesPprofOnlyWhenAsked(t *testing.T) {
	for _, on := range []bool{false, true} {
		ts := httptest.NewServer(NewMux(on))
		resp, err := http.Get(ts.URL + "/debug/pprof/heap?debug=1")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		ts.Close()
		if want := map[bool]int{false: http.StatusNotFound, true: http.StatusOK}[on]; resp.StatusCode != want {
			t.Errorf("pprof %v: /debug/pprof/heap answered %d, want %d", on, resp.StatusCode, want)
		}
	}
}

// TestListenAndServeReportsBindFailure: an address that cannot be bound
// returns the error without announcing anything.
func TestListenAndServeReportsBindFailure(t *testing.T) {
	announced := false
	err := ListenAndServe("256.0.0.1:0", http.NewServeMux(), func(net.Addr) { announced = true })
	if err == nil || announced {
		t.Fatalf("bind of an invalid address: err %v, announced %v", err, announced)
	}
}
