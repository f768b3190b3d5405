package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"distxq/internal/eval"
	"distxq/internal/projection"
	"distxq/internal/xdm"
	"distxq/internal/xrpc"
)

// TestMetricsServesRuntimeBlock: xqpeer's /metrics is exactly the collector
// regime's four runtime metrics, then the module cache's four counters.
func TestMetricsServesRuntimeBlock(t *testing.T) {
	ts := httptest.NewServer(newMux(&xrpc.Server{Engine: eval.NewEngine(nil)}, false))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	page, _ := io.ReadAll(resp.Body)
	var samples []string
	for _, line := range strings.Split(strings.TrimSpace(string(page)), "\n") {
		if !strings.HasPrefix(line, "#") {
			name, _, _ := strings.Cut(line, " ")
			samples = append(samples, name)
		}
	}
	want := []string{"distxq_runtime_gc_cycles_total", "distxq_runtime_heap_live_bytes",
		"distxq_runtime_heap_goal_bytes", "distxq_runtime_gc_percent",
		"distxq_peer_module_cache_hits_total", "distxq_peer_module_cache_misses_total",
		"distxq_peer_module_cache_admissions_total", "distxq_peer_module_cache_evictions_total"}
	if strings.Join(samples, ",") != strings.Join(want, ",") {
		t.Errorf("/metrics samples %v, want %v", samples, want)
	}
}

// TestXRPCReplyDeclaresLength: the peer's /xrpc reply is not chunked.
func TestXRPCReplyDeclaresLength(t *testing.T) {
	ts := httptest.NewServer(newMux(&xrpc.Server{Engine: eval.NewEngine(nil)}, false))
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/xrpc", "application/soap+xml", strings.NewReader("<not-a-request/>"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 || !strings.Contains(string(body), "Fault") {
		t.Errorf("reply: Content-Length %d, transfer encoding %v, body %q; want a fault of declared length",
			resp.ContentLength, resp.TransferEncoding, body)
	}
}

// TestModuleCacheMetricsCountShapes: three requests whose modules differ
// only in a constant are one shape to the module cache — the first two miss
// (the second admits it) and the third hits — and /metrics reports it.
func TestModuleCacheMetricsCountShapes(t *testing.T) {
	ts := httptest.NewServer(newMux(&xrpc.Server{Engine: eval.NewEngine(nil)}, false))
	defer ts.Close()
	for _, k := range []int{40, 41, 42} {
		data, err := xrpc.MarshalRequest(&xrpc.Request{
			Method: "f", Semantics: xrpc.ByValue, Calls: [][]xdm.Sequence{{}},
			Module: fmt.Sprintf(`declare function f() as item()* { %d + 1 };`, k),
		}, nil, nil, projection.Options{})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/xrpc", "application/soap+xml", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if want := fmt.Sprint(k + 1); !strings.Contains(string(body), ">"+want+"<") {
			t.Fatalf("module with constant %d answered %s, want %s", k, body, want)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	page, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"distxq_peer_module_cache_hits_total 1\n", "distxq_peer_module_cache_misses_total 2\n",
		"distxq_peer_module_cache_admissions_total 1\n", "distxq_peer_module_cache_evictions_total 0\n",
	} {
		if !strings.Contains(string(page), want) {
			t.Errorf("/metrics lacks %q:\n%s", want, page)
		}
	}
}
