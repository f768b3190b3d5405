package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"distxq/internal/eval"
	"distxq/internal/xrpc"
)

// TestMetricsServesRuntimeBlock: xqpeer's /metrics is exactly the collector
// regime's four runtime metrics.
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
		"distxq_runtime_heap_goal_bytes", "distxq_runtime_gc_percent"}
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
