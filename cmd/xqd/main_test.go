package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"distxq"
	"distxq/internal/core"
	"distxq/internal/service"
)

// slowQuery runs for about a second of compiled evaluation, twenty times
// its tightest budget below: seven nested ten-way loops.
const slowQuery = `declare function ten() as item()* { (1, 2, 3, 4, 5, 6, 7, 8, 9, 10) };
count(for $a in ten() return for $b in ten() return for $c in ten() return
      for $d in ten() return for $e in ten() return for $f in ten() return
      for $g in ten() return 1)`

// testServer serves xqd's mux over a one-peer in-process federation.
func testServer(t *testing.T, cfg service.Config) (*service.Service, *httptest.Server) {
	t.Helper()
	fed := distxq.NewNetwork()
	if err := fed.AddPeer("peer1").LoadXML("d.xml", `<r><v a="1">x</v><v a="&lt;2&gt;">y &amp; z</v></r>`); err != nil {
		t.Fatal(err)
	}
	svc := service.New(fed, fed.AddPeer("local"), distxq.ByFragment, cfg)
	ts := httptest.NewServer(newMux(svc, false))
	t.Cleanup(ts.Close)
	return svc, ts
}

func post(t *testing.T, url, query string, budgetMS string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/query", strings.NewReader(query))
	if err != nil {
		t.Fatal(err)
	}
	if budgetMS != "" {
		req.Header.Set("X-Xqd-Budget-Ms", budgetMS)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Error(err)
		return 0, ""
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Error(err)
	}
	return resp.StatusCode, string(body)
}

// TestQueryReplyBytes pins /query's 200 reply to distxq.Serialize of the
// result plus a newline, for node, atomic, mixed and empty results.
func TestQueryReplyBytes(t *testing.T) {
	svc, ts := testServer(t, service.Config{})
	for name, c := range map[string]struct{ query, literal string }{
		"nodes":   {`doc("xrpc://peer1/d.xml")/child::r/child::v`, `<v a="1">x</v> <v a="&lt;2&gt;">y &amp; z</v>`},
		"atomics": {`(1, "two", 3.5, fn:true())`, `1 two 3.5 true`},
		"mixed": {`(doc("xrpc://peer1/d.xml")/child::r/child::v[2], "and", 42, doc("xrpc://peer1/d.xml")/child::r/child::v[1]/@a)`,
			`<v a="&lt;2&gt;">y &amp; z</v> and 42 a="1"`},
		"empty": {`()`, ``},
	} {
		res, _, err := svc.Query(c.query, core.Budget{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := distxq.Serialize(res) + "\n"
		if want != c.literal+"\n" {
			t.Fatalf("%s: Serialize gives %q, want %q", name, want, c.literal+"\n")
		}
		if code, body := post(t, ts.URL, c.query, ""); code != http.StatusOK || body != want {
			t.Errorf("%s: %d %q, want 200 %q", name, code, body, want)
		}
	}
}

// TestQueryErrorStatuses: a query the service rejects answers 422, one that
// blows its budget 504, one shed by admission control 503 — each with the
// error text as the body.
func TestQueryErrorStatuses(t *testing.T) {
	_, ts := testServer(t, service.Config{})
	if code, body := post(t, ts.URL, `for $x in`, ""); code != http.StatusUnprocessableEntity || body == "" {
		t.Errorf("malformed query: %d %q, want 422 with the parse error", code, body)
	}
	if code, body := post(t, ts.URL, `1`, "soon"); code != http.StatusBadRequest {
		t.Errorf("bad budget header: %d %q, want 400", code, body)
	}
	start := time.Now()
	if code, body := post(t, ts.URL, slowQuery, "50"); code != http.StatusGatewayTimeout || !strings.Contains(body, "deadline") {
		t.Errorf("slow query under a 50 ms budget: %d %q, want 504 naming the deadline", code, body)
	}
	if e := time.Since(start); e > 5*time.Second {
		t.Errorf("504 took %v", e)
	}

	// One capacity token, no queue: while the slow query holds the token, the
	// next arrival is shed.
	svc, ts := testServer(t, service.Config{MaxConcurrent: 1, MaxQueue: -1})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		post(t, ts.URL, slowQuery, "500")
	}()
	for deadline := time.Now().Add(5 * time.Second); svc.Stats().Admitted == 0; {
		if time.Now().After(deadline) {
			t.Fatal("slow query was never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	if code, body := post(t, ts.URL, `1`, ""); code != http.StatusServiceUnavailable || !strings.Contains(body, "overload") {
		t.Errorf("arrival at capacity: %d %q, want 503 naming the overload", code, body)
	}
	wg.Wait()
}

// TestQueryDepthBound: a 2 MB POST body of nested parentheses, which used
// to overflow the stack and kill the daemon, answers 422 with the parse
// error, and the daemon goes on answering.
func TestQueryDepthBound(t *testing.T) {
	_, ts := testServer(t, service.Config{})
	n := 1_000_000
	deep := strings.Repeat("(", n) + "1" + strings.Repeat(")", n)
	if code, body := post(t, ts.URL, deep, ""); code != http.StatusUnprocessableEntity || !strings.Contains(body, "deeper than") {
		t.Errorf("2 MB of parentheses: %d %.200q, want 422 naming the nesting bound", code, body)
	}
	if code, body := post(t, ts.URL, `count(doc("xrpc://peer1/d.xml")/child::r/child::v)`, ""); code != http.StatusOK || body != "2\n" {
		t.Errorf("query after the deep one: %d %q, want 200 \"2\\n\"", code, body)
	}
}

// TestMetricsAppendRuntimeBlock: /metrics is the service page followed by the
// collector regime's four runtime metrics.
func TestMetricsAppendRuntimeBlock(t *testing.T) {
	_, ts := testServer(t, service.Config{})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	page, _ := io.ReadAll(resp.Body)
	for _, name := range []string{"distxq_service_admitted_total", "distxq_xrpc_bytes_sent_total",
		"distxq_runtime_gc_cycles_total", "distxq_runtime_heap_live_bytes",
		"distxq_runtime_heap_goal_bytes", "distxq_runtime_gc_percent"} {
		if !strings.Contains(string(page), "\n"+name+" ") {
			t.Errorf("/metrics lacks %s", name)
		}
	}
}
