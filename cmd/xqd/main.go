// Command xqd runs the long-lived federation daemon: a query front end
// holding warm transports to its peers, a decomposed-plan cache, and
// admission control, executing each POSTed query under a per-query
// wall-time budget with adaptive hedging across replicas.
//
// Usage:
//
//	xqd -listen :9090 -doc peer1/depts.xml=./depts.xml \
//	    -replica peer1=rep1 -budget 2s -max-concurrent 8
//
// Endpoints:
//
//	POST /query   query text in the body; X-Xqd-Budget-Ms overrides the
//	              default per-query budget. 200 carries the serialized
//	              result; 503 a shed (overloaded) query; 504 a blown budget.
//	GET  /stats   JSON service counters (admitted, shed, plan hits, ...)
//	              plus per-peer health-tracker state.
//	GET  /metrics Prometheus-style text page unifying service, evaluation,
//	              transport, per-peer health and collector (runtime) metrics.
//	GET  /debug/traces  recent and slowest query span trees as JSON
//	              (requires -trace).
//	GET  /healthz liveness probe.
//
// -pprof additionally serves net/http/pprof under /debug/pprof/ (off by
// default: the daemon uses its own mux, so pprof's DefaultServeMux
// registration is inert unless wired in). The daemon runs under the
// collector regime of internal/daemon unless GOGC or GOMEMLIMIT is set.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"distxq"
	"distxq/internal/core"
	"distxq/internal/daemon"
	"distxq/internal/service"
	"distxq/internal/xrpc"
)

type repeatable []string

func (r *repeatable) String() string     { return strings.Join(*r, ",") }
func (r *repeatable) Set(v string) error { *r = append(*r, v); return nil }

func fail(err error) {
	fmt.Fprintf(os.Stderr, "xqd: %v\n", err)
	os.Exit(1)
}

func main() {
	listen := flag.String("listen", ":9090", "listen address")
	strategy := flag.String("strategy", "by-projection",
		"data-shipping | by-value | by-fragment | by-projection")
	var docs repeatable
	flag.Var(&docs, "doc", "peer/name=path of a document hosted in-process (repeatable)")
	var httpPeers repeatable
	flag.Var(&httpPeers, "peer", "name=baseURL of a remote xqpeer daemon (repeatable)")
	var replicaSpecs repeatable
	flag.Var(&replicaSpecs, "replica",
		"peer=replica1,replica2,... — ordered failover replicas of a scatter target (repeatable)")
	budget := flag.Duration("budget", 5*time.Second, "default per-query wall-time budget (0 = unbounded)")
	maxConcurrent := flag.Int("max-concurrent", 0, "queries executing at once (0 = default)")
	maxQueue := flag.Int("max-queue", 0, "admission queue depth beyond capacity (0 = default, <0 = none)")
	queueWait := flag.Duration("queue-wait", 0, "max admission queue wait (0 = default)")
	streamed := flag.Bool("stream", false, "dispatch scatter loops over streaming XRPC")
	chunkItems := flag.Int("chunk-items", 0,
		"result items per streamed response chunk on in-process peers (0 = default)")
	retries := flag.Int("retry-attempts", 0, "max attempts per scatter lane (0 = one per available copy)")
	hedgeAfter := flag.Duration("hedge-after", 20*time.Millisecond,
		"static hedge trigger until the health tracker has observed enough traffic (0 = off)")
	traced := flag.Bool("trace", false,
		"record a span tree per query, served at /debug/traces")
	traceRing := flag.Int("trace-ring", 0, "recent traces retained (0 = default)")
	pprofOn := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
	flag.Parse()
	daemon.StartGCRegime()

	strat, err := parseStrategy(*strategy)
	if err != nil {
		fail(err)
	}
	fed := distxq.NewNetwork()
	fed.SetChunkItems(*chunkItems)
	peers := map[string]*distxq.Peer{}
	for _, spec := range docs {
		target, path, ok := strings.Cut(spec, "=")
		if !ok {
			fail(fmt.Errorf("want peer/name=path, got %q", spec))
		}
		peerName, docName, ok := strings.Cut(target, "/")
		if !ok {
			fail(fmt.Errorf("want peer/name=path, got %q", spec))
		}
		p := peers[peerName]
		if p == nil {
			p = fed.AddPeer(peerName)
			peers[peerName] = p
		}
		data, err := os.ReadFile(path)
		if err != nil {
			fail(err)
		}
		if err := p.LoadXML(docName, string(data)); err != nil {
			fail(err)
		}
	}
	for _, spec := range httpPeers {
		name, baseURL, ok := strings.Cut(spec, "=")
		if !ok {
			fail(fmt.Errorf("want name=baseURL, got %q", spec))
		}
		url := strings.TrimSuffix(baseURL, "/") + "/xrpc"
		fed.RouteExternal(name, &xrpc.HTTPTransport{
			URLFor: func(string) string { return url },
		})
	}
	origin := fed.AddPeer("local")

	svc := service.New(fed, origin, strat, service.Config{
		MaxConcurrent: *maxConcurrent,
		MaxQueue:      *maxQueue,
		MaxQueueWait:  *queueWait,
		DefaultBudget: core.Budget{Wall: *budget},
		Streamed:      *streamed,
		Trace:         *traced,
		TraceRing:     *traceRing,
	})
	// Lanes always start on the health-ranked rotation of their replicas.
	pol := &xrpc.RetryPolicy{
		MaxAttempts:    *retries,
		HedgeAfter:     *hedgeAfter,
		SpreadReplicas: true,
	}
	svc.UseRetry(pol)

	replicas := map[string][]string{}
	for _, spec := range replicaSpecs {
		primary, rest, ok := strings.Cut(spec, "=")
		if !ok || rest == "" {
			fail(fmt.Errorf("want peer=replica1,replica2,..., got %q", spec))
		}
		replicas[primary] = strings.Split(rest, ",")
	}
	svc.Replicas = replicas

	if err := daemon.ListenAndServe(*listen, newMux(svc, *pprofOn), func(bound net.Addr) {
		fmt.Printf("xqd listening on %s (strategy %s, budget %v)\n", bound, strat, *budget)
	}); err != nil {
		fail(err)
	}
}

// newMux builds xqd's endpoints over svc.
func newMux(svc *service.Service, pprofOn bool) *http.ServeMux {
	mux := daemon.NewMux(pprofOn)
	mux.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "query requires POST", http.StatusMethodNotAllowed)
			return
		}
		body, err := xrpc.ReadBody(r.Body, r.ContentLength)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var b core.Budget
		if h := r.Header.Get("X-Xqd-Budget-Ms"); h != "" {
			ms, err := strconv.ParseInt(h, 10, 64)
			if err != nil || ms < 0 {
				http.Error(w, "bad X-Xqd-Budget-Ms", http.StatusBadRequest)
				return
			}
			b = core.Budget{Wall: time.Duration(ms) * time.Millisecond}
		}
		res, _, err := svc.Query(string(body), b)
		switch {
		case err == nil:
			w.Header().Set("Content-Type", "application/xml")
			// One buffer in front of the ResponseWriter, whose every write
			// locks the connection: the serializer's many small writes go
			// here. bufio errors are sticky; one means the client left.
			bw := bufio.NewWriter(w)
			_ = distxq.SerializeTo(bw, res)
			_ = bw.WriteByte('\n')
			_ = bw.Flush()
		case errors.Is(err, xrpc.ErrOverloaded):
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
		case errors.Is(err, xrpc.ErrDeadlineExceeded):
			http.Error(w, err.Error(), http.StatusGatewayTimeout)
		default:
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		}
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(struct {
			service.Stats
			Peers map[string]xrpc.PeerHealthState `json:"peers,omitempty"`
		}{svc.Stats(), svc.PeerHealth()})
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		if svc.WriteMetrics(w) == nil {
			_ = daemon.WriteRuntimeMetrics(w)
		}
	})
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, r *http.Request) {
		if svc.Traces == nil {
			http.Error(w, "tracing disabled (run with -trace)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(svc.Traces.Dump())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

func parseStrategy(s string) (distxq.Strategy, error) {
	switch s {
	case "data-shipping":
		return distxq.DataShipping, nil
	case "by-value", "pass-by-value":
		return distxq.ByValue, nil
	case "by-fragment", "pass-by-fragment":
		return distxq.ByFragment, nil
	case "by-projection", "pass-by-projection":
		return distxq.ByProjection, nil
	}
	return 0, fmt.Errorf("unknown strategy %q", s)
}
