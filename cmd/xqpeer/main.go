// Command xqpeer runs an XRPC peer daemon: an XQuery engine serving its
// local documents over HTTP POST /xrpc, the wire protocol of the paper.
//
// Usage:
//
//	xqpeer -listen :8080 -doc depts.xml=./data/depts.xml -doc people=./p.xml
//
// Other peers (or cmd/xq) can then decompose queries referencing
// doc("xrpc://host:8080/depts.xml") to this peer.
//
// Endpoints:
//
//	POST /xrpc         one XRPC request message in, one response (or fault) out
//	POST /xrpc/stream  the same request, answered as length-prefixed chunk frames
//	GET  /metrics      the collector regime's runtime metrics and the shipped-
//	                   module cache's counters (Prometheus text)
//
// -pprof additionally serves net/http/pprof under /debug/pprof/. The daemon
// runs under the collector regime of internal/daemon unless GOGC or
// GOMEMLIMIT is set.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"

	"distxq/internal/daemon"
	"distxq/internal/eval"
	"distxq/internal/xdm"
	"distxq/internal/xrpc"
)

type docFlags map[string]string

func (d docFlags) String() string { return fmt.Sprint(map[string]string(d)) }
func (d docFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want name=path, got %q", v)
	}
	d[name] = path
	return nil
}

func main() {
	listen := flag.String("listen", ":8080", "listen address")
	chunkItems := flag.Int("chunk-items", 0,
		"result items per streamed response chunk (0 = default)")
	name := flag.String("name", "",
		"peer name stamped on server-side trace spans (default: listen address)")
	pprofOn := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
	docs := docFlags{}
	flag.Var(docs, "doc", "name=path of a document to serve (repeatable)")
	flag.Parse()
	daemon.StartGCRegime()

	store := map[string]*xdm.Document{}
	for name, path := range docs {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xqpeer: %v\n", err)
			os.Exit(1)
		}
		d, err := xdm.ParseString(string(data), name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xqpeer: %s: %v\n", path, err)
			os.Exit(1)
		}
		store[name] = d
		fmt.Printf("serving %s (%d bytes)\n", name, len(data))
	}
	engine := eval.NewEngine(eval.ResolverFunc(func(uri string) (*xdm.Document, error) {
		// Accept both plain names and xrpc://self/name forms.
		name := uri
		if i := strings.LastIndexByte(uri, '/'); strings.HasPrefix(uri, "xrpc://") && i >= 0 {
			name = uri[i+1:]
		}
		if d, ok := store[name]; ok {
			return d, nil
		}
		return nil, fmt.Errorf("no such document %q", uri)
	}))
	peerName := *name
	if peerName == "" {
		peerName = *listen
	}
	srv := &xrpc.Server{Engine: engine, ChunkItems: *chunkItems, Name: peerName}
	if err := daemon.ListenAndServe(*listen, newMux(srv, *pprofOn), func(bound net.Addr) {
		fmt.Printf("xqpeer listening on %s\n", bound)
	}); err != nil {
		fmt.Fprintf(os.Stderr, "xqpeer: %v\n", err)
		os.Exit(1)
	}
}

// newMux builds xqpeer's endpoints over srv.
func newMux(srv *xrpc.Server, pprofOn bool) *http.ServeMux {
	mux := daemon.NewMux(pprofOn)
	mux.Handle("/xrpc", xrpc.NewHTTPHandler(srv))
	// Streaming endpoint: results leave as chunk frames while later calls
	// are still evaluating.
	mux.Handle("/xrpc/stream", xrpc.NewStreamHTTPHandler(srv))
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		if daemon.WriteRuntimeMetrics(w) == nil {
			_ = writeModuleCacheMetrics(w, srv.ModuleCacheStats())
		}
	})
	return mux
}

// writeModuleCacheMetrics writes the shipped-module cache's counters in the
// Prometheus text format of the runtime block before them.
func writeModuleCacheMetrics(w io.Writer, st xrpc.ModuleCacheStats) error {
	for _, m := range []struct {
		name, help string
		value      int64
	}{
		{"hits", "Shipped modules run from the module cache.", st.Hits},
		{"misses", "Shipped modules parsed afresh.", st.Misses},
		{"admissions", "Module shapes cached on their second sighting.", st.Admissions},
		{"evictions", "Cached module shapes dropped for newer ones.", st.Evictions},
	} {
		name := "distxq_peer_module_cache_" + m.name + "_total"
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, m.help, name, name, m.value); err != nil {
			return err
		}
	}
	return nil
}
