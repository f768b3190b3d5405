// Command xqpeer runs an XRPC peer daemon: an XQuery engine serving its
// local documents over HTTP POST /xrpc, the wire protocol of the paper.
//
// Usage:
//
//	xqpeer -listen :8080 -doc depts.xml=./data/depts.xml -doc people=./p.xml
//
// Other peers (or cmd/xq) can then decompose queries referencing
// doc("xrpc://host:8080/depts.xml") to this peer.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"

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
	// A private mux keeps the surface explicit: importing net/http/pprof
	// registers on http.DefaultServeMux unconditionally, so serving that mux
	// would expose profiling endpoints regardless of -pprof.
	mux := http.NewServeMux()
	mux.Handle("/xrpc", xrpc.NewHTTPHandler(srv))
	// Streaming endpoint: results leave as chunk frames while later calls
	// are still evaluating.
	mux.Handle("/xrpc/stream", xrpc.NewStreamHTTPHandler(srv))
	if *pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	// Bind before announcing, so the message names the address actually
	// bound (-listen :0 picks a free port).
	ln, err := net.Listen("tcp", *listen)
	if err == nil {
		fmt.Printf("xqpeer listening on %s\n", ln.Addr())
		err = http.Serve(ln, mux)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "xqpeer: %v\n", err)
		os.Exit(1)
	}
}
