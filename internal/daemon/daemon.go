// Package daemon holds what the shipped daemons, cmd/xqd and cmd/xqpeer,
// share as processes: the collector regime they run under, the runtime
// gauges that make that regime observable, a private mux with optional
// pprof, and listen-and-announce. Library code never calls into it — the
// regime mutates process-global runtime state, so only a main may start it.
package daemon

import (
	"net"
	"net/http"
	"net/http/pprof"
)

// NewMux returns a private mux, serving net/http/pprof under /debug/pprof/
// when pprofOn. A private mux keeps the surface explicit: importing
// net/http/pprof registers on http.DefaultServeMux unconditionally, so
// serving that mux would expose profiling endpoints regardless of the flag.
func NewMux(pprofOn bool) *http.ServeMux {
	mux := http.NewServeMux()
	if pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// ListenAndServe binds addr, passes the address actually bound to announce
// (so -listen :0 names the port it picked), then serves h. It returns only
// when binding or serving fails.
func ListenAndServe(addr string, h http.Handler, announce func(bound net.Addr)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	announce(ln.Addr())
	return http.Serve(ln, h)
}
