package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"

	"repro/internal/clock"
)

// Route is an extra endpoint mounted on the debug mux — e.g. the lease
// table at /debug/leases.
type Route struct {
	Path    string
	Handler http.Handler
}

// newMux builds the debug mux:
//
//	/metrics       — Prometheus text exposition
//	/debug/pprof/  — the standard runtime profiles
//	/debug/events  — recent protocol events (only when ring != nil)
//
// plus any extra routes, and an index at / listing exactly what was mounted.
// It returns the mux and that list, which DebugServer.Routes reports too.
// The pprof handlers are wired explicitly so the daemon does not depend on
// http.DefaultServeMux (which blank-importing net/http/pprof would mutate).
// Relative ?since= windows on /debug/events are resolved on clk, so a stack
// on simulated time filters on the timeline its events were stamped on.
func newMux(clk clock.Clock, reg *Registry, ring *RingSink, extra []Route) (*http.ServeMux, []string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", metricsHandler(reg))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	routes := []string{"/metrics", "/debug/pprof/"}
	if ring != nil {
		mux.HandleFunc("/debug/events", eventsHandler(ring, clk))
		routes = append(routes, "/debug/events")
	}
	for _, rt := range extra {
		mux.Handle(rt.Path, rt.Handler)
		routes = append(routes, rt.Path)
	}
	index := "lease debug server\n\n" + strings.Join(routes, "\n")
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintln(w, index)
	})
	return mux, routes
}

// DebugServer is a running debug HTTP endpoint.
type DebugServer struct {
	ln     net.Listener
	srv    *http.Server
	routes []string
}

// Serve binds addr (":0" picks a free port) and serves the debug mux in the
// background until Close. It uses the real clock; ServeClock injects one.
func Serve(addr string, reg *Registry, ring *RingSink, extra ...Route) (*DebugServer, error) {
	return ServeClock(clock.Real{}, addr, reg, ring, extra...)
}

// ServeClock is Serve with an injected clock for time-relative query
// handling.
func ServeClock(clk clock.Clock, addr string, reg *Registry, ring *RingSink, extra ...Route) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	mux, routes := newMux(clk, reg, ring, extra)
	d := &DebugServer{
		ln:     ln,
		srv:    &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
		routes: routes,
	}
	go func() { _ = d.srv.Serve(ln) }()
	return d, nil
}

// Addr reports the bound address.
func (d *DebugServer) Addr() string { return d.ln.Addr().String() }

// Routes lists the mounted paths, in mount order — what the index at / shows.
func (d *DebugServer) Routes() []string { return d.routes }

// Close stops the server.
func (d *DebugServer) Close() error { return d.srv.Close() }
