// Package daemon is the one place a live node's observers are chosen and
// plugged together. leased and leaseproxy each describe what they want in an
// Options value and get back a Stack: the *obs.Observer and the
// transport tap their node takes, and — once the node exists — the debug
// HTTP server and the per-second load sampler around it.
//
// A node produces two streams and every sink is attached here, once:
//
//	frames (transport.Tap)  -> cost.Accounting   per-kind totals, bytes, codec time,
//	                                             sampled into per-second load
//	events (obs.Tracer)     -> obs.RingSink      /debug/events, the causal write
//	                                             records included (?trace=)
//
// Nothing else counts a frame or keeps an event. The node writes no flight
// dump: the scraper builds one (leasemon -freeze) from /debug/events,
// /debug/cost and /debug/leases. Alerts are not raised here either: they are
// cmd/leasemon's rules over the /metrics this stack serves. Whether the node
// keeps the paper's guarantee is checked from its clients' side, by
// internal/history (leasebench's verdict).
package daemon

import (
	"flag"
	"strings"
	"sync"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/obs"
	"repro/internal/state"
	"repro/internal/transport"
)

// Options says which observers a node has. The zero value is a registry,
// cost accounting and nothing else.
type Options struct {
	// Node labels the stack's series and events.
	Node string
	// Clock stamps and windows everything; defaults to the wall clock.
	Clock clock.Clock
	// Logf, when non-nil, receives the startup line.
	Logf func(format string, args ...any)

	// The shared flags; Flags documents each.
	DebugAddr string
	Trace     int

	// Table is the node's lease configuration: VolumeLease is the lookahead of
	// the lease_state_expiring gauge.
	Table core.Config
}

// Flags registers the shared observability flags on fs, bound to o.
func (o *Options) Flags(fs *flag.FlagSet) {
	fs.StringVar(&o.DebugAddr, "debug-addr", "", "serve /metrics, /debug/pprof and a /debug/ endpoint per enabled observer on this address (empty = off)")
	fs.IntVar(&o.Trace, "trace", 8192, "protocol events, causal write records included, kept for /debug/events and leasemon -freeze (0 = off)")
}

// Stack is one node's assembled observers. Obs, Taps and Batch go into the
// node's Config and network before it starts; Cost is for reading results.
type Stack struct {
	Obs   *obs.Observer
	Taps  []transport.Tap
	Batch *transport.BatchStats // for transport.TCP.Stats; stays zero on Memory

	Cost *cost.Accounting

	opts  Options
	reg   *obs.Registry
	ring  *obs.RingSink
	debug *obs.DebugServer
	stop  chan struct{} // ends the load sampler
	once  sync.Once     // closes stop
	wg    sync.WaitGroup
}

// New builds the stack. Nothing runs and nothing listens until Start.
func New(o Options) *Stack {
	if o.Clock == nil {
		o.Clock = clock.Real{}
	}
	s := &Stack{opts: o, reg: obs.NewRegistry(), Batch: &transport.BatchStats{}, stop: make(chan struct{})}
	observer := &obs.Observer{Metrics: s.reg}
	s.Obs = observer
	obs.RegisterBatchStats(s.reg, o.Node, s.Batch)

	if o.Trace > 0 {
		s.ring = obs.NewRingSink(o.Trace)
		observer.Tracer = obs.NewTracer(s.ring)
	}
	s.Cost = cost.New(o.Node, o.Clock.Now)
	s.Cost.Register(s.reg)
	// Every frame goes to exactly this one; per-second load is sampled from it.
	s.Taps = []transport.Tap{s.Cost}
	return s
}

// Start takes what only exists once the node does — its lease-state source —
// then binds the debug server when one was asked for and starts the load
// sampler. The listener is bound before anything is started, so a failed
// Start leaves nothing running.
func (s *Stack) Start(src *state.Source) error {
	state.Register(s.reg, s.opts.Node, src, s.opts.Table.VolumeLease)
	if s.opts.DebugAddr != "" {
		d, err := obs.ServeClock(s.opts.Clock, s.opts.DebugAddr, s.reg, s.ring,
			obs.Route{Path: "/debug/leases", Handler: state.Handler(src)},
			obs.Route{Path: "/debug/cost", Handler: cost.Handler(s.Cost)})
		if err != nil {
			return err
		}
		s.debug = d
		if s.opts.Logf != nil {
			s.opts.Logf("debug server on http://%s (%s)", d.Addr(), strings.Join(d.Routes(), " "))
		}
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.Cost.Run(s.opts.Clock, s.stop)
	}()
	return nil
}

// DebugAddr is the debug server's bound address, "" when none is serving.
func (s *Stack) DebugAddr() string {
	if s.debug == nil {
		return ""
	}
	return s.debug.Addr()
}

// Close stops the debug server and the load sampler. Safe after a failed
// Start and more than once.
func (s *Stack) Close() {
	if s.debug != nil {
		s.debug.Close()
	}
	s.once.Do(func() { close(s.stop) })
	s.wg.Wait()
}
