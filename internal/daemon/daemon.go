// Package daemon is the one place a live node's observers are chosen and
// plugged together. leased and leaseproxy each describe what they want in an
// Options value and get back a Stack: the *obs.Observer and the
// transport taps their node takes, and — once the node exists — the debug
// HTTP server, the health engine and the profiler around it.
//
// A node produces two streams and every sink is attached here, once:
//
//	frames (transport.Tap)  -> cost.Accounting   per-kind totals, bytes, codec time
//	                        -> loadtl.Timeline   per-second message counts
//	events (obs.Tracer)     -> obs.RingSink      /debug/events
//	                        -> audit.Auditor     invariants
//	                        -> loadtl.Timeline   writes, grants, ack waits per second
//	                        -> health flight recorder and detector engine
//
// Nothing else counts a frame or an event.
package daemon

import (
	"flag"
	"net/http"
	"strings"
	"time"

	"repro/internal/audit"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/health"
	"repro/internal/loadtl"
	"repro/internal/obs"
	"repro/internal/state"
	"repro/internal/transport"
)

// These were flags until every caller turned out to pass the default.
const profileRing = 24 // profile captures retained for /debug/profile/ring

// Options says which observers a node has. The zero value is a registry,
// cost accounting and nothing else.
type Options struct {
	// Node labels the stack's series, events and dumps.
	Node string
	// Clock stamps and windows everything; defaults to the wall clock.
	Clock clock.Clock
	// Logf, when non-nil, receives the startup line, health triggers and
	// profiler errors.
	Logf func(format string, args ...any)

	// The shared flags; Flags documents each.
	DebugAddr        string
	Trace            int
	Spans            int
	LoadWindow       int
	Flight           int
	FlightDir        string
	ProfileInterval  time.Duration
	ProfileCPUWindow time.Duration

	// Table is the node's lease configuration: VolumeLease is the lookahead of
	// the lease_state_expiring gauge and, with Audit, the table is the protocol
	// variant under audit.
	Table core.Config
	// Audit attaches the online consistency auditor; BestEffort tells it the
	// node's writes do not wait out unacknowledged leases.
	Audit      bool
	BestEffort bool
}

// Flags registers the shared observability flags on fs, bound to o.
func (o *Options) Flags(fs *flag.FlagSet) {
	fs.StringVar(&o.DebugAddr, "debug-addr", "", "serve /metrics, /debug/vars, /debug/pprof and a /debug/ endpoint per enabled observer on this address (empty = off)")
	fs.IntVar(&o.Trace, "trace", 256, "protocol events kept for /debug/events (0 = off)")
	fs.IntVar(&o.Spans, "spans", 0, "causal write-path spans kept for /debug/spans (0 = span tracing off)")
	fs.IntVar(&o.LoadWindow, "load-window", 300, "seconds of per-second load history for /debug/load and lease_load_* (0 = off)")
	fs.IntVar(&o.Flight, "flight", 8192, "protocol events retained by the flight recorder (0 = flight recorder and health detectors off)")
	fs.StringVar(&o.FlightDir, "flight-dir", "flight-dumps", "directory for flight recorder dump files ($FLIGHT_DUMP_DIR overrides)")
	fs.DurationVar(&o.ProfileInterval, "profile-interval", 0, "capture heap/goroutine profiles into the profile ring this often (0 = off)")
	fs.DurationVar(&o.ProfileCPUWindow, "profile-cpu-window", 0, "also capture a CPU profile of this length each cycle (0 = off)")
}

// Stack is one node's assembled observers. Obs, Taps and Batch go into the
// node's Config and network before it starts; the component fields are for
// reading results and are nil when their option is off.
type Stack struct {
	Obs   *obs.Observer
	Taps  []transport.Tap
	Batch *transport.BatchStats // for transport.TCP.Stats; stays zero on Memory

	Cost   *cost.Accounting
	Load   *loadtl.Timeline
	Audit  *audit.Auditor
	Health *health.Engine

	opts   Options
	reg    *obs.Registry
	ring   *obs.RingSink
	flight *health.FlightRecorder
	prof   *cost.Profiler
	stats  func() core.Stats
	routes []obs.Route
	debug  *obs.DebugServer
}

// New builds the stack. Nothing runs and nothing listens until Start.
func New(o Options) *Stack {
	if o.Clock == nil {
		o.Clock = clock.Real{}
	}
	s := &Stack{opts: o, reg: obs.NewRegistry(), Batch: &transport.BatchStats{}}
	observer := &obs.Observer{Metrics: s.reg}
	s.Obs = observer
	obs.RegisterBatchStats(s.reg, o.Node, s.Batch)

	var sinks []obs.Sink
	if o.Trace > 0 {
		s.ring = obs.NewRingSink(o.Trace)
		sinks = append(sinks, s.ring)
	}
	if o.Audit {
		s.Audit = audit.New(audit.LiveConfig(o.Table, o.BestEffort))
		s.Audit.Register(s.reg)
		sinks = append(sinks, s.Audit)
		s.mount("/debug/audit", s.Audit)
	}
	s.Cost = cost.New(o.Node, o.Clock.Now)
	s.Cost.Register(s.reg)
	s.mount("/debug/cost", cost.Handler(s.Cost))
	if o.LoadWindow > 0 {
		s.Load = loadtl.New(o.Node, o.LoadWindow, o.Clock.Now)
		s.Load.Register(s.reg)
		sinks = append(sinks, s.Load)
		s.mount("/debug/load", s.Load.Handler())
	}
	// Every frame goes to exactly these two: totals per kind, counts per second.
	s.Taps = []transport.Tap{s.Cost, s.Load}
	if o.Flight > 0 {
		s.flight = health.NewFlightRecorder(o.Node, o.Flight, 0) // 0: the default one-minute window
		s.flight.AttachTimeline(s.Load)
		s.Health = s.newEngine()
		s.Health.Register(s.reg)
		sinks = append(sinks, s.flight, s.Health)
		s.mount("/debug/health", health.Handler(s.Health))
		s.mount("/debug/flightrecorder", health.FlightHandler(s.Health))
	}
	if len(sinks) > 0 {
		observer.Tracer = obs.NewTracer(sinks...)
	}
	if o.Spans > 0 {
		spans := obs.NewSpanRecorder(o.Spans)
		observer.Spans = spans
		s.flight.AttachSpans(spans)
		s.mount("/debug/spans", obs.SpansHandler(spans))
	}
	if o.ProfileInterval > 0 {
		s.prof = cost.NewProfiler(cost.ProfilerOptions{
			Node:      o.Node,
			Clock:     o.Clock,
			Interval:  o.ProfileInterval,
			Ring:      profileRing,
			CPUWindow: o.ProfileCPUWindow,
			Logf:      o.Logf,
		})
		// Anomaly dumps freeze the profile ring alongside events and spans.
		s.flight.AttachProfiles(s.prof)
		s.mount("/debug/profile/ring", cost.RingHandler(s.prof))
	}
	return s
}

func (s *Stack) mount(path string, h http.Handler) {
	s.routes = append(s.routes, obs.Route{Path: path, Handler: h})
}

// newEngine builds the detector engine over the node's table statistics
// (sampled at tick time, so only after Start has supplied them) and, when
// there is an auditor, over its verdicts.
func (s *Stack) newEngine() *health.Engine {
	o := s.opts
	det := health.DetectorConfig{
		Backlog: func() float64 { return float64(s.stats().PendingInvalidation) },
	}
	ho := health.Options{
		Node:    o.Node,
		Clock:   o.Clock,
		Flight:  s.flight,
		DumpDir: health.DumpDir(o.FlightDir),
		Logf:    o.Logf,
		Sample: func() map[string]float64 {
			st := s.stats()
			return map[string]float64{
				"object_leases":        float64(st.ObjectLeases),
				"volume_leases":        float64(st.VolumeLeases),
				"pending_invalidation": float64(st.PendingInvalidation),
				"unreachable_clients":  float64(st.UnreachableClients),
			}
		},
	}
	if aud := s.Audit; aud != nil {
		det.AuditViolations = func() float64 { return float64(len(aud.Violations())) }
		// Staleness-budget burn: the worst staleness the auditor has observed
		// as a fraction of the paper's min(t, t_v) bound.
		if bound := aud.Config().Bound(); bound > 0 {
			ho.StalenessBurn = func() float64 { return float64(aud.MaxStaleness()) / float64(bound) }
		}
	}
	return health.NewEngine(ho, health.DefaultDetectors(det)...)
}

// Start takes what only exists once the node does — its lease-state source
// and its table statistics — then binds the debug server when one was asked
// for and starts the health engine and the profiler. State is attached
// before the engine runs, so no freeze can race the attach; the listener is
// bound before anything is started, so a failed Start leaves nothing running.
func (s *Stack) Start(src *state.Source, stats func() core.Stats) error {
	s.stats = stats
	state.Register(s.reg, s.opts.Node, src, s.opts.Table.VolumeLease)
	s.flight.AttachState(src)
	if s.opts.DebugAddr != "" {
		routes := append([]obs.Route{{Path: "/debug/leases", Handler: state.Handler(src)}}, s.routes...)
		d, err := obs.ServeClock(s.opts.Clock, s.opts.DebugAddr, s.reg, s.ring, routes...)
		if err != nil {
			return err
		}
		s.debug = d
		if s.opts.Logf != nil {
			s.opts.Logf("debug server on http://%s (%s)", d.Addr(), strings.Join(d.Routes(), " "))
		}
	}
	s.Health.Start()
	s.prof.Start()
	return nil
}

// DebugAddr is the debug server's bound address, "" when none is serving.
func (s *Stack) DebugAddr() string {
	if s.debug == nil {
		return ""
	}
	return s.debug.Addr()
}

// AuditErr is the auditor's verdict: nil without an auditor or when every
// invariant held. On a violation it first makes sure the black box is left
// behind — the engine's audit rule usually dumped mid-run; if no dump exists
// yet one is frozen now, labelled reason — and returns the dump files beside
// the error.
func (s *Stack) AuditErr(reason string) (dumps []string, err error) {
	if s.Audit == nil {
		return nil, nil
	}
	if err = s.Audit.Err(); err == nil {
		return nil, nil
	}
	rep := s.Health.Snapshot()
	dumps = rep.DumpFiles
	if rep.DumpsWritten == 0 {
		if path, derr := s.Health.ForceDump(reason); derr == nil {
			dumps = append(dumps, path)
		}
	}
	return dumps, err
}

// Close stops the debug server, the profiler and the health engine. Safe
// after a failed Start and more than once.
func (s *Stack) Close() {
	if s.debug != nil {
		s.debug.Close()
	}
	s.prof.Close()
	s.Health.Close()
}
