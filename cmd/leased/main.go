// Command leased runs a networked volume-lease server over TCP, serving the
// protocol of Figures 2-4. Objects are seeded from the -seed flag or a
// directory tree; writes arrive from clients via the WriteReq RPC.
//
// Usage:
//
//	leased -addr :7400 -volume site -objects 100
//	leased -addr :7400 -volume docs -dir ./content      # one object per file
//	leased -addr :7400 -volume site -debug-addr :7401   # metrics + pprof
//
// Flags select the consistency mode: -mode eager (basic volume leases) or
// -mode delayed (delayed invalidations, with -discard for the paper's d).
//
// With -debug-addr set, a debug HTTP server exposes /metrics (Prometheus
// text), /debug/vars (JSON), /debug/pprof/ (runtime profiles) and
// /debug/events (the last -trace protocol events, filterable with ?type=
// and ?since=). -spans enables causal write-path tracing (spans land in
// /debug/spans; -span-sample keeps 1 in N traces), and -load-window keeps a
// per-second load timeline served at /debug/load and exported as the
// lease_load_* gauges. -cost (default on) accounts per-message-kind frames,
// bytes, and encode/decode time at the transport boundary (lease_cost_*
// metrics, /debug/cost with ?kind= and ?volume= filters), and
// -profile-interval samples heap/goroutine (optionally CPU) profiles into a
// flight-recorder-style ring served at /debug/profile/ring. /debug/leases
// serves the live lease-table snapshot (who holds what until when, with
// ?volume=/?client=/?expiring= filters) and the lease_state_* gauges
// summarize it; flight dumps freeze the same snapshot.
//
// -audit attaches the online consistency auditor (internal/audit): every
// protocol event also feeds a shadow model of the lease state, violations
// land in the lease_audit_* metrics and the daemon exits non-zero at
// shutdown if any were recorded. The audit report is served at /debug/audit.
package main

import (
	"flag"
	"fmt"
	"io/fs"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/audit"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/health"
	"repro/internal/loadtl"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/state"
	"repro/internal/transport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "leased:", err)
		os.Exit(1)
	}
}

// options collects everything run() parses from flags, so tests can start a
// fully wired daemon in-process.
type options struct {
	addr        string
	volume      string
	nObjects    int
	dir         string
	objLease    time.Duration
	volLease    time.Duration
	mode        string
	discard     time.Duration
	msgTimeout  time.Duration
	bestEffort  bool
	stateDir    string
	verbose     bool
	debugAddr   string
	traceLen    int
	slowWrite   time.Duration
	audit       bool
	spans       int
	spanSample  int
	loadWindow  int
	flight      int
	flightWin   time.Duration
	flightDir   string
	cost        bool
	profEvery   time.Duration
	profRing    int
	profCPU     time.Duration
	dialTimeout time.Duration
}

// instance is a started daemon: the lease server plus its observability
// plumbing.
type instance struct {
	srv     *server.Server
	debug   *obs.DebugServer
	rec     *metrics.Recorder
	reg     *obs.Registry
	ring    *obs.RingSink
	aud     *audit.Auditor
	spans   *obs.SpanRecorder
	load    *loadtl.Timeline
	flight  *health.FlightRecorder
	health  *health.Engine
	cost    *cost.Accounting
	prof    *cost.Profiler
	seeded  int
	mode    core.Mode
	volLog  string
	objLog  time.Duration
	volLeas time.Duration
}

func (in *instance) Close() {
	if in.debug != nil {
		in.debug.Close()
	}
	in.prof.Close()
	in.health.Close()
	in.srv.Close()
}

// start builds the observability stack, starts the server, registers the
// volume, and seeds objects.
func start(opts options) (*instance, error) {
	tableCfg := core.Config{
		ObjectLease:     opts.objLease,
		VolumeLease:     opts.volLease,
		Mode:            core.ModeEager,
		InactiveDiscard: opts.discard,
	}
	switch opts.mode {
	case "eager":
	case "delayed":
		tableCfg.Mode = core.ModeDelayed
	default:
		return nil, fmt.Errorf("unknown mode %q", opts.mode)
	}

	in := &instance{
		rec:     metrics.NewRecorder(),
		mode:    tableCfg.Mode,
		volLog:  opts.volume,
		objLog:  opts.objLease,
		volLeas: opts.volLease,
	}

	// Observability: always collect (the cost is atomic counters); the debug
	// address only controls whether anything is served.
	in.reg = obs.NewRegistry()
	observer := &obs.Observer{Metrics: in.reg}
	var sinks []obs.Sink
	if opts.traceLen > 0 {
		in.ring = obs.NewRingSink(opts.traceLen)
		sinks = append(sinks, in.ring)
	}
	if opts.audit {
		in.aud = audit.New(audit.LiveConfig(tableCfg, opts.bestEffort))
		in.aud.Register(in.reg)
		sinks = append(sinks, in.aud)
	}
	if opts.loadWindow > 0 {
		in.load = loadtl.New(opts.volume, opts.loadWindow, time.Now)
		in.load.Register(in.reg)
		sinks = append(sinks, in.load)
	}
	if opts.flight > 0 {
		in.flight = health.NewFlightRecorder(opts.volume, opts.flight, opts.flightWin)
		in.flight.AttachTimeline(in.load)
		sinks = append(sinks, in.flight)
		detCfg := health.DetectorConfig{
			// Sample funcs poll at tick time; in.srv/in.aud are set below,
			// before the engine starts.
			Backlog: func() float64 {
				if in.srv == nil {
					return 0
				}
				return float64(in.srv.Stats().PendingInvalidation)
			},
		}
		hopts := health.Options{
			Node:    opts.volume,
			Flight:  in.flight,
			DumpDir: health.DumpDir(opts.flightDir),
			Logf:    log.Printf,
			Sample: func() map[string]float64 {
				if in.srv == nil {
					return nil
				}
				st := in.srv.Stats()
				return map[string]float64{
					"object_leases":        float64(st.ObjectLeases),
					"volume_leases":        float64(st.VolumeLeases),
					"pending_invalidation": float64(st.PendingInvalidation),
					"unreachable_clients":  float64(st.UnreachableClients),
				}
			},
		}
		if opts.audit {
			detCfg.AuditViolations = func() float64 {
				return float64(len(in.aud.Violations()))
			}
			// Staleness-budget burn: the worst staleness the auditor has
			// observed as a fraction of the paper's min(t, t_v) bound.
			bound := opts.objLease
			if opts.volLease < bound {
				bound = opts.volLease
			}
			if bound > 0 {
				hopts.StalenessBurn = func() float64 {
					return float64(in.aud.MaxStaleness()) / float64(bound)
				}
			}
		}
		in.health = health.NewEngine(hopts, health.DefaultDetectors(detCfg)...)
		in.health.Register(in.reg)
		sinks = append(sinks, in.health)
	}
	if len(sinks) > 0 {
		observer.Tracer = obs.NewTracer(sinks...)
	}
	if opts.spans > 0 {
		in.spans = obs.NewSpanRecorder(opts.spans, opts.spanSample)
		if opts.slowWrite > 0 {
			// Mirror the server's slow-write log at the span layer: any root
			// write span at or past the threshold also lands in the event
			// trace as an EvSlowOp.
			in.spans.SlowOp(opts.slowWrite, observer.Tracer)
		}
		observer.Spans = in.spans
		in.flight.AttachSpans(in.spans)
	}
	obs.RegisterRecorder(in.reg, in.rec)
	if opts.cost {
		in.cost = cost.New(opts.volume, time.Now)
		in.cost.Register(in.reg)
	}
	if opts.profEvery > 0 {
		in.prof = cost.NewProfiler(cost.ProfilerOptions{
			Node:      opts.volume,
			Clock:     clock.Real{},
			Interval:  opts.profEvery,
			Ring:      opts.profRing,
			CPUWindow: opts.profCPU,
			Logf:      log.Printf,
		})
		// Anomaly dumps freeze the profile ring alongside events and spans.
		in.flight.AttachProfiles(in.prof)
	}
	// Every frame yields one event; cost accounting and the per-kind
	// transport counters are the two sinks of it.
	batch := &transport.BatchStats{}
	netw := transport.TCP{
		DialTimeout: opts.dialTimeout,
		Stats:       batch,
		Taps:        []transport.Tap{in.cost, obs.WireTap(observer, opts.volume, time.Now)},
	}
	obs.RegisterBatchStats(in.reg, opts.volume, batch)

	cfg := server.Config{
		Name:               opts.volume,
		Addr:               opts.addr,
		Net:                netw,
		Table:              tableCfg,
		MsgTimeout:         opts.msgTimeout,
		StateDir:           opts.stateDir,
		Recorder:           in.rec,
		Obs:                observer,
		SlowWriteThreshold: opts.slowWrite,
	}
	if opts.bestEffort {
		cfg.WriteMode = server.WriteBestEffort
	}
	if opts.verbose {
		cfg.Logf = log.Printf
	}

	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	in.srv = srv
	if err := srv.AddVolume(core.VolumeID(opts.volume)); err != nil {
		srv.Close()
		return nil, err
	}

	in.seeded, err = seedObjects(srv, core.VolumeID(opts.volume), opts.dir, opts.nObjects)
	if err != nil {
		srv.Close()
		return nil, err
	}
	// Lease-state introspection: /debug/leases, lease_state_* gauges, and a
	// frozen table snapshot in every flight dump. Attached before the health
	// engine starts so no freeze can race the attach.
	stateSrc := srv.StateSource()
	state.Register(in.reg, opts.volume, stateSrc, opts.volLease)
	in.flight.AttachState(stateSrc)
	in.health.Start()
	in.prof.Start()

	if opts.debugAddr != "" {
		routes := []obs.Route{{Path: "/debug/leases", Handler: state.Handler(stateSrc)}}
		if in.aud != nil {
			routes = append(routes, obs.Route{Path: "/debug/audit", Handler: in.aud})
		}
		if in.cost != nil {
			routes = append(routes, obs.Route{Path: "/debug/cost", Handler: cost.Handler(in.cost)})
		}
		if in.prof != nil {
			routes = append(routes, obs.Route{Path: "/debug/profile/ring", Handler: cost.RingHandler(in.prof)})
		}
		if in.spans != nil {
			routes = append(routes, obs.Route{Path: "/debug/spans", Handler: obs.SpansHandler(in.spans)})
		}
		if in.load != nil {
			routes = append(routes, obs.Route{Path: "/debug/load", Handler: in.load.Handler()})
		}
		if in.health != nil {
			routes = append(routes,
				obs.Route{Path: "/debug/health", Handler: health.Handler(in.health)},
				obs.Route{Path: "/debug/flightrecorder", Handler: health.FlightHandler(in.health)})
		}
		in.debug, err = obs.Serve(opts.debugAddr, in.reg, in.ring, routes...)
		if err != nil {
			srv.Close()
			return nil, err
		}
	}
	return in, nil
}

func run() error {
	var opts options
	flag.StringVar(&opts.addr, "addr", "127.0.0.1:7400", "listen address")
	flag.StringVar(&opts.volume, "volume", "vol", "volume id")
	flag.IntVar(&opts.nObjects, "objects", 10, "number of synthetic objects to seed (obj-0 .. obj-N-1)")
	flag.StringVar(&opts.dir, "dir", "", "seed one object per file under this directory instead")
	flag.DurationVar(&opts.objLease, "object-lease", 10*time.Minute, "object lease duration (paper's t)")
	flag.DurationVar(&opts.volLease, "volume-lease", 30*time.Second, "volume lease duration (paper's t_v)")
	flag.StringVar(&opts.mode, "mode", "eager", "invalidation mode: eager or delayed")
	flag.DurationVar(&opts.discard, "discard", 0, "delayed mode: inactive discard time d (0 = never)")
	flag.DurationVar(&opts.msgTimeout, "msg-timeout", time.Second, "minimum invalidation ack wait")
	flag.BoolVar(&opts.bestEffort, "best-effort", false, "best-effort writes (bounded staleness, minimal write delay)")
	flag.StringVar(&opts.stateDir, "state-dir", "", "persist volume epochs + lease bound here (crash recovery per Section 3.1.2)")
	flag.BoolVar(&opts.verbose, "v", false, "verbose logging")
	statsEvery := flag.Duration("stats", 30*time.Second, "stats reporting interval (0 = off)")
	flag.StringVar(&opts.debugAddr, "debug-addr", "", "serve /metrics, /debug/vars, /debug/pprof and /debug/events on this address (empty = off)")
	flag.IntVar(&opts.traceLen, "trace", 256, "protocol events kept for /debug/events (0 = tracing off)")
	flag.DurationVar(&opts.slowWrite, "slow-write", 0, "log writes whose invalidation wait reaches this (0 = off)")
	flag.BoolVar(&opts.audit, "audit", false, "run the online consistency auditor (exports lease_audit_* metrics and /debug/audit)")
	flag.IntVar(&opts.spans, "spans", 0, "causal write-path spans kept for /debug/spans (0 = span tracing off)")
	flag.IntVar(&opts.spanSample, "span-sample", 1, "record 1 in N traces (1 = every trace)")
	flag.IntVar(&opts.loadWindow, "load-window", 300, "seconds of per-second load history for /debug/load and lease_load_* (0 = off)")
	flag.IntVar(&opts.flight, "flight", 8192, "protocol events retained by the flight recorder (0 = flight recorder off)")
	flag.DurationVar(&opts.flightWin, "flight-window", time.Minute, "trailing window a flight dump covers")
	flag.StringVar(&opts.flightDir, "flight-dir", "flight-dumps", "directory for flight recorder dump files ($FLIGHT_DUMP_DIR overrides)")
	flag.BoolVar(&opts.cost, "cost", true, "account per-kind wire-path cost (lease_cost_* metrics and /debug/cost)")
	flag.DurationVar(&opts.profEvery, "profile-interval", 0, "capture heap/goroutine profiles into the profile ring this often (0 = off)")
	flag.IntVar(&opts.profRing, "profile-ring", 24, "profile captures retained for /debug/profile/ring")
	flag.DurationVar(&opts.profCPU, "profile-cpu-window", 0, "also capture a CPU profile of this length each cycle (0 = off)")
	flag.DurationVar(&opts.dialTimeout, "dial-timeout", 10*time.Second, "TCP dial timeout")
	flag.Parse()

	in, err := start(opts)
	if err != nil {
		return err
	}
	defer in.Close()

	log.Printf("leased: serving volume %q (%d objects, mode=%s, t=%v, tv=%v) on %s",
		in.volLog, in.seeded, in.mode, in.objLog, in.volLeas, in.srv.Addr())
	if in.debug != nil {
		endpoints := "/metrics /debug/vars /debug/pprof /debug/leases"
		if in.ring != nil {
			endpoints += " /debug/events"
		}
		if in.aud != nil {
			endpoints += " /debug/audit"
		}
		if in.spans != nil {
			endpoints += " /debug/spans"
		}
		if in.load != nil {
			endpoints += " /debug/load"
		}
		if in.health != nil {
			endpoints += " /debug/health /debug/flightrecorder"
		}
		if in.cost != nil {
			endpoints += " /debug/cost"
		}
		if in.prof != nil {
			endpoints += " /debug/profile/ring"
		}
		log.Printf("leased: debug server on http://%s (%s)", in.debug.Addr(), endpoints)
	}

	if *statsEvery > 0 {
		go func() {
			for range time.Tick(*statsEvery) {
				st := in.srv.Stats()
				log.Printf("leased: stats %+v", st)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Println("leased: shutting down")
	if in.aud != nil {
		if err := in.aud.Err(); err != nil {
			// Leave the black box behind: freeze the flight recorder next to
			// the non-zero exit so the violation window can be examined.
			if path, derr := in.health.ForceDump("audit violations at shutdown"); derr == nil {
				log.Printf("leased: wrote flight dump %s", path)
			}
			return err
		}
	}
	return nil
}

// seedObjects populates the volume from a directory (one object per regular
// file, id = relative path) or with synthetic objects.
func seedObjects(srv *server.Server, vid core.VolumeID, dir string, n int) (int, error) {
	if dir == "" {
		for i := 0; i < n; i++ {
			id := core.ObjectID(fmt.Sprintf("obj-%d", i))
			data := []byte(fmt.Sprintf("object %d, version 1", i))
			if err := srv.AddObject(vid, id, data); err != nil {
				return 0, err
			}
		}
		return n, nil
	}
	count := 0
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := srv.AddObject(vid, core.ObjectID(rel), data); err != nil {
			return err
		}
		count++
		return nil
	})
	return count, err
}
