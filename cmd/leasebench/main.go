// Command leasebench load-tests the live volume-lease stack: it spins up a
// server (in-process, or targets an external leased via -addr), drives it
// with a fleet of concurrent clients mixing cached reads, lease renewals,
// and writes, and reports throughput plus latency quantiles per operation
// class — the live-system counterpart of the trace-driven simulator.
//
// Usage:
//
//	leasebench                                    # self-contained, defaults
//	leasebench -clients 50 -duration 10s -write-ratio 0.05
//	leasebench -addr 127.0.0.1:7400 -volume site  # against a running leased
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/audit"
	"repro/internal/client"
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
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "leasebench:", err)
		os.Exit(1)
	}
}

// options collects the benchmark parameters.
type options struct {
	addr        string
	volume      string
	clients     int
	objects     int
	duration    time.Duration
	writeRatio  float64
	objLease    time.Duration
	volLease    time.Duration
	useTCP      bool
	dialTimeout time.Duration
	debugAddr   string
	audit       bool
	trace       bool
	spanSample  int
	flightDir   string
	cost        bool
	costOut     string
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("leasebench", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.addr, "addr", "", "target an external server (default: self-contained in-process server)")
	fs.StringVar(&o.volume, "volume", "bench", "volume id")
	fs.IntVar(&o.clients, "clients", 16, "concurrent clients")
	fs.IntVar(&o.objects, "objects", 64, "objects in the volume (self-contained mode)")
	fs.DurationVar(&o.duration, "duration", 3*time.Second, "benchmark duration")
	fs.Float64Var(&o.writeRatio, "write-ratio", 0.02, "fraction of operations that are writes")
	fs.DurationVar(&o.objLease, "object-lease", time.Minute, "object lease (self-contained mode)")
	fs.DurationVar(&o.volLease, "volume-lease", 5*time.Second, "volume lease (self-contained mode)")
	fs.BoolVar(&o.useTCP, "tcp", false, "self-contained mode: use loopback TCP instead of the in-memory transport")
	fs.DurationVar(&o.dialTimeout, "dial-timeout", 10*time.Second, "TCP dial timeout")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof during the run (empty = off)")
	fs.BoolVar(&o.audit, "audit", false, "self-contained mode: run the online consistency auditor and fail on any invariant violation")
	fs.BoolVar(&o.trace, "trace", false, "record causal write-path spans and the per-second load timeline (summarized after the run; served at /debug/spans and /debug/load with -debug-addr)")
	fs.IntVar(&o.spanSample, "span-sample", 1, "with -trace, record 1 in N traces")
	fs.StringVar(&o.flightDir, "flight-dir", "flight-dumps",
		"with -audit, write a flight recorder dump here when a violation is recorded ($FLIGHT_DUMP_DIR overrides)")
	fs.BoolVar(&o.cost, "cost", true, "account per-message-kind wire-path cost and report it after the run")
	fs.StringVar(&o.costOut, "cost-out", "", "write the final cost dump (the /debug/cost JSON) to this file; `figures -cost` renders it")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.clients <= 0 || o.objects <= 0 || o.duration <= 0 {
		return o, fmt.Errorf("clients, objects, and duration must be positive")
	}
	if o.writeRatio < 0 || o.writeRatio > 1 {
		return o, fmt.Errorf("write-ratio must be in [0,1]")
	}
	if o.audit && o.addr != "" {
		// Auditing an external server would only see the client half of the
		// event stream and flag spurious violations.
		return o, fmt.Errorf("-audit requires the self-contained server (omit -addr)")
	}
	return o, nil
}

func run(out *os.File, args []string) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	res, err := execute(o)
	if err != nil {
		return err
	}
	return res.report(out, o)
}

// result aggregates the measurement.
type result struct {
	reads, writes, errors atomic.Int64
	readLat, writeLat     metrics.Histogram
	elapsed               time.Duration
	serverStats           *core.Stats // nil when targeting an external server
	localReads            int64
	serverReads           int64
	invalidations         int64
	aud                   *audit.Auditor        // nil unless -audit
	spans                 *obs.SpanRecorder     // nil unless -trace
	load                  *loadtl.Timeline      // nil unless -trace
	health                *health.Engine        // nil unless -audit
	cost                  *cost.Accounting      // nil unless -cost
	batch                 *transport.BatchStats // nil unless TCP
}

// execute runs the load.
func execute(o options) (*result, error) {
	var (
		net  transport.Network
		addr = o.addr
	)

	// Optional live observability: a registry scraped over HTTP while the
	// benchmark runs, fed by the self-contained server (when present) and by
	// the clients' cache counters. With -audit the consistency auditor taps
	// the same event stream and the run fails on any invariant violation.
	var (
		observer *obs.Observer
		rec      *metrics.Recorder
		aud      *audit.Auditor
		spanRec  *obs.SpanRecorder
		load     *loadtl.Timeline
		engine   *health.Engine
	)
	// Lease-state introspection: the debug server starts before the
	// self-contained server and the client fleet exist, so /debug/leases and
	// the lease_state_* gauges read them through a mutex-guarded box filled
	// once they are built (empty dump until then).
	stateBox := &struct {
		sync.Mutex
		addr    string
		srv     *server.Server
		clients []*client.Client
	}{}
	stateSrc := state.NewSource(func() state.Dump {
		stateBox.Lock()
		srv, cls, srvAddr := stateBox.srv, stateBox.clients, stateBox.addr
		stateBox.Unlock()
		d := state.Dump{Role: state.RoleClient, Node: "bench"}
		if srv != nil {
			sd := srv.StateSnapshot()
			d.Role, d.Server, d.TakenAt = state.RoleServer, sd.Server, sd.TakenAt
		}
		for _, cl := range cls {
			cs := cl.StateSnapshot()
			cs.Server = srvAddr
			if cs.TakenAt.After(d.TakenAt) {
				d.TakenAt = cs.TakenAt
			}
			d.Clients = append(d.Clients, cs)
		}
		if d.TakenAt.IsZero() {
			d.TakenAt = time.Now()
		}
		return d
	})

	if o.debugAddr != "" || o.audit || o.trace {
		reg := obs.NewRegistry()
		observer = &obs.Observer{Metrics: reg}
		rec = metrics.NewRecorder()
		obs.RegisterRecorder(reg, rec)
		state.Register(reg, "bench", stateSrc, o.volLease)
		routes := []obs.Route{{Path: "/debug/leases", Handler: state.Handler(stateSrc)}}
		var sinks []obs.Sink
		if o.audit {
			aud = audit.New(audit.LiveConfig(core.Config{
				ObjectLease: o.objLease,
				VolumeLease: o.volLease,
				Mode:        core.ModeEager,
			}, false))
			aud.Register(reg)
			sinks = append(sinks, aud)
			routes = append(routes, obs.Route{Path: "/debug/audit", Handler: aud})
		}
		if o.trace {
			spanRec = obs.NewSpanRecorder(8192, o.spanSample)
			observer.Spans = spanRec
			load = loadtl.New(o.volume, 300, time.Now)
			load.Register(reg)
			sinks = append(sinks, load)
			routes = append(routes,
				obs.Route{Path: "/debug/spans", Handler: obs.SpansHandler(spanRec)},
				obs.Route{Path: "/debug/load", Handler: load.Handler()})
		}
		if o.audit {
			// Black box for the run: on any audit violation the engine
			// freezes the trailing event window into a dump file, so a
			// failing benchmark leaves its evidence behind.
			flightRec := health.NewFlightRecorder("bench", 16384, o.duration+30*time.Second)
			flightRec.AttachSpans(spanRec)
			flightRec.AttachTimeline(load)
			flightRec.AttachState(stateSrc)
			sinks = append(sinks, flightRec)
			engine = health.NewEngine(health.Options{
				Node:    "bench",
				Flight:  flightRec,
				DumpDir: health.DumpDir(o.flightDir),
				Tick:    200 * time.Millisecond,
				Tail:    200 * time.Millisecond,
				Logf: func(format string, args ...any) {
					fmt.Fprintf(os.Stderr, "leasebench: "+format+"\n", args...)
				},
			}, health.DefaultDetectors(health.DetectorConfig{
				AuditViolations: func() float64 { return float64(len(aud.Violations())) },
			})...)
			engine.Register(reg)
			sinks = append(sinks, engine)
			engine.Start()
			defer engine.Close()
			routes = append(routes,
				obs.Route{Path: "/debug/health", Handler: health.Handler(engine)},
				obs.Route{Path: "/debug/flightrecorder", Handler: health.FlightHandler(engine)})
		}
		if len(sinks) > 0 {
			observer.Tracer = obs.NewTracer(sinks...)
		}
		if o.debugAddr != "" {
			dbg, err := obs.Serve(o.debugAddr, reg, nil, routes...)
			if err != nil {
				return nil, err
			}
			defer dbg.Close()
			fmt.Fprintf(os.Stderr, "leasebench: debug server on http://%s\n", dbg.Addr())
		}
	}

	var acct *cost.Accounting
	if o.cost {
		acct = cost.New("bench", time.Now)
		if observer != nil {
			acct.Register(observer.Metrics)
		}
	}

	// Every frame yields one event; cost accounting and the wire tap (which
	// feeds the load timeline) are its sinks. In self-contained mode server
	// and clients share the process and the taps, so each message is seen
	// twice: once sent, once received (KindStat.Messages() takes the max).
	taps := []transport.Tap{acct, obs.WireTap(observer, "bench", time.Now)}
	var batch *transport.BatchStats
	if addr != "" || o.useTCP {
		batch = &transport.BatchStats{}
		net = transport.TCP{DialTimeout: o.dialTimeout, Stats: batch, Taps: taps}
	} else {
		mem := transport.NewMemory()
		mem.Taps = taps
		net = mem
	}

	var srv *server.Server
	if addr == "" {
		// Self-contained: build the server here.
		addr = "bench-origin:1"
		if o.useTCP {
			addr = "127.0.0.1:0"
		}
		var err error
		srv, err = server.New(server.Config{
			Name: "bench-origin",
			Addr: addr,
			Net:  net,
			Table: core.Config{
				ObjectLease: o.objLease,
				VolumeLease: o.volLease,
				Mode:        core.ModeEager,
			},
			MsgTimeout: 100 * time.Millisecond,
			Recorder:   rec,
			Obs:        observer,
		})
		if err != nil {
			return nil, err
		}
		defer srv.Close()
		addr = srv.Addr()
		if err := srv.AddVolume(core.VolumeID(o.volume)); err != nil {
			return nil, err
		}
		payload := make([]byte, 2048)
		for i := 0; i < o.objects; i++ {
			oid := core.ObjectID(fmt.Sprintf("obj-%d", i))
			if err := srv.AddObject(core.VolumeID(o.volume), oid, payload); err != nil {
				return nil, err
			}
		}
	}

	res := &result{}

	clients := make([]*client.Client, o.clients)
	for i := range clients {
		cl, err := client.Dial(net, addr, client.Config{
			ID:      core.ClientID(fmt.Sprintf("bench-%d", i)),
			Timeout: 10 * time.Second,
			Redial:  true,
			Obs:     observer,
		})
		if err != nil {
			return nil, fmt.Errorf("dial client %d: %w", i, err)
		}
		defer cl.Close()
		clients[i] = cl
	}
	stateBox.Lock()
	stateBox.addr, stateBox.srv, stateBox.clients = addr, srv, clients
	stateBox.Unlock()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	start := time.Now()
	for i, cl := range clients {
		wg.Add(1)
		go func(cl *client.Client, seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			payload := make([]byte, 2048)
			for {
				select {
				case <-stop:
					return
				default:
				}
				oid := core.ObjectID(fmt.Sprintf("obj-%d", rng.Intn(o.objects)))
				t0 := time.Now()
				if rng.Float64() < o.writeRatio {
					if _, _, err := cl.Write(oid, payload); err != nil {
						res.errors.Add(1)
						continue
					}
					res.writeLat.Observe(time.Since(t0))
					res.writes.Add(1)
				} else {
					if _, err := cl.Read(core.VolumeID(o.volume), oid); err != nil {
						res.errors.Add(1)
						continue
					}
					res.readLat.Observe(time.Since(t0))
					res.reads.Add(1)
				}
			}
		}(cl, int64(i)+1)
	}
	time.Sleep(o.duration)
	close(stop)
	wg.Wait()
	res.elapsed = time.Since(start)

	for _, cl := range clients {
		l, s, inv := cl.Stats()
		res.localReads += l
		res.serverReads += s
		res.invalidations += inv
	}
	if srv != nil {
		st := srv.Stats()
		res.serverStats = &st
	}
	res.aud = aud
	res.spans = spanRec
	res.load = load
	res.health = engine
	res.cost = acct
	res.batch = batch
	return res, nil
}

// report prints the measurement.
func (r *result) report(out *os.File, o options) error {
	secs := r.elapsed.Seconds()
	total := r.reads.Load() + r.writes.Load()
	fmt.Fprintf(out, "leasebench: %d clients, %d objects, %.0f%% writes, %v\n",
		o.clients, o.objects, o.writeRatio*100, o.duration)
	fmt.Fprintf(out, "throughput: %.0f ops/s (%d reads, %d writes, %d errors)\n",
		float64(total)/secs, r.reads.Load(), r.writes.Load(), r.errors.Load())
	if err := r.readLat.WriteSummary(out, "read"); err != nil {
		return err
	}
	if r.writeLat.Count() > 0 {
		if err := r.writeLat.WriteSummary(out, "write"); err != nil {
			return err
		}
	}
	if r.reads.Load() > 0 {
		fmt.Fprintf(out, "cache: %.1f%% of reads served locally, %d invalidations received\n",
			100*float64(r.localReads)/float64(r.localReads+r.serverReads), r.invalidations)
	}
	if r.serverStats != nil {
		fmt.Fprintf(out, "server state: %d object leases, %d volume leases (%d bytes)\n",
			r.serverStats.ObjectLeases, r.serverStats.VolumeLeases, r.serverStats.StateBytes)
	}
	if r.spans != nil {
		spans := r.spans.Snapshot()
		roots, slowest := 0, -1
		for i, s := range spans {
			if s.Kind != obs.SpanWrite {
				continue
			}
			roots++
			if slowest < 0 || s.Dur > spans[slowest].Dur {
				slowest = i
			}
		}
		fmt.Fprintf(out, "trace: %d spans retained (%d total recorded), %d server write roots\n",
			len(spans), r.spans.Total(), roots)
		if roots > 0 {
			root := spans[slowest]
			var children time.Duration
			for _, s := range spans {
				// Serialize and ack-wait run sequentially inside the root;
				// fan-out overlaps the ack wait, so it is not summed.
				if s.Parent == root.ID && (s.Kind == obs.SpanSerialize || s.Kind == obs.SpanAckWait) {
					children += s.Dur
				}
			}
			fmt.Fprintf(out, "trace: slowest write %s took %v (sequential children %v)\n",
				root.Object, root.Dur, children)
		}
	}
	if r.load != nil {
		b := r.load.BurstWindow(0)
		fmt.Fprintf(out, "load: peak %d msg/s, mean %.1f msg/s, burst ratio %.1f (%d busy / %d idle seconds)\n",
			b.Peak, b.Mean, b.Ratio, b.BusySeconds, b.IdleSeconds)
	}
	if r.cost != nil {
		d := r.cost.Snapshot()
		msgs := int64(0)
		for _, k := range d.Kinds {
			msgs += k.Messages()
		}
		fmt.Fprintf(out, "cost: %d messages, %d bytes sent, %d bytes received\n",
			msgs, d.Totals.BytesSent, d.Totals.BytesRecv)
		for _, k := range d.Kinds {
			line := fmt.Sprintf("cost: %-16s %8d msgs %10d bytes", k.Kind, k.Messages(), k.BytesSent+k.BytesRecv)
			if k.Encode != nil {
				line += fmt.Sprintf("  encode p99 %vns", k.Encode.P99Ns)
			}
			if k.Decode != nil {
				line += fmt.Sprintf("  decode p99 %vns", k.Decode.P99Ns)
			}
			fmt.Fprintln(out, line)
		}
		if o.costOut != "" {
			raw, err := json.MarshalIndent(d, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(o.costOut, append(raw, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(out, "cost: dump written to %s\n", o.costOut)
		}
	}
	if r.batch != nil {
		if b := r.batch.Snapshot(); b.Flushes > 0 {
			fmt.Fprintf(out, "batch: %d frames in %d kernel flushes (%.2f frames/flush, %d coalesced)\n",
				b.Frames, b.Flushes, float64(b.Frames)/float64(b.Flushes), b.Coalesced)
		}
	}
	if r.aud != nil {
		s := r.aud.Snapshot()
		fmt.Fprintf(out, "audit: %d events, %d stale reads, max staleness %v (bound %v)\n",
			s.Events, s.StaleReads, s.MaxStaleness, s.StalenessBound)
		if err := r.aud.Err(); err != nil {
			// Exit non-zero, but leave the flight recording behind first:
			// the engine's audit-violation rule usually dumped mid-run; if
			// the run ended before a tick saw the violation, freeze now.
			if rep := r.health.Snapshot(); r.health != nil {
				if rep.DumpsWritten == 0 {
					if path, derr := r.health.ForceDump("audit violations at end of run"); derr == nil {
						rep.DumpFiles = append(rep.DumpFiles, path)
					}
				}
				for _, f := range rep.DumpFiles {
					fmt.Fprintf(out, "audit: flight dump %s\n", f)
				}
			}
			return err
		}
		fmt.Fprintln(out, "audit: all invariants held")
	}
	return nil
}
