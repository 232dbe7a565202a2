// Command leasebench load-tests the live volume-lease stack: it spins up a
// server (in-process, or targets an external leased via -addr), drives it
// with a fleet of concurrent clients mixing cached reads, lease renewals,
// and writes, and reports throughput plus latency quantiles per operation
// class — the live-system counterpart of the trace-driven simulator.
//
// It is a load generator for a running stack, not a measuring instrument: the
// closed-loop random mix makes its ops/s incomparable across commits, and
// measurements come from `go run ./benchmark`.
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

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/daemon"
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
	audit       bool
	trace       bool
	costOut     string
	// obs carries -debug-addr and -flight-dir; execute fills in the rest.
	obs daemon.Options
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
	o.obs.Flags(fs, "debug-addr", "flight-dir")
	fs.BoolVar(&o.audit, "audit", false, "self-contained mode: run the online consistency auditor and fail on any invariant violation")
	fs.BoolVar(&o.trace, "trace", false, "record causal write-path spans and the per-second load timeline (summarized after the run; served at /debug/spans and /debug/load with -debug-addr)")
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
	// obs is the run's observability stack: cost accounting always, spans
	// and the load timeline with -trace, the auditor and its flight
	// recorder with -audit.
	obs *daemon.Stack
}

// execute runs the load.
func execute(o options) (*result, error) {
	// The run's observability, scraped over HTTP while the benchmark runs
	// with -debug-addr. In self-contained mode server and clients share the
	// process, the observer and the taps, so each message is seen twice: once
	// sent, once received (KindStat.Messages() takes the max). With -audit the
	// consistency auditor reads the same event stream, the run fails on any
	// invariant violation, and the flight recorder is the run's black box: a
	// violation freezes the trailing events into a dump file, so a failing
	// benchmark leaves its evidence behind.
	so := o.obs
	so.Node = "bench"
	so.Logf = func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "leasebench: "+format+"\n", args...)
	}
	so.Table = core.Config{ObjectLease: o.objLease, VolumeLease: o.volLease, Mode: core.ModeEager}
	so.Audit = o.audit
	if o.trace {
		so.Spans, so.LoadWindow = 8192, 300
	}
	if o.audit {
		so.Flight, so.FlightWindow, so.Tick = 16384, o.duration+30*time.Second, 200*time.Millisecond
	}
	stack := daemon.New(so)
	defer stack.Close()

	var net transport.Network
	addr := o.addr
	if addr != "" || o.useTCP {
		net = transport.TCP{DialTimeout: o.dialTimeout, Stats: stack.Batch, Taps: stack.Taps}
	} else {
		mem := transport.NewMemory()
		mem.Taps = stack.Taps
		net = mem
	}

	var srv *server.Server
	var stats func() core.Stats
	if addr == "" {
		// Self-contained: build the server here.
		addr = "bench-origin:1"
		if o.useTCP {
			addr = "127.0.0.1:0"
		}
		var err error
		srv, err = server.New(server.Config{
			Name:       "bench-origin",
			Addr:       addr,
			Net:        net,
			Table:      so.Table,
			MsgTimeout: 100 * time.Millisecond,
			Obs:        stack.Obs,
		})
		if err != nil {
			return nil, err
		}
		defer srv.Close()
		addr, stats = srv.Addr(), srv.Stats
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
			Obs:     stack.Obs,
		})
		if err != nil {
			return nil, fmt.Errorf("dial client %d: %w", i, err)
		}
		defer cl.Close()
		clients[i] = cl
	}
	// Lease-state introspection covers the whole process: the self-contained
	// server's table (when there is one) and every client's view.
	stateSrc := state.NewSource(func() state.Dump {
		d := state.Dump{Role: state.RoleClient, Node: "bench"}
		if srv != nil {
			sd := srv.StateSnapshot()
			d.Role, d.Server, d.TakenAt = state.RoleServer, sd.Server, sd.TakenAt
		}
		for _, cl := range clients {
			cs := cl.StateSnapshot()
			cs.Server = addr
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
	if err := stack.Start(stateSrc, stats); err != nil {
		return nil, err
	}

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
	res.obs = stack
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
	if rec := r.obs.Obs.SpanRec(); rec != nil {
		spans := rec.Snapshot()
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
			len(spans), rec.Total(), roots)
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
	if r.obs.Load != nil {
		b := r.obs.Load.BurstWindow(0)
		fmt.Fprintf(out, "load: peak %d msg/s, mean %.1f msg/s, burst ratio %.1f (%d busy / %d idle seconds)\n",
			b.Peak, b.Mean, b.Ratio, b.BusySeconds, b.IdleSeconds)
	}
	d := r.obs.Cost.Snapshot()
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
	if b := r.obs.Batch.Snapshot(); b.Flushes > 0 {
		fmt.Fprintf(out, "batch: %d frames in %d kernel flushes (%.2f frames/flush, %d coalesced)\n",
			b.Frames, b.Flushes, float64(b.Frames)/float64(b.Flushes), b.Coalesced)
	}
	if aud := r.obs.Audit; aud != nil {
		s := aud.Snapshot()
		fmt.Fprintf(out, "audit: %d events, %d stale reads, max staleness %v (bound %v)\n",
			s.Events, s.StaleReads, s.MaxStaleness, s.StalenessBound)
		// Exit non-zero on a violation, but leave the flight recording behind
		// first.
		dumps, err := r.obs.AuditErr("audit violations at end of run")
		for _, f := range dumps {
			fmt.Fprintf(out, "audit: flight dump %s\n", f)
		}
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "audit: all invariants held")
	}
	return nil
}
