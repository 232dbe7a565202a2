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
// Observability is one stack, assembled by internal/daemon and shared with
// leaseproxy. With -debug-addr set, a debug HTTP server
// exposes /metrics (Prometheus text), /debug/pprof/ (runtime profiles),
// /debug/leases (the live lease-table snapshot: who holds what until when,
// with ?volume=/?client=/?expiring= filters; the lease_state_* gauges
// summarize it and flight dumps freeze it) and /debug/cost (per-message-kind
// frames, bytes and encode/decode time at the transport boundary — the one
// count of wire traffic — and the per-second load sampled from it, also the
// lease_cost_* and lease_load_* metrics), plus one endpoint per enabled
// observer: /debug/events (the last -trace protocol events, filterable with
// ?type= and ?since=; with -trace on they include each write's causal
// records, which ?trace= and ?min_dur= select) and /debug/flightrecorder
// (-flight: the flight recorder and its dumps). The
// index at / and the startup log list exactly what is mounted. Alerts are
// cmd/leasemon's rules over /metrics; the daemon raises none itself. Its
// consistency is checked from the clients' side: leasebench records what its
// reads return and checks the history (internal/history).
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

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/server"
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
	dialTimeout time.Duration
	// obs carries the shared observability flags; start fills in the rest.
	obs daemon.Options
}

// instance is a started daemon: the lease server inside its observability
// stack.
type instance struct {
	srv    *server.Server
	obs    *daemon.Stack
	seeded int
}

func (in *instance) Close() {
	in.obs.Close()
	in.srv.Close()
}

// start builds the observability stack, starts the server inside it,
// registers the volume, and seeds objects.
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

	// Observability: always collect (the cost is atomic counters); the debug
	// address only controls whether anything is served.
	o := opts.obs
	o.Node = opts.volume
	o.Logf = func(format string, args ...any) { log.Printf("leased: "+format, args...) }
	o.Table = tableCfg
	stack := daemon.New(o)

	cfg := server.Config{
		Name:       opts.volume,
		Addr:       opts.addr,
		Net:        transport.TCP{DialTimeout: opts.dialTimeout, Stats: stack.Batch, Taps: stack.Taps},
		Table:      tableCfg,
		MsgTimeout: opts.msgTimeout,
		StateDir:   opts.stateDir,
		Obs:        stack.Obs,
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
	in := &instance{srv: srv, obs: stack}
	if err := srv.AddVolume(core.VolumeID(opts.volume)); err != nil {
		in.Close()
		return nil, err
	}
	in.seeded, err = seedObjects(srv, core.VolumeID(opts.volume), opts.dir, opts.nObjects)
	if err != nil {
		in.Close()
		return nil, err
	}
	if err := stack.Start(srv.StateSource()); err != nil {
		in.Close()
		return nil, err
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
	flag.DurationVar(&opts.dialTimeout, "dial-timeout", 10*time.Second, "TCP dial timeout")
	opts.obs.Flags(flag.CommandLine)
	flag.Parse()

	in, err := start(opts)
	if err != nil {
		return err
	}
	defer in.Close()

	log.Printf("leased: serving volume %q (%d objects, mode=%s, t=%v, tv=%v) on %s",
		opts.volume, in.seeded, opts.mode, opts.objLease, opts.volLease, in.srv.Addr())

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
