// Command leaseproxy runs a hierarchical volume-lease cache over TCP: a
// node that holds leases from an upstream leased (or another leaseproxy)
// and grants sub-leases to its own downstream clients, with sub-leases
// capped so they never outlive the upstream leases.
//
// Usage:
//
//	leased -addr :7400 -volume site &
//	leaseproxy -addr :7401 -upstream 127.0.0.1:7400 -volume site
//	leaseproxy -addr :7402 -upstream 127.0.0.1:7401 -volume site   # chainable
//
// Observability is leased's stack (internal/daemon), with the same shared
// flags and, under -debug-addr, the same routes, from which leasemon -freeze
// builds its flight dump. leasebench pointed at a proxy checks the history
// its clients see through it (internal/history).
// -startup-fence holds every upstream acknowledgment for that long after
// boot; pass -startup-fence 0s to drive a freshly started proxy with writes.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/proxy"
	"repro/internal/transport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "leaseproxy:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "127.0.0.1:7401", "downstream listen address")
	upstream := flag.String("upstream", "127.0.0.1:7400", "upstream server or proxy address")
	id := flag.String("id", "leaseproxy", "identity toward the upstream")
	volume := flag.String("volume", "vol", "volume to proxy")
	objLease := flag.Duration("object-lease", 10*time.Minute, "nominal downstream object sub-lease")
	volLease := flag.Duration("volume-lease", 10*time.Second, "nominal downstream volume sub-lease")
	fence := flag.Duration("startup-fence", 30*time.Second,
		"delay upstream acks this long after boot (set to the upstream volume-lease duration)")
	msgTimeout := flag.Duration("msg-timeout", time.Second, "minimum downstream ack wait")
	verbose := flag.Bool("v", false, "verbose logging")
	statsEvery := flag.Duration("stats", 30*time.Second, "stats reporting interval (0 = off)")
	dialTimeout := flag.Duration("dial-timeout", 10*time.Second, "TCP dial timeout")
	var o daemon.Options
	o.Flags(flag.CommandLine)
	flag.Parse()

	// The proxy is a client of its upstream and a server to its downstream:
	// the one stack sees both roles' events, and both directions' frames —
	// upstream renewals and downstream grants — are charged to it.
	o.Node = *id
	o.Logf = func(format string, args ...any) { log.Printf("leaseproxy: "+format, args...) }
	o.Table = core.Config{ObjectLease: *objLease, VolumeLease: *volLease}
	stack := daemon.New(o)

	cfg := proxy.Config{
		ID:             core.ClientID(*id),
		Addr:           *addr,
		Net:            transport.TCP{DialTimeout: *dialTimeout, Stats: stack.Batch, Taps: stack.Taps},
		Upstream:       *upstream,
		Volume:         core.VolumeID(*volume),
		SubObjectLease: *objLease,
		SubVolumeLease: *volLease,
		StartupFence:   *fence,
		MsgTimeout:     *msgTimeout,
		Obs:            stack.Obs,
	}
	if *verbose {
		cfg.Logf = log.Printf
	}
	px, err := proxy.New(cfg)
	if err != nil {
		return err
	}
	defer px.Close()
	defer stack.Close() // runs first: observers stop before the node they watch
	// Lease state here is the downstream sub-lease table plus the upstream
	// cached view.
	if err := stack.Start(px.StateSource()); err != nil {
		return err
	}
	log.Printf("leaseproxy: serving volume %q on %s (upstream %s, sub-leases t=%v tv=%v)",
		*volume, px.Addr(), *upstream, *objLease, *volLease)

	if *statsEvery > 0 {
		go func() {
			for range time.Tick(*statsEvery) {
				log.Printf("leaseproxy: stats %+v", px.Stats())
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Println("leaseproxy: shutting down")
	return nil
}
