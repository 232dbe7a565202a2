// Command leasebench is a load driver for a running leased or leaseproxy: it
// dials -addr with concurrent clients mixing cached reads, lease renewals and
// writes, and reports throughput, per-operation latency quantiles, errors and
// the clients' cache counters. The target serves what it saw (cost, spans,
// load, audit) on its own -debug-addr. Measurements come from
// `go run ./benchmark`: a closed-loop random mix is not comparable across
// commits.
//
// Usage:
//
//	leased -addr 127.0.0.1:7400 -volume bench -objects 64 -audit
//	leasebench -addr 127.0.0.1:7400 -clients 50 -duration 10s -write-ratio 0.05
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/metrics"
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
	addr, volume          string
	clients, objects      int
	duration, dialTimeout time.Duration
	writeRatio            float64
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("leasebench", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.addr, "addr", "", "address of the running leased or leaseproxy to load (required)")
	fs.StringVar(&o.volume, "volume", "bench", "volume id")
	fs.IntVar(&o.clients, "clients", 16, "concurrent clients")
	fs.IntVar(&o.objects, "objects", 64, "objects in the target volume, used as obj-0 .. obj-N-1 (as leased -objects seeds them)")
	fs.DurationVar(&o.duration, "duration", 3*time.Second, "benchmark duration")
	fs.Float64Var(&o.writeRatio, "write-ratio", 0.02, "fraction of operations that are writes")
	fs.DurationVar(&o.dialTimeout, "dial-timeout", 10*time.Second, "TCP dial timeout")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.addr == "" {
		return o, fmt.Errorf("-addr is required: start a server first, e.g. leased -addr 127.0.0.1:7400 -volume %s -objects %d", o.volume, o.objects)
	}
	if o.clients <= 0 || o.objects <= 0 || o.duration <= 0 {
		return o, fmt.Errorf("clients, objects, and duration must be positive")
	}
	if o.writeRatio < 0 || o.writeRatio > 1 {
		return o, fmt.Errorf("write-ratio must be in [0,1]")
	}
	return o, nil
}

func run(out io.Writer, args []string) error {
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
	reads, writes, errors                  atomic.Int64
	readLat, writeLat                      metrics.Histogram
	elapsed                                time.Duration
	localReads, serverReads, invalidations int64
}

// execute runs the load against o.addr.
func execute(o options) (*result, error) {
	net := transport.TCP{DialTimeout: o.dialTimeout}
	clients := make([]*client.Client, o.clients)
	for i := range clients {
		cl, err := client.Dial(net, o.addr, client.Config{
			ID:      core.ClientID(fmt.Sprintf("bench-%d", i)),
			Timeout: 10 * time.Second,
			Redial:  true,
		})
		if err != nil {
			return nil, fmt.Errorf("dial client %d: %w", i, err)
		}
		defer cl.Close()
		clients[i] = cl
	}

	res := &result{}
	var wg sync.WaitGroup
	var stop atomic.Bool
	start := time.Now()
	for i, cl := range clients {
		wg.Add(1)
		go func(cl *client.Client, seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			payload := make([]byte, 2048)
			for !stop.Load() {
				oid := core.ObjectID(fmt.Sprintf("obj-%d", rng.Intn(o.objects)))
				t0 := time.Now()
				var err error
				lat, n := &res.readLat, &res.reads
				if rng.Float64() < o.writeRatio {
					_, _, err = cl.Write(oid, payload)
					lat, n = &res.writeLat, &res.writes
				} else {
					_, err = cl.Read(core.VolumeID(o.volume), oid)
				}
				if err != nil {
					res.errors.Add(1)
					continue
				}
				lat.Observe(time.Since(t0))
				n.Add(1)
			}
		}(cl, int64(i)+1)
	}
	time.Sleep(o.duration)
	stop.Store(true)
	wg.Wait()
	res.elapsed = time.Since(start)

	for _, cl := range clients {
		l, s, inv := cl.Stats()
		res.localReads += l
		res.serverReads += s
		res.invalidations += inv
	}
	return res, nil
}

// report prints the measurement.
func (r *result) report(out io.Writer, o options) error {
	total := r.reads.Load() + r.writes.Load()
	fmt.Fprintf(out, "leasebench: %d clients, %d objects, %.0f%% writes, %v against %s\n",
		o.clients, o.objects, o.writeRatio*100, o.duration, o.addr)
	fmt.Fprintf(out, "throughput: %.0f ops/s (%d reads, %d writes, %d errors)\n",
		float64(total)/r.elapsed.Seconds(), r.reads.Load(), r.writes.Load(), r.errors.Load())
	err := r.readLat.WriteSummary(out, "read")
	if err == nil && r.writeLat.Count() > 0 {
		err = r.writeLat.WriteSummary(out, "write")
	}
	if err == nil && r.reads.Load() > 0 {
		_, err = fmt.Fprintf(out, "cache: %.1f%% of reads served locally, %d invalidations received\n",
			100*float64(r.localReads)/float64(r.localReads+r.serverReads), r.invalidations)
	}
	return err
}
