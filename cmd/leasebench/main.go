// Command leasebench is a load driver for a running leased or leaseproxy: it
// dials -addr with concurrent clients mixing cached reads, lease renewals and
// writes, and reports throughput, per-operation latency quantiles, errors
// (every one counted by cause, the first few with their operation, object
// and error) and the clients' cache counters. The target serves what it saw
// (cost, load, events) on its own -debug-addr. Measurements come from `go
// run ./benchmark`: a closed-loop random mix is not comparable across commits.
//
// It is also the run's consistency oracle: every write's payload starts with
// a 16-byte tag (the run's random nonce and a sequence number), every
// operation is recorded, and internal/history checks the reads against the
// writes at the end. leasebench exits non-zero on a stale or invented read,
// and prints the longest write wait without judging it: it does not know its
// target's lease terms.
//
// Usage:
//
//	leased -addr 127.0.0.1:7400 -volume bench -objects 64
//	leasebench -addr 127.0.0.1:7400 -clients 50 -duration 10s -write-ratio 0.05
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/history"
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

// keptFailures bounds how many failed operations a result keeps to report
// as examples, how many causes the report lists by name, and how many of the
// history check's anomalies it prints.
const keptFailures = 8

// failure is one failed operation.
type failure struct {
	op  string // "read" or "write"
	oid core.ObjectID
	err error
}

func (f failure) String() string { return fmt.Sprintf("%s %s: %v", f.op, f.oid, f.err) }

// cause is what f shares with the failures of the same kind: its operation
// and error, the object it names replaced by a placeholder.
func (f failure) cause() string {
	msg := f.err.Error()
	if f.oid != "" {
		msg = strings.ReplaceAll(msg, string(f.oid), "<object>")
	}
	return f.op + ": " + msg
}

// result aggregates the measurement.
type result struct {
	reads, writes, errors                  atomic.Int64
	readLat, writeLat                      metrics.Histogram
	elapsed                                time.Duration
	localReads, serverReads, invalidations int64

	failMu   sync.Mutex
	failures []failure        // the first keptFailures errors, in the order they happened
	causes   map[string]int64 // every error, counted by failure.cause

	logs []*history.Log // every operation, one log per client
}

// fail counts a failed operation by its cause and keeps the first few.
func (r *result) fail(op string, oid core.ObjectID, err error) {
	r.errors.Add(1)
	f := failure{op, oid, err}
	r.failMu.Lock()
	defer r.failMu.Unlock()
	if r.causes == nil {
		r.causes = make(map[string]int64)
	}
	r.causes[f.cause()]++
	if len(r.failures) < keptFailures {
		r.failures = append(r.failures, f)
	}
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

	res := &result{logs: make([]*history.Log, len(clients))}
	nonce := rand.Uint64() // tells this run's writes from earlier runs' data
	var seq atomic.Uint64  // the tag of this run's last write
	var wg sync.WaitGroup
	var stop atomic.Bool
	start := time.Now()
	since := func() time.Duration { return time.Since(start) }
	for i, cl := range clients {
		res.logs[i] = history.NewLog(since)
		wg.Add(1)
		go func(cl *client.Client, seed int64, log *history.Log) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				oid := core.ObjectID(fmt.Sprintf("obj-%d", rng.Intn(o.objects)))
				t0 := time.Now()
				call := t0.Sub(start)
				var err error
				op, lat, n := "read", &res.readLat, &res.reads
				if rng.Float64() < o.writeRatio {
					tag := seq.Add(1)
					// A fresh payload: a timed-out write's frame may still be
					// queued with the last one.
					payload := make([]byte, 2048)
					binary.BigEndian.PutUint64(payload, nonce)
					binary.BigEndian.PutUint64(payload[8:], tag)
					var v core.Version
					v, _, err = cl.Write(oid, payload)
					log.Write(string(oid), tag, call, uint64(v), err == nil)
					op, lat, n = "write", &res.writeLat, &res.writes
				} else {
					var data []byte
					if data, err = cl.Read(core.VolumeID(o.volume), oid); err == nil {
						log.Read(string(oid), tagOf(data, nonce), call)
					}
				}
				if err != nil {
					res.fail(op, oid, err)
					continue
				}
				lat.Observe(time.Since(t0))
				n.Add(1)
			}
		}(cl, int64(i)+1, res.logs[i])
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

// tagOf is the tag a write of this run (nonce) put at the head of data; any
// other content is a value from before the run, tag 0.
func tagOf(data []byte, nonce uint64) uint64 {
	if len(data) < 16 || binary.BigEndian.Uint64(data) != nonce {
		return 0
	}
	return binary.BigEndian.Uint64(data[8:])
}

// report prints the measurement and the history check's verdict, and
// returns the verdict: an error on any stale or invented read.
func (r *result) report(out io.Writer, o options) error {
	total := r.reads.Load() + r.writes.Load()
	fmt.Fprintf(out, "leasebench: %d clients, %d objects, %.0f%% writes, %v against %s\n",
		o.clients, o.objects, o.writeRatio*100, o.duration, o.addr)
	fmt.Fprintf(out, "throughput: %.0f ops/s (%d reads, %d writes, %d errors)\n",
		float64(total)/r.elapsed.Seconds(), r.reads.Load(), r.writes.Load(), r.errors.Load())
	r.reportCauses(out)
	for _, f := range r.failures {
		fmt.Fprintf(out, "error: %s\n", f)
	}
	err := r.readLat.WriteSummary(out, "read")
	if err == nil && r.writeLat.Count() > 0 {
		err = r.writeLat.WriteSummary(out, "write")
	}
	if err == nil && r.reads.Load() > 0 {
		_, err = fmt.Fprintf(out, "cache: %.1f%% of reads served locally, %d invalidations received\n",
			100*float64(r.localReads)/float64(r.localReads+r.serverReads), r.invalidations)
	}
	if err != nil {
		return err
	}
	rep := history.Check(r.logs...)
	fmt.Fprintln(out, rep)
	if rep.Slowest.Write {
		fmt.Fprintf(out, "longest write wait: %v, %v\n", rep.Wait, rep.Slowest)
	}
	for _, a := range rep.Anomalies[:min(len(rep.Anomalies), keptFailures)] {
		fmt.Fprintf(out, "anomaly: %v\n", a)
	}
	return rep.Err()
}

// reportCauses prints the error count of each cause, most frequent first;
// past keptFailures causes the rest are summed on one line.
func (r *result) reportCauses(out io.Writer) {
	causes := make([]string, 0, len(r.causes))
	for c := range r.causes {
		causes = append(causes, c)
	}
	slices.SortFunc(causes, func(a, b string) int {
		if d := r.causes[b] - r.causes[a]; d != 0 {
			return int(d)
		}
		return strings.Compare(a, b)
	})
	var rest int64
	for i, c := range causes {
		if i < keptFailures {
			fmt.Fprintf(out, "errors: %d %s\n", r.causes[c], c)
		} else {
			rest += r.causes[c]
		}
	}
	if rest > 0 {
		fmt.Fprintf(out, "errors: %d in %d more causes\n", rest, len(causes)-keptFailures)
	}
}
