package main

import (
	"time"

	"repro/internal/wire"
)

// Fixed shape of every workload. Nothing here is a flag: a run that wants a
// different shape is a different benchmark.
const (
	drivers          = 2    // closed-loop load goroutines; this machine has 2 cores
	payloadBytes     = 256  // every object body
	probeObjects     = 64   // per driver, read-only workloads only (see topology.probe)
	traceProbeCycles = 2048 // per driver, traced run of a read-only workload
	segments         = 5    // timed segments per run; reported values are their median
	longLease        = 10 * time.Minute
)

// spec is one workload: a topology and the scripted cycle each driver
// repeats on its next object — every reader Reads it, then (writes) the
// driver's writer Writes it. Readers other than the driver's own client are
// passive: they acknowledge invalidations and are re-read, nothing else.
type spec struct {
	name string
	why  string

	objectLease time.Duration
	skew        time.Duration // client Skew; 0 keeps the client default
	volumes     int           // 2: one per driver; 1: both drivers on one shard
	hot         int           // objects per driver in the timed loop
	readers     int           // shared reader clients; 0: each driver reads with its own client
	proxy       bool          // clients dial a proxy in front of the origin
	writes      bool          // the timed cycle ends with a Write
	sampleMask  int           // time one cycle in sampleMask+1
	traceCycles int           // cycles per driver in the traced run
}

// hits reports whether the timed cycle is served from the clients' caches:
// leases outlive the run and nothing invalidates them.
func (s *spec) hits() bool { return !s.writes && s.objectLease == longLease }

// opsPerCycle is the number of client operations one timed cycle completes.
func (s *spec) opsPerCycle() int {
	n := s.readers
	if n == 0 {
		n = 1
	}
	if s.writes {
		n++
	}
	return n
}

var specs = []*spec{
	{
		name: "read_hit",
		why:  "valid-lease reads served by the client alone; bypass workload for any server, wire, transport or proxy change",

		objectLease: longLease, volumes: 2, hot: 1024,
		sampleMask: 63, traceCycles: 2000000,
	},
	{
		name: "lease_miss",
		why:  "every read finds its object lease expired: one ReqObjLease/ObjLease round trip, no data, no fan-out, no shard contention",

		objectLease: 40 * time.Millisecond, skew: 5 * time.Millisecond, volumes: 2, hot: 8192,
		traceCycles: 20000,
	},
	{
		name: "write_fanout",
		why:  "8 holders re-read, then a write invalidates exactly 8 leases and waits for 8 acks, on one hot shard; the paper's write delay",

		objectLease: longLease, volumes: 1, hot: 256, readers: 8, writes: true,
		traceCycles: 2500,
	},
	{
		name: "proxy_chain",
		why:  "4 leaf reads (1 two-hop miss, 3 proxy hits) then a write forwarded through the proxy; the only workload with the proxy on the path",

		objectLease: longLease, volumes: 1, hot: 256, readers: 4, proxy: true, writes: true,
		traceCycles: 4000,
	},
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

// metric is one reported number; the smoke test checks every unit against
// BENCHMARK.json.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the bounded end-to-end metrics in print order. Latency is
// bounded as a mean: on this host p50 and p95 of identical runs range too
// widely to carry a bound (README, Results), so they are driver.* rows, as
// p99 is. failed_frac is carried by the result's attempted/failed/correct
// fields because it must be exactly 0.
var endToEnd = []struct{ name, unit string }{
	{"ops_per_s", "1/s"},
	{"read_mean_us", "us"},
	{"write_mean_us", "us"},
	{"setup_s", "s"},
}

// percentiles are the per-segment latency percentiles, reported as the
// driver layer's rows (median over the segments) beside the pooled p99.
var percentiles = []string{"read_p50_us", "read_p95_us", "write_p50_us", "write_p95_us"}

// wireKinds are the six message kinds the workloads put on the wire.
var wireKinds = []wire.Kind{
	wire.KindReqObjLease, wire.KindObjLease, wire.KindInvalidate,
	wire.KindAckInvalidate, wire.KindWriteReq, wire.KindWriteReply,
}

// proxyOnly are per-layer metrics that exist on proxy_chain alone; they are
// left out of the other workloads' results instead of being reported as 0.
var proxyOnly = map[string]bool{
	"proxy.hit_turnaround_us":  true,
	"proxy.miss_turnaround_us": true,
	"proxy.inval_relay_us":     true,
	"proxy.write_forward_us":   true,
}
