package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
)

// runOpts sizes one measurement. The contract run, the full run and the
// smoke test differ only here.
type runOpts struct {
	seconds float64 // total timed seconds, split into `segments` segments
	scale   float64 // traced run: fraction of each spec's traceCycles
	outDir  string  // traced run: where trace-<workload>.jsonl goes; "" skips it
}

// guard is one workload-shape check. A failed guard invalidates the run: the
// traffic was not the traffic the workload's name promises.
type guard struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// untraced is the result of a run with tracing off: the end-to-end metrics,
// plus the driver layer's numbers that cost nothing to take alongside
// (latency percentiles, process costs, cache behaviour).
type untraced struct {
	endToEnd  map[string]metric
	series    map[string][]float64 // throughput, latency statistics and set-up time, segment by segment
	driver    map[string]metric
	attempted uint64
	failed    uint64
	guards    []guard
}

func (u *untraced) val(name string) float64 { return u.endToEnd[name].Value }

// processCounters are the process-wide costs charged to the driver layer.
type processCounters struct {
	cpu            time.Duration
	mallocs, bytes uint64
	gcs            uint32
}

func (p processCounters) sub(o processCounters) processCounters {
	return processCounters{p.cpu - o.cpu, p.mallocs - o.mallocs, p.bytes - o.bytes, p.gcs - o.gcs}
}

func (p *processCounters) add(o processCounters) {
	p.cpu, p.mallocs, p.bytes, p.gcs = p.cpu+o.cpu, p.mallocs+o.mallocs, p.bytes+o.bytes, p.gcs+o.gcs
}

func readProcessCounters() processCounters {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return processCounters{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcs: ms.NumGC,
	}
}

// runUntraced measures `segments` segments, each on a topology of its own:
// build and warm (setup_s), one untimed stretch, the timed segment. On
// read-only workloads `segments` probe stretches follow on the last
// topology, a quarter as long each. Every end-to-end value is the median
// over its segments.
//
// The probe comes last because its traffic outlives it — every RPC leaves a
// client timeout timer pending for 10 s — and would slow the next timed
// segment (read_hit loses 8 % after one second of probe). It is as long as
// it is because latency on this 2-core host wanders by tens of percent with
// a correlation time near a second.
func runUntraced(s *spec, seed int64, opt runOpts) (*untraced, error) {
	segDur := time.Duration(opt.seconds / segments * float64(time.Second))
	// The untimed stretch lets lazy set-up finish and, on lease_miss,
	// outlasts every lease the warm-up pass granted.
	untimed := segDur / 8
	if min := s.objectLease + 10*time.Millisecond; untimed < min && s.objectLease < longLease {
		untimed = min
	}

	var setups, rate, rmean, rp50, rp95, wmean, wp50, wp95 []float64
	var total segStats // every operation, for attempted and failed
	var all segStats   // every timed operation, for the p99s and sample counts
	var local, viaServer int64
	var t *topology
	defer func() {
		if t != nil {
			t.close()
		}
	}()
	var used processCounters
	for seg := 0; seg < segments; seg++ {
		if t != nil {
			t.close()
		}
		start := time.Now()
		var err error
		if t, err = build(s, seed, nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		t.stretch(&t.hot, untimed, s.sampleMask, &total)

		before := readProcessCounters()
		l0, s0 := t.readCounts()
		st, elapsed := t.stretch(&t.hot, segDur, s.sampleMask, &total)
		l1, s1 := t.readCounts()
		used.add(readProcessCounters().sub(before))
		local, viaServer = local+l1-l0, viaServer+s1-s0
		all.merge(&st)
		rate = append(rate, float64(st.ops)/elapsed.Seconds())
		rmean = append(rmean, st.readH.mean()/1e3)
		rp50 = append(rp50, st.readH.quantile(0.50)/1e3)
		rp95 = append(rp95, st.readH.quantile(0.95)/1e3)
		if s.writes {
			wmean = append(wmean, st.writeH.mean()/1e3)
			wp50 = append(wp50, st.writeH.quantile(0.50)/1e3)
			wp95 = append(wp95, st.writeH.quantile(0.95)/1e3)
		}
	}
	before := readProcessCounters()
	for seg := 0; !s.writes && seg < segments; seg++ {
		st, _ := t.stretch(&t.probe, segDur/4, 0, &total)
		all.ops += st.ops
		all.writeH.merge(&st.writeH) // probe reads are not this workload's reads
		wmean = append(wmean, st.writeH.mean()/1e3)
		wp50 = append(wp50, st.writeH.quantile(0.50)/1e3)
		wp95 = append(wp95, st.writeH.quantile(0.95)/1e3)
	}
	used.add(readProcessCounters().sub(before))

	u := &untraced{
		endToEnd: map[string]metric{},
		series: map[string][]float64{
			"ops_per_s": rate, "read_mean_us": rmean, "read_p50_us": rp50, "read_p95_us": rp95,
			"write_mean_us": wmean, "write_p50_us": wp50, "write_p95_us": wp95, "setup_s": setups,
		},
		attempted: total.ops,
		failed:    total.failed,
	}
	// median sorts in place; the series keeps run order.
	over := func(name string) float64 { return median(append([]float64(nil), u.series[name]...)) }
	for _, m := range endToEnd {
		u.endToEnd[m.name] = metric{over(m.name), m.unit}
	}
	n := float64(all.ops)
	hitShare := float64(local) / float64(local+viaServer)
	u.driver = map[string]metric{
		"driver.cpu_us_per_op":      {float64(used.cpu) / 1e3 / n, "us"},
		"driver.allocs_per_op":      {float64(used.mallocs) / n, "count"},
		"driver.alloc_bytes_per_op": {float64(used.bytes) / n, "B"},
		"driver.gc_cycles":          {float64(used.gcs), "count"},
		"driver.read_p99_us":        {all.readH.quantile(0.99) / 1e3, "us"},
		"driver.write_p99_us":       {all.writeH.quantile(0.99) / 1e3, "us"},
		"driver.read_samples":       {float64(all.readH.n), "count"},
		"driver.write_samples":      {float64(all.writeH.n), "count"},
		"driver.hit_share":          {hitShare, "frac"},
	}
	for _, name := range percentiles {
		u.driver["driver."+name] = metric{over(name), "us"}
	}
	u.guards = append(u.guards, hitShareGuard(s, hitShare))
	return u, nil
}

// stretch runs both drivers on their lanes for dur and returns the merged
// statistics with the wall time from the common start to the last driver's
// exit. It also folds them into total.
func (t *topology) stretch(lanes *[drivers]lane, dur time.Duration, mask int, total *segStats) (segStats, time.Duration) {
	deadline := nowNs() + int64(dur)
	return t.both(lanes, total, func(int) loopOpts { return loopOpts{deadlineNs: deadline, sampleMask: mask} })
}

// both runs each driver's loop with the options opt gives it.
func (t *topology) both(lanes *[drivers]lane, total *segStats, opt func(d int) loopOpts) (segStats, time.Duration) {
	var st [drivers]segStats
	start := nowNs()
	t.parallel(func(d int) { t.run(d, &lanes[d], opt(d), &st[d]) })
	var sum segStats
	for d := range st {
		sum.merge(&st[d])
	}
	total.merge(&sum)
	return sum, time.Duration(sum.endNs - start)
}

// hitShareGuard pins each workload's cache behaviour: read_hit must stay
// local, lease_miss must never be, and the scripted write cycles re-read
// after every invalidation so none of their reads is local either.
func hitShareGuard(s *spec, share float64) guard {
	if s.hits() {
		return guard{"driver.hit_share", share >= 0.999, fmt.Sprintf("%.5f >= 0.999", share)}
	}
	return guard{"driver.hit_share", share <= 0.01, fmt.Sprintf("%.5f <= 0.01", share)}
}
