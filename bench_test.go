// Package repro's top-level benchmarks regenerate every table and figure of
// the paper's evaluation (run with `go test -bench=. -benchmem`):
//
//	BenchmarkTable1  — the six algorithms' message costs on the default workload
//	BenchmarkFig5    — messages vs object timeout for all families
//	BenchmarkFig6/7  — server consistency state at the 1st/10th most popular server
//	BenchmarkFig8/9  — burst-load histograms under default/bursty writes
//
// The reported custom metrics (msgs, bytes, stale-rate, state-bytes,
// peak-load) are the paper's y-axes; see EXPERIMENTS.md for the
// paper-vs-measured comparison.
package repro

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/obs"
	"repro/internal/proxy"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// BenchmarkTable1 exercises each Table 1 algorithm on the default workload
// and reports the headline metrics per algorithm.
func BenchmarkTable1(b *testing.B) {
	w := bench.DefaultWorkload(bench.ScaleSmall)
	specs := []bench.Spec{
		bench.PollEachRead(),
		bench.Poll(100000),
		bench.Callback(),
		bench.Lease(100000),
		bench.Volume(10, 100000),
		bench.Delay(10, 100000),
	}
	for _, spec := range specs {
		b.Run(spec.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rec, _ := bench.Run(w, spec)
				tot := rec.Totals()
				b.ReportMetric(float64(tot.Messages), "msgs")
				b.ReportMetric(float64(tot.Bytes), "bytes")
				b.ReportMetric(rec.StaleRate(), "stale-rate")
			}
		})
	}
}

// BenchmarkFig5 regenerates Figure 5: total messages vs object timeout.
func BenchmarkFig5(b *testing.B) {
	w := bench.DefaultWorkload(bench.ScaleSmall)
	for i := 0; i < b.N; i++ {
		series, stale := bench.Fig5(w, bench.DefaultTimeouts)
		if len(series) == 0 || len(stale.Y) == 0 {
			b.Fatal("empty figure")
		}
	}
	b.ReportMetric(float64(len(bench.DefaultTimeouts)*len(bench.Fig5Families())), "sims/op")
}

// BenchmarkFig5Callouts reproduces the paper's headline percentages: the
// best volume/delay configurations against Lease at fixed write-delay
// bounds of 10s and 100s.
func BenchmarkFig5Callouts(b *testing.B) {
	w := bench.DefaultWorkload(bench.ScaleSmall)
	for i := 0; i < b.N; i++ {
		for _, bound := range []float64{10, 100} {
			cs := bench.Callouts(w, bound, bench.DefaultTimeouts)
			for _, c := range cs {
				b.ReportMetric(c.Saving*100, fmt.Sprintf("saving-%%@%gs-%s", bound, shortName(c.Name)))
			}
		}
	}
}

func shortName(s string) string {
	if len(s) > 6 && s[:6] == "Volume" {
		return "volume"
	}
	return "delay"
}

// BenchmarkFig6 regenerates Figure 6: average consistency state at the most
// popular server vs timeout.
func BenchmarkFig6(b *testing.B) {
	benchFigState(b, 0)
}

// BenchmarkFig7 regenerates Figure 7: state at the 10th most popular server.
func BenchmarkFig7(b *testing.B) {
	benchFigState(b, 9)
}

func benchFigState(b *testing.B, rank int) {
	w := bench.DefaultWorkload(bench.ScaleSmall)
	for i := 0; i < b.N; i++ {
		series := bench.FigState(w, bench.DefaultTimeouts, rank)
		if len(series) == 0 {
			b.Fatal("empty figure")
		}
		for _, s := range series {
			b.ReportMetric(s.Y[len(s.Y)-1], "state-bytes-"+s.Label)
		}
	}
}

// BenchmarkFig8 regenerates Figure 8: burst-load histogram under the
// default write workload.
func BenchmarkFig8(b *testing.B) {
	benchFigLoad(b, bench.DefaultWorkload(bench.ScaleSmall))
}

// BenchmarkFig9 regenerates Figure 9: burst-load histogram under the bursty
// write workload.
func BenchmarkFig9(b *testing.B) {
	benchFigLoad(b, bench.BurstyWorkload(bench.ScaleSmall))
}

func benchFigLoad(b *testing.B, w bench.Workload) {
	for i := 0; i < b.N; i++ {
		for _, spec := range bench.Fig8Specs() {
			b.ReportMetric(float64(bench.PeakLoad(w, spec)), "peak-load-"+spec.Name())
		}
	}
}

// BenchmarkSimulatorThroughput measures raw event-processing speed of the
// simulation engine with the cheapest algorithm.
func BenchmarkSimulatorThroughput(b *testing.B) {
	w := bench.DefaultWorkload(bench.ScaleSmall)
	b.ResetTimer()
	var events int
	for i := 0; i < b.N; i++ {
		_, res, err := sim.Simulate(w.Trace, func(env *sim.Env) sim.Algorithm {
			return bench.Callback().New(env)
		})
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkServerCachedRead measures end-to-end read latency of the
// networked stack over the in-memory transport when the cache is warm (the
// common case: both leases valid, zero server messages).
func BenchmarkServerCachedRead(b *testing.B) {
	net := transport.NewMemory()
	srv, err := server.New(server.Config{
		Name: "srv", Addr: "srv:1", Net: net,
		Table: core.Config{ObjectLease: time.Hour, VolumeLease: time.Hour, Mode: core.ModeEager},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	if err := srv.AddVolume("v"); err != nil {
		b.Fatal(err)
	}
	if err := srv.AddObject("v", "o", make([]byte, 4096)); err != nil {
		b.Fatal(err)
	}
	cl, err := client.Dial(net, "srv:1", client.Config{ID: "c"})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Read("v", "o"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Read("v", "o"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerCachedReadObserved is BenchmarkServerCachedRead with the
// full observability stack attached — metrics registry, event tracing into
// a counting sink, and per-kind cost accounting on the tap — so the delta against the
// bare benchmark is the live cost of instrumentation (the bare run pays
// only nil checks; see internal/obs BenchmarkEmitDisabled).
func BenchmarkServerCachedReadObserved(b *testing.B) {
	reg := obs.NewRegistry()
	observer := &obs.Observer{Metrics: reg, Tracer: obs.NewTracer(obs.NewCountSink())}
	net := transport.NewMemory()
	acct := cost.New("srv", time.Now)
	acct.Register(reg)
	net.Taps = []transport.Tap{acct}
	srv, err := server.New(server.Config{
		Name: "srv", Addr: "srv:1", Net: net, Obs: observer,
		Table: core.Config{ObjectLease: time.Hour, VolumeLease: time.Hour, Mode: core.ModeEager},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	if err := srv.AddVolume("v"); err != nil {
		b.Fatal(err)
	}
	if err := srv.AddObject("v", "o", make([]byte, 4096)); err != nil {
		b.Fatal(err)
	}
	cl, err := client.Dial(net, "srv:1", client.Config{ID: "c", Obs: observer})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Read("v", "o"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Read("v", "o"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObjectLeaseRenewalRPC measures the object-lease renewal round
// trip at the protocol level (the Lease algorithm's 1/(R*t) cost made
// concrete): a raw ReqObjLease/ObjLease exchange with the client's version
// current, so no payload moves.
func BenchmarkObjectLeaseRenewalRPC(b *testing.B) {
	net := transport.NewMemory()
	srv, err := server.New(server.Config{
		Name: "srv", Addr: "srv:1", Net: net,
		Table: core.Config{ObjectLease: time.Hour, VolumeLease: time.Hour, Mode: core.ModeEager},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	if err := srv.AddVolume("v"); err != nil {
		b.Fatal(err)
	}
	if err := srv.AddObject("v", "o", make([]byte, 512)); err != nil {
		b.Fatal(err)
	}
	conn, err := net.DialFrom("bench", "srv:1")
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(wire.Hello{Client: "bench"}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := conn.Send(wire.ReqObjLease{Seq: uint64(i + 1), Object: "o", Version: 1}); err != nil {
			b.Fatal(err)
		}
		m, err := conn.Recv()
		if err != nil {
			b.Fatal(err)
		}
		if lease, ok := m.(wire.ObjLease); !ok || lease.HasData {
			b.Fatalf("unexpected reply %#v", m)
		}
	}
}

// BenchmarkWriteInvalidation measures the full write path: invalidate one
// connected lease holder, collect its ack, install the data.
func BenchmarkWriteInvalidation(b *testing.B) {
	net := transport.NewMemory()
	srv, err := server.New(server.Config{
		Name: "srv", Addr: "srv:1", Net: net,
		Table: core.Config{ObjectLease: time.Hour, VolumeLease: time.Hour, Mode: core.ModeEager},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	if err := srv.AddVolume("v"); err != nil {
		b.Fatal(err)
	}
	if err := srv.AddObject("v", "o", []byte("x")); err != nil {
		b.Fatal(err)
	}
	cl, err := client.Dial(net, "srv:1", client.Config{ID: "c"})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	payload := make([]byte, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Re-arm the lease, then write (which revokes it).
		if _, err := cl.Read("v", "o"); err != nil {
			b.Fatal(err)
		}
		if _, _, err := srv.Write("o", payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkloadGeneration measures synthetic trace generation speed.
func BenchmarkWorkloadGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := bench.DefaultWorkload(bench.ScaleSmall)
		if len(w.Trace) == 0 {
			b.Fatal("empty workload")
		}
	}
}

// BenchmarkTraceSort measures trace merge/sort speed on the full workload.
func BenchmarkTraceSort(b *testing.B) {
	w := bench.DefaultWorkload(bench.ScaleSmall)
	orig := make(trace.Trace, len(w.Trace))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(orig, w.Trace)
		orig.Sort()
	}
}

// BenchmarkAblationDSweep quantifies the Delay discard-time trade-off the
// paper left unmeasured: messages and reconnections vs d.
func BenchmarkAblationDSweep(b *testing.B) {
	w := bench.DefaultWorkload(bench.ScaleSmall)
	for i := 0; i < b.N; i++ {
		points := bench.DSweep(w, 10, 1e6, []float64{60, 3600, 1e18})
		for _, p := range points {
			name := fmt.Sprintf("msgs@d=%g", p.D)
			if p.D > 1e17 {
				name = "msgs@d=inf"
			}
			b.ReportMetric(float64(p.Messages), name)
		}
	}
}

// BenchmarkAblationTVSweep measures the volume-lease-length trade-off.
func BenchmarkAblationTVSweep(b *testing.B) {
	w := bench.DefaultWorkload(bench.ScaleSmall)
	for i := 0; i < b.N; i++ {
		for _, p := range bench.TVSweep(w, 1e6, []float64{10, 100, 1000}) {
			b.ReportMetric(float64(p.Messages), fmt.Sprintf("msgs@tv=%g", p.TV))
		}
	}
}

// BenchmarkAblationLocality measures volume-lease savings vs read-burst
// size.
func BenchmarkAblationLocality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, p := range bench.LocalitySweep([]float64{0, 3, 7}) {
			b.ReportMetric(p.Saving*100, fmt.Sprintf("saving%%@%.0fobj", p.ObjectsPerView))
		}
	}
}

// BenchmarkProxyCachedRead measures a warm read against a hierarchical
// proxy (both sub-leases valid; zero messages anywhere).
func BenchmarkProxyCachedRead(b *testing.B) {
	net := transport.NewMemory()
	origin, err := server.New(server.Config{
		Name: "origin", Addr: "origin:1", Net: net,
		Table: core.Config{ObjectLease: time.Hour, VolumeLease: time.Hour, Mode: core.ModeEager},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer origin.Close()
	if err := origin.AddVolume("v"); err != nil {
		b.Fatal(err)
	}
	if err := origin.AddObject("v", "o", make([]byte, 4096)); err != nil {
		b.Fatal(err)
	}
	px, err := proxy.New(proxy.Config{
		ID: "px", Addr: "px:1", Net: net, Upstream: "origin:1", Volume: "v",
		SubObjectLease: time.Hour, SubVolumeLease: time.Hour,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer px.Close()
	cl, err := client.Dial(net, "px:1", client.Config{ID: "leaf"})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Read("v", "o"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Read("v", "o"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProxyWriteFanout measures an origin write that must invalidate
// one leaf through a proxy (two-level ack chain).
func BenchmarkProxyWriteFanout(b *testing.B) {
	net := transport.NewMemory()
	origin, err := server.New(server.Config{
		Name: "origin", Addr: "origin:1", Net: net,
		Table: core.Config{ObjectLease: time.Hour, VolumeLease: time.Hour, Mode: core.ModeEager},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer origin.Close()
	if err := origin.AddVolume("v"); err != nil {
		b.Fatal(err)
	}
	if err := origin.AddObject("v", "o", []byte("x")); err != nil {
		b.Fatal(err)
	}
	px, err := proxy.New(proxy.Config{
		ID: "px", Addr: "px:1", Net: net, Upstream: "origin:1", Volume: "v",
		SubObjectLease: time.Hour, SubVolumeLease: time.Hour,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer px.Close()
	cl, err := client.Dial(net, "px:1", client.Config{ID: "leaf"})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	payload := make([]byte, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Read("v", "o"); err != nil {
			b.Fatal(err)
		}
		if _, _, err := origin.Write("o", payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProxyWriteFanoutWide is BenchmarkProxyWriteFanout with more than
// one invalidation per proxy round. objects=16: one leaf caches 16 objects
// and the origin writes all 16 without waiting in between, so the proxy has
// 16 invalidations for one connection in flight together. leaves=16: 16
// leaves cache one object and a single origin write fans out to all of
// them. ns/op is one whole iteration (the re-reads plus the writes).
func BenchmarkProxyWriteFanoutWide(b *testing.B) {
	for _, shape := range []struct {
		name            string
		objects, leaves int
	}{{"objects=16", 16, 1}, {"leaves=16", 1, 16}} {
		b.Run(shape.name, func(b *testing.B) { benchProxyWriteFanoutWide(b, shape.objects, shape.leaves) })
	}
}

func benchProxyWriteFanoutWide(b *testing.B, objects, leaves int) {
	net := transport.NewMemory()
	origin, err := server.New(server.Config{
		Name: "origin", Addr: "origin:1", Net: net,
		Table: core.Config{ObjectLease: time.Hour, VolumeLease: time.Hour, Mode: core.ModeEager},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer origin.Close()
	if err := origin.AddVolume("v"); err != nil {
		b.Fatal(err)
	}
	oids := make([]core.ObjectID, objects)
	for i := range oids {
		oids[i] = core.ObjectID(fmt.Sprintf("o%d", i))
		if err := origin.AddObject("v", oids[i], []byte("x")); err != nil {
			b.Fatal(err)
		}
	}
	px, err := proxy.New(proxy.Config{
		ID: "px", Addr: "px:1", Net: net, Upstream: "origin:1", Volume: "v",
		SubObjectLease: time.Hour, SubVolumeLease: time.Hour,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer px.Close()
	cls := make([]*client.Client, leaves)
	for i := range cls {
		cls[i], err = client.Dial(net, "px:1", client.Config{ID: core.ClientID(fmt.Sprintf("leaf%d", i))})
		if err != nil {
			b.Fatal(err)
		}
		defer cls[i].Close()
	}
	payload := make([]byte, 1024)
	errs := make(chan error, objects)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cl := range cls {
			for _, oid := range oids {
				if _, err := cl.Read("v", oid); err != nil {
					b.Fatal(err)
				}
			}
		}
		for _, oid := range oids {
			go func(oid core.ObjectID) {
				_, _, err := origin.Write(oid, payload)
				errs <- err
			}(oid)
		}
		for range oids {
			if err := <-errs; err != nil {
				b.Fatal(err)
			}
		}
	}
}
