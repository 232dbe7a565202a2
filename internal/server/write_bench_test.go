package server_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/transport"
)

// BenchmarkConcurrentWrites measures write throughput against the number of
// volumes. Each volume holds one object cached by one lease-holding client,
// and the in-memory network carries a fixed per-message latency — so every
// write must wait a real invalidate/ack round trip, exactly the regime the
// paper's blocking writes live in. Throughput then scales with the number
// of independent write pipelines: with one volume every write serializes
// behind the same object's round trip; with 16, the ack waits overlap. The
// scaling is latency-driven, not CPU-driven, so the curve shows up even on
// a single-core runner (GOMAXPROCS=1). Before the sharding work, the global
// write mutex flattened this curve: every write serialized regardless of
// volume count.
func BenchmarkConcurrentWrites(b *testing.B) {
	for _, vols := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("vols=%d", vols), func(b *testing.B) {
			benchConcurrentWrites(b, vols)
		})
	}
}

func benchConcurrentWrites(b *testing.B, vols int) {
	const latency = 2 * time.Millisecond
	net := transport.NewMemory()
	srv, err := server.New(server.Config{
		Name: "bench",
		Addr: "bench:1",
		Net:  net,
		Table: core.Config{
			ObjectLease: time.Hour,
			VolumeLease: time.Hour,
			Mode:        core.ModeEager,
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	clients := make([]*client.Client, vols)
	for i := 0; i < vols; i++ {
		vid := core.VolumeID(fmt.Sprintf("vol-%d", i))
		oid := core.ObjectID(fmt.Sprintf("obj-%d", i))
		if err := srv.AddVolume(vid); err != nil {
			b.Fatal(err)
		}
		if err := srv.AddObject(vid, oid, []byte("init")); err != nil {
			b.Fatal(err)
		}
		cl, err := client.Dial(net, "bench:1", client.Config{
			ID:   core.ClientID(fmt.Sprintf("c-%d", i)),
			Skew: time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer cl.Close()
		if _, err := cl.Read(vid, oid); err != nil {
			b.Fatal(err)
		}
		clients[i] = cl
	}

	// Latency goes live only after setup so lease acquisition stays cheap.
	net.SetLatency(latency)
	defer net.SetLatency(0)

	payload := []byte("payload")
	var next atomic.Int64
	b.SetParallelism(vols) // one worker per volume at GOMAXPROCS=1
	b.ResetTimer()
	start := time.Now()
	b.RunParallel(func(pb *testing.PB) {
		slot := int(next.Add(1)-1) % vols
		vid := core.VolumeID(fmt.Sprintf("vol-%d", slot))
		oid := core.ObjectID(fmt.Sprintf("obj-%d", slot))
		cl := clients[slot]
		for pb.Next() {
			// Re-arm the lease so the write below has a holder to
			// invalidate; contention errors (another worker on the same
			// slot racing the invalidation) only mean a cheaper write.
			_, _ = cl.Read(vid, oid)
			if _, _, err := srv.Write(oid, payload); err != nil {
				b.Error(err)
				return
			}
		}
	})
	elapsed := time.Since(start)
	b.StopTimer()
	if s := elapsed.Seconds(); s > 0 {
		b.ReportMetric(float64(b.N)/s, "writes/s")
	}
}

// BenchmarkWireWrite prices one client write over the wire to an object
// with one lease holder: the WriteReq, the server's write state, the
// Invalidate and its ack, and the WriteReply, on the in-memory network with
// no latency. Each iteration first re-leases the holder's copy with the
// timer stopped, so the row is the write alone. `make bench-wirepath` holds
// its allocs/op at WIRE_WRITE_ALLOCS.
func BenchmarkWireWrite(b *testing.B) {
	net := transport.NewMemory()
	srv, err := server.New(server.Config{
		Name: "bench", Addr: "bench:1", Net: net,
		Table: core.Config{ObjectLease: time.Hour, VolumeLease: time.Hour, Mode: core.ModeEager},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	if err := srv.AddVolume("vol"); err != nil {
		b.Fatal(err)
	}
	if err := srv.AddObject("vol", "a", []byte("init")); err != nil {
		b.Fatal(err)
	}
	var holder, writer *client.Client
	for _, c := range []**client.Client{&holder, &writer} {
		id := core.ClientID("holder")
		if c == &writer {
			id = "writer"
		}
		if *c, err = client.Dial(net, "bench:1", client.Config{ID: id}); err != nil {
			b.Fatal(err)
		}
		defer (*c).Close()
	}
	payload := []byte("payload")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if _, err := holder.Read("vol", "a"); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, _, err := writer.Write("a", payload); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if _, _, invals := holder.Stats(); invals != int64(b.N) {
		b.Fatalf("%d invalidations in %d writes: a write found no holder", invals, b.N)
	}
}
