package transport

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

// benchPair builds a connected loopback-TCP pair for benchmarks.
func benchPair(b *testing.B, n Network) (client, server Conn, cleanup func()) {
	b.Helper()
	l, err := n.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatalf("Listen: %v", err)
	}
	var (
		srv Conn
		wg  sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv, _ = l.Accept()
	}()
	cli, err := n.Dial(l.Addr())
	if err != nil {
		b.Fatalf("Dial: %v", err)
	}
	wg.Wait()
	if srv == nil {
		b.Fatal("Accept returned nil")
	}
	return cli, srv, func() {
		cli.Close()
		srv.Close()
		l.Close()
	}
}

// benchSendMessages is the grant/renew/invalidate steady state of a lease
// server: the three kinds that dominate wire traffic in the paper's
// evaluation.
func benchSendMessages() []struct {
	name string
	m    wire.Message
} {
	expire := time.Unix(1000, 0)
	return []struct {
		name string
		m    wire.Message
	}{
		{"grant", wire.ObjLease{Seq: 42, Object: "vol-3/obj-100", Version: 8, Expire: expire, HasData: true, Data: make([]byte, 256)}},
		{"renew", wire.VolLease{Seq: 43, Volume: "vol-3", Expire: expire, Epoch: 5}},
		{"invalidate", wire.Invalidate{Seq: 0, Objects: []core.ObjectID{"vol-3/obj-100", "vol-3/obj-101"}, Trace: wire.TraceContext{TraceID: 9, SpanID: 4}}},
	}
}

// drainRaw reads count raw pooled frames off srv without decoding them —
// the number under test is the transport's own overhead — and reports on
// the returned channel.
func drainRaw(srv Conn, count int) <-chan error {
	br := srv.(*tcpConn).br
	done := make(chan error, 1)
	go func() {
		for i := 0; i < count; i++ {
			buf, err := wire.ReadFrameBuf(br)
			if err != nil {
				done <- err
				return
			}
			buf.Release()
		}
		done <- nil
	}()
	return done
}

// runSendBench pushes b.N frames of m through a fresh connection pair and
// waits for the receiver to drain them all, so ns/op measures delivered
// throughput (not just enqueue cost) and allocs/op covers both endpoints.
func runSendBench(b *testing.B, n Network, m wire.Message) {
	cli, srv, cleanup := benchPair(b, n)
	defer cleanup()
	count := b.N
	done := drainRaw(srv, count)
	b.ReportAllocs()
	b.SetBytes(int64(wire.Size(m)) + 4) // body + frame header
	b.ResetTimer()
	for i := 0; i < count; i++ {
		if err := cli.Send(m); err != nil {
			b.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		b.Fatal(err)
	}
}

// runSendBenchParallel is runSendBench with GOMAXPROCS sender goroutines
// sharing the one connection — the shape of a loaded lease server fanning
// invalidations and grants to a proxy; the batcher coalesces across
// senders.
func runSendBenchParallel(b *testing.B, n Network, m wire.Message) {
	cli, srv, cleanup := benchPair(b, n)
	defer cleanup()
	done := drainRaw(srv, b.N)
	b.ReportAllocs()
	b.SetBytes(int64(wire.Size(m)) + 4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := cli.Send(m); err != nil {
				b.Error(err)
				return
			}
		}
	})
	if err := <-done; err != nil {
		b.Fatal(err)
	}
}

// BenchmarkBatchedSend is the batcher's hot-path gate: grant, renew, and
// invalidate frames through one batched TCP connection must show 0
// allocs/op at steady state (`make bench-wirepath`).
func BenchmarkBatchedSend(b *testing.B) {
	for _, c := range benchSendMessages() {
		c := c
		b.Run(c.name, func(b *testing.B) { runSendBench(b, TCP{}, c.m) })
	}
}

// BenchmarkBatchedSendParallel measures the same path under concurrent
// senders.
func BenchmarkBatchedSendParallel(b *testing.B) {
	for _, c := range benchSendMessages() {
		c := c
		b.Run(c.name, func(b *testing.B) { runSendBenchParallel(b, TCP{}, c.m) })
	}
}

// BenchmarkTapDisabled gates the tap's disabled path (`make
// bench-disabled`): with no tap attached, what Send adds to encode-and-queue
// and Recv to read-and-decode is one nil check — 0 B/op, 0 allocs/op. Memory
// is the transport under test because its Send and Recv do nothing else that
// could allocate.
func BenchmarkTapDisabled(b *testing.B) {
	n := NewMemory()
	l, err := n.Listen("srv:1")
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	cli, err := n.Dial("srv:1")
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()
	srv, err := l.Accept()
	if err != nil {
		b.Fatal(err)
	}
	var m wire.Message = wire.VolLease{Seq: 43, Volume: "vol-3", Epoch: 5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cli.Send(m); err != nil {
			b.Fatal(err)
		}
		if _, err := srv.Recv(); err != nil {
			b.Fatal(err)
		}
	}
}
