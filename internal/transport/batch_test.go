package transport

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

// TestTCPCloseFlushesQueued is the flush-then-close regression test: every
// frame accepted by Send before Close must reach the peer, even when Close
// fires before the flusher has woken up. The old implementation discarded
// the buffered writer's contents on close.
func TestTCPCloseFlushesQueued(t *testing.T) {
	const n = 500
	cli, srv, cleanup := pair(t, TCP{}, "127.0.0.1:0")
	defer cleanup()

	for i := 0; i < n; i++ {
		if err := cli.Send(wire.ReqObjLease{Seq: uint64(i + 1), Object: "o"}); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	if err := cli.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for i := 0; i < n; i++ {
		m, err := recvTimeout(srv, 5*time.Second)
		if err != nil {
			t.Fatalf("Recv %d (after sender close): %v", i, err)
		}
		if got := m.Sequence(); got != uint64(i+1) {
			t.Fatalf("frame %d: seq %d (reordered or lost)", i, got)
		}
	}
}

// TestTCPSendAfterCloseFails pins the post-close contract of the batched
// path.
func TestTCPSendAfterCloseFails(t *testing.T) {
	cli, _, cleanup := pair(t, TCP{}, "127.0.0.1:0")
	defer cleanup()
	cli.Close()
	if err := cli.Send(wire.Hello{Client: "c"}); err == nil {
		t.Fatal("Send after Close succeeded")
	}
}

// TestMemoryLatencyPreservesOrder is the regression test for the delayed-
// delivery reordering bug: with SetLatency active, back-to-back sends used
// independent time.AfterFunc timers that raced into the peer's inbox. The
// documented Conn contract is an ordered stream, latency or not.
func TestMemoryLatencyPreservesOrder(t *testing.T) {
	const n = 200
	net := NewMemory()
	net.SetLatency(time.Millisecond)
	cli, srv, cleanup := pair(t, net, "server:1")
	defer cleanup()

	for i := 0; i < n; i++ {
		if err := cli.Send(wire.ReqObjLease{Seq: uint64(i + 1), Object: "o"}); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		m, err := recvTimeout(srv, 5*time.Second)
		if err != nil {
			t.Fatalf("Recv %d: %v", i, err)
		}
		if got := m.Sequence(); got != uint64(i+1) {
			t.Fatalf("frame %d arrived with seq %d: delayed delivery reordered", i, got)
		}
	}
}

// tortureMessage builds a mixed-kind message tagged so the receiver can
// recover (sender, index) from it: Seq packs the sender id in the high bits
// and the per-sender index in the low 20.
func tortureMessage(sender, i int) wire.Message {
	seq := uint64(sender)<<20 | uint64(i)
	switch i % 4 {
	case 0:
		return wire.ReqObjLease{Seq: seq, Object: core.ObjectID(fmt.Sprintf("obj-%d", i%7))}
	case 1:
		return wire.VolLease{Seq: seq, Volume: "vol", Expire: time.Unix(1000, 0), Epoch: 3}
	case 2:
		return wire.Invalidate{Seq: seq, Objects: []core.ObjectID{"a", "b"}}
	default:
		return wire.AckInvalidate{Seq: seq, Volume: "vol", Objects: []core.ObjectID{"a"}}
	}
}

// TestBatcherTortureTCP hammers one batched TCP connection with many
// concurrent senders and checks, under -race, that nothing is lost,
// duplicated, or reordered within a sender, and that the batch statistics
// conserve frames (frames == sends, coalesced == frames - flushes).
func TestBatcherTortureTCP(t *testing.T) {
	const (
		senders = 8
		perSend = 300
	)
	stats := &BatchStats{}
	cli, srv, cleanup := pair(t, TCP{Stats: stats}, "127.0.0.1:0")
	defer cleanup()

	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSend; i++ {
				if err := cli.Send(tortureMessage(s, i)); err != nil {
					t.Errorf("sender %d frame %d: %v", s, i, err)
					return
				}
			}
		}(s)
	}

	next := make([]int, senders) // next expected index per sender
	for got := 0; got < senders*perSend; got++ {
		m, err := recvTimeout(srv, 10*time.Second)
		if err != nil {
			t.Fatalf("after %d frames: %v", got, err)
		}
		seq := m.Sequence()
		s, i := int(seq>>20), int(seq&(1<<20-1))
		if s < 0 || s >= senders {
			t.Fatalf("frame tagged with unknown sender %d", s)
		}
		if i != next[s] {
			t.Fatalf("sender %d: got index %d, want %d (per-sender order broken)", s, i, next[s])
		}
		next[s]++
	}
	wg.Wait()

	// The server side sent nothing, so every client frame has been flushed
	// by now (we received them all). Conservation across batching:
	snap := stats.Snapshot()
	if snap.Frames != senders*perSend {
		t.Errorf("stats frames = %d, want %d", snap.Frames, senders*perSend)
	}
	if snap.Coalesced != snap.Frames-snap.Flushes {
		t.Errorf("coalesced = %d, want frames-flushes = %d", snap.Coalesced, snap.Frames-snap.Flushes)
	}
	var bucketSum int64
	for _, c := range snap.SizeCounts {
		bucketSum += c
	}
	if bucketSum != snap.Flushes {
		t.Errorf("size histogram sums to %d flushes, want %d", bucketSum, snap.Flushes)
	}
}

// TestBatchStatsSkipFailedDrain: a drain whose write or flush failed released
// its frames unwritten, so it is neither a kernel flush nor frames on the
// wire. The sender's socket deadline lies in the past, so the flusher's one
// pass fails at Flush.
func TestBatchStatsSkipFailedDrain(t *testing.T) {
	stats := &BatchStats{}
	cli, _, cleanup := pair(t, TCP{Stats: stats}, "127.0.0.1:0")
	defer cleanup()
	tc := cli.(*tcpConn)
	if err := tc.c.SetWriteDeadline(time.Now().Add(-time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := cli.Send(wire.Hello{Client: "c"}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	for deadline := time.Now().Add(5 * time.Second); tc.sendErr() == nil; {
		if time.Now().After(deadline) {
			t.Fatal("the failed flush never set the sticky error")
		}
		time.Sleep(time.Millisecond)
	}
	cli.Close() // waits for the flusher, so nothing is recorded after this
	if snap := stats.Snapshot(); snap.Flushes != 0 || snap.Frames != 0 {
		t.Errorf("failed drain counted as %d flushes, %d frames; want 0 and 0", snap.Flushes, snap.Frames)
	}
}

// TestMemoryTortureUnderPartitionChurn drives concurrent senders through a
// Memory link with latency while the partition flips open and closed.
// Frames may be dropped (that is the model) but whatever arrives must stay
// in per-sender order, and close must be clean — run under -race this
// exercises the delayed-delivery goroutine against Send, Partition, Heal,
// and Close.
func TestMemoryTortureUnderPartitionChurn(t *testing.T) {
	const (
		senders = 6
		perSend = 150
	)
	net := NewMemory()
	net.SetLatency(100 * time.Microsecond)
	cli, srv, cleanup := pair(t, net, "server:1")
	defer cleanup()

	stopChurn := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stopChurn:
				return
			default:
			}
			if i%2 == 0 {
				net.Partition("anon", "server")
			} else {
				net.Heal("anon", "server")
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSend; i++ {
				// Errors are impossible here (drops are silent) but a
				// failed send after close would be a test bug.
				if err := cli.Send(tortureMessage(s, i)); err != nil {
					t.Errorf("sender %d frame %d: %v", s, i, err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	close(stopChurn)
	churn.Wait()
	net.Heal("anon", "server")

	// Drain whatever made it through; per-sender indexes must be strictly
	// increasing even though gaps (drops) are expected.
	last := make([]int, senders)
	for s := range last {
		last[s] = -1
	}
	received := 0
	for {
		m, err := recvTimeout(srv, 100*time.Millisecond)
		if err != nil {
			break // drained
		}
		received++
		seq := m.Sequence()
		s, i := int(seq>>20), int(seq&(1<<20-1))
		if s < 0 || s >= senders {
			t.Fatalf("frame tagged with unknown sender %d", s)
		}
		if i <= last[s] {
			t.Fatalf("sender %d: index %d after %d (reordered or duplicated)", s, i, last[s])
		}
		last[s] = i
	}
	t.Logf("received %d/%d frames across partition churn", received, senders*perSend)
}

// TestBatchSizeBucketLabel pins the histogram label scheme the metrics
// export uses.
func TestBatchSizeBucketLabel(t *testing.T) {
	cases := map[int]string{0: "1", 1: "2", 2: "4", 10: "1024", 11: "+Inf", 12: "+Inf", -1: "+Inf"}
	for i, want := range cases {
		if got := BatchSizeBucketLabel(i); got != want {
			t.Errorf("BatchSizeBucketLabel(%d) = %q, want %q", i, got, want)
		}
	}
}

// TestBatchStatsNilSafe pins the nil-receiver contract relied on by every
// unwired connection.
func TestBatchStatsNilSafe(t *testing.T) {
	var s *BatchStats
	s.record(3)
	if snap := s.Snapshot(); snap.Flushes != 0 {
		t.Errorf("nil snapshot = %+v", snap)
	}
}
