package client_test

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/client"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/transport"
)

// readLeases are ten-minute terms: every read after the first is a hit until
// a write invalidates.
var readLeases = core.Config{ObjectLease: 10 * time.Minute, VolumeLease: 10 * time.Minute, Mode: core.ModeEager}

// readEnv is one real server holding volume "vol" with objects o0..o<n-1>
// (payload(i, 1) each) and one client of it, on the in-memory network — so
// a grant hands the client the very slice the server's table holds, and an
// in-place overwrite on either side would show on the other.
func readEnv(tb testing.TB, o *obs.Observer, objects int) (*server.Server, *client.Client) {
	tb.Helper()
	return readEnvOn(tb, o, objects, readLeases, nil, nil)
}

// readEnvOn is readEnv with the lease terms and each end's clock chosen (nil:
// the system clock).
func readEnvOn(tb testing.TB, o *obs.Observer, objects int, leases core.Config, srvClock, cliClock clock.Clock) (*server.Server, *client.Client) {
	tb.Helper()
	net := transport.NewMemory()
	srv, err := server.New(server.Config{
		Name: "srv", Addr: "srv:1", Net: net, Obs: o, Table: leases, Clock: srvClock,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Close() })
	if err := srv.AddVolume("vol"); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < objects; i++ {
		if err := srv.AddObject("vol", oid(i), payload(i, 1)); err != nil {
			tb.Fatal(err)
		}
	}
	c, err := client.Dial(net, "srv:1", client.Config{ID: "reader", Skew: 5 * time.Millisecond, Obs: o, Clock: cliClock})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	return srv, c
}

func oid(i int) core.ObjectID { return core.ObjectID(fmt.Sprintf("o%d", i)) }

// payload is object i's 256-byte body at a version: every byte depends on
// both, so bytes of two versions mixed in one slice never pass check.
func payload(i int, version core.Version) []byte {
	b := make([]byte, 256)
	for j := range b {
		b[j] = byte(i + 31*int(version) + j)
	}
	return b
}

// check reports which version of object i's payload b is, 0 if none.
func check(i int, b []byte) core.Version {
	if len(b) != 256 {
		return 0
	}
	for v := core.Version(1); v < 256; v++ {
		if b[0] == byte(i+31*int(v)) {
			if bytes.Equal(b, payload(i, v)) {
				return v
			}
			return 0
		}
	}
	return 0
}

// auditedObserver returns an observer whose tracer feeds the online
// consistency auditor (failing the test on any violation) and a ring.
func auditedObserver(t *testing.T) (*obs.Observer, *obs.RingSink) {
	t.Helper()
	aud := audit.New(audit.LiveConfig(readLeases, false))
	ring := obs.NewRingSink(1 << 16)
	t.Cleanup(func() {
		if err := aud.Err(); err != nil {
			t.Errorf("consistency audit: %v", err)
		}
	})
	return &obs.Observer{Tracer: obs.NewTracer(aud, ring)}, ring
}

// TestReadHitZeroAlloc pins the hit path's cost model: with no observer a
// valid-lease read allocates nothing and returns the cache's own slice, the
// same one every time.
func TestReadHitZeroAlloc(t *testing.T) {
	_, c := readEnv(t, nil, 1)
	first, err := c.Read("vol", "o0")
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, err := c.Read("vol", "o0"); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Read hit: %v allocs/op, want 0", allocs)
	}
	second, _ := c.Read("vol", "o0")
	peeked, _ := c.Peek("o0")
	if &first[0] != &second[0] || &first[0] != &peeked[0] {
		t.Error("two hits and a Peek returned different backing arrays: something on the hit path still copies")
	}
	if local, viaServer, _ := c.Stats(); viaServer != 1 || local != 1002 {
		t.Errorf("Stats = %d local, %d via server; want 1002, 1", local, viaServer)
	}
}

// countingClock counts the calls a client makes on its clock.
type countingClock struct {
	clock.Clock
	now, mono, timers atomic.Int64
}

func (c *countingClock) Now() time.Time      { c.now.Add(1); return c.Clock.Now() }
func (c *countingClock) Mono() time.Duration { c.mono.Add(1); return c.Clock.Mono() }
func (c *countingClock) Sleep(d time.Duration) {
	c.timers.Add(1)
	c.Clock.Sleep(d)
}
func (c *countingClock) After(d time.Duration) <-chan time.Time {
	c.timers.Add(1)
	return c.Clock.After(d)
}

// TestReadHitReadsClockOnce pins the hit path's cost as a count: a
// valid-lease read takes one monotonic reading and nothing else from the
// clock; an attached tracer adds the one wall reading that stamps the
// cache-read event.
func TestReadHitReadsClockOnce(t *testing.T) {
	for _, tc := range []struct {
		name    string
		o       *obs.Observer
		wantNow int64
	}{
		{"untraced", nil, 0},
		{"traced", &obs.Observer{Tracer: obs.NewTracer(obs.NewRingSink(16))}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := &countingClock{Clock: clock.Real{}}
			_, c := readEnvOn(t, tc.o, 1, readLeases, nil, clk)
			if _, err := c.Read("vol", "o0"); err != nil {
				t.Fatal(err)
			}
			now, mono, timers := clk.now.Load(), clk.mono.Load(), clk.timers.Load()
			if _, err := c.Read("vol", "o0"); err != nil {
				t.Fatal(err)
			}
			if local, _, _ := c.Stats(); local != 1 {
				t.Fatalf("second read was not a hit: %d local reads", local)
			}
			now, mono, timers = clk.now.Load()-now, clk.mono.Load()-mono, clk.timers.Load()-timers
			if mono != 1 || now != tc.wantNow || timers != 0 {
				t.Errorf("a hit made %d Mono, %d Now, %d After/Sleep calls; want 1, %d, 0", mono, now, timers, tc.wantNow)
			}
		})
	}
}

// missEnv is one real server and one client of it on one simulated clock:
// one object under a one-second object lease and a volume lease that
// outlasts any run, read once. Advancing the clock by a second then lapses
// the object lease and nothing else, so the next read is a miss for a grant
// without data, as every read of the benchmark's lease_miss workload is.
func missEnv(tb testing.TB) (*clock.Simulated, *client.Client) {
	tb.Helper()
	sim := clock.NewSimulated(clock.Epoch)
	leases := core.Config{ObjectLease: time.Second, VolumeLease: 100000 * time.Hour, Mode: core.ModeEager}
	_, c := readEnvOn(tb, nil, 1, leases, sim, sim)
	if _, err := c.Read("vol", "o0"); err != nil {
		tb.Fatal(err)
	}
	return sim, c
}

// miss lapses the object lease and reads the object again.
func miss(tb testing.TB, sim *clock.Simulated, c *client.Client) {
	sim.Advance(time.Second)
	data, err := c.Read("vol", "o0")
	if err != nil || check(0, data) != 1 {
		tb.Fatalf("miss: version %d, %v", check(0, data), err)
	}
	readSink = data
}

// TestMissesLeaveNoTimer: an RPC stops its timeout timer once the reply is
// in, so after a hundred misses the simulated clock has no deadline inside
// the client's Timeout left. The server's sweep, at the volume-lease term,
// is its only one.
func TestMissesLeaveNoTimer(t *testing.T) {
	sim, c := missEnv(t)
	for i := 0; i < 100; i++ {
		miss(t, sim, c)
	}
	if _, viaServer, _ := c.Stats(); viaServer != 101 {
		t.Fatalf("%d reads went to the server, want 101", viaServer)
	}
	const timeout = 10 * time.Second // client.Config's default
	if dl, ok := sim.NextDeadline(); ok && !dl.After(sim.Now().Add(timeout)) {
		t.Errorf("a timer is pending %v from now, inside the RPC timeout: an answered RPC left it behind", dl.Sub(sim.Now()))
	}
}

// missAllocs is what one lease miss allocates, client and server together,
// on the in-memory network: the boxed request and reply, and the server's
// per-request work. TestReadMissAllocs holds it exactly, and `make
// bench-wirepath` fails a BenchmarkReadMiss row above it.
const missAllocs = 2

// TestReadMissAllocs pins missAllocs. A change that allocates less on the
// miss path lowers it in the same change, and the Makefile's gate with it.
func TestReadMissAllocs(t *testing.T) {
	sim, c := missEnv(t)
	if allocs := testing.AllocsPerRun(1000, func() { miss(t, sim, c) }); allocs != missAllocs {
		t.Errorf("a lease miss: %v allocs, want %v", allocs, missAllocs)
	}
}

// steppedEnv is a server granting one-second object leases (the volume lease
// is long) and a client on the same simulated timeline whose wall clock the
// test can step.
func steppedEnv(t *testing.T) (*clock.Simulated, *clock.Offset, *client.Client) {
	t.Helper()
	sim := clock.NewSimulated(clock.Epoch)
	wall := &clock.Offset{Clock: sim}
	leases := core.Config{ObjectLease: time.Second, VolumeLease: 10 * time.Minute, Mode: core.ModeEager}
	_, c := readEnvOn(t, nil, 1, leases, sim, wall)
	if _, err := c.Read("vol", "o0"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read("vol", "o0"); err != nil {
		t.Fatal(err)
	}
	if local, viaServer, _ := c.Stats(); local != 1 || viaServer != 1 {
		t.Fatalf("warm-up: %d local, %d via server; want 1, 1", local, viaServer)
	}
	return sim, wall, c
}

// TestLeaseNotExtendedByWallStepBack: a lease is a term on the holder's
// monotonic clock, so setting the holder's wall clock back after the grant
// must not keep it alive. Compared on the wall clock (expire − Skew against
// Now), the stepped clock reads an hour before the expiry and the stale copy
// is served locally.
func TestLeaseNotExtendedByWallStepBack(t *testing.T) {
	sim, wall, c := steppedEnv(t)
	wall.Step(-time.Hour)
	sim.Advance(2 * time.Second) // the one-second lease is over
	if _, err := c.Read("vol", "o0"); err != nil {
		t.Fatal(err)
	}
	if local, viaServer, _ := c.Stats(); local != 1 || viaServer != 2 {
		t.Errorf("read after the lease lapsed: %d local, %d via server; want 1, 2 (it must go to the server)", local, viaServer)
	}
}

// TestLeaseNotCutShortByWallStepForward is the twin: a forward step takes
// nothing off a lease already held, and adds nothing either.
func TestLeaseNotCutShortByWallStepForward(t *testing.T) {
	sim, wall, c := steppedEnv(t)
	wall.Step(time.Hour)
	sim.Advance(500 * time.Millisecond) // half the term
	if _, err := c.Read("vol", "o0"); err != nil {
		t.Fatal(err)
	}
	if local, viaServer, _ := c.Stats(); local != 2 || viaServer != 1 {
		t.Errorf("read half-way through the term: %d local, %d via server; want 2, 1 (still a hit)", local, viaServer)
	}
	sim.Advance(time.Second)
	// Whether the renewal then succeeds is the server's and the client's wall
	// clocks agreeing at install, which they no longer do; either way the
	// lapsed lease serves nothing.
	_, _ = c.Read("vol", "o0")
	if local, _, _ := c.Stats(); local != 2 {
		t.Errorf("read after the term: %d local reads, want 2 (not a hit)", local)
	}
}

// TestReadSliceStableAcrossVersions pins replace-never-overwrite end to end:
// a slice a reader still holds keeps its version's bytes while the server
// writes, the client acknowledges the invalidation and refetches — on the
// in-memory network that slice is the server table's own, so this covers
// core.FinishWrite as much as the client. With an observer attached, the
// cache-read event still precedes the acknowledgment that lets the write
// finish, which is what the auditor's read-validity rule relies on.
func TestReadSliceStableAcrossVersions(t *testing.T) {
	o, ring := auditedObserver(t)
	srv, c := readEnv(t, o, 1)
	held, err := c.Read("vol", "o0")
	if err != nil || check(0, held) != 1 {
		t.Fatalf("first read: version %d, %v", check(0, held), err)
	}
	if _, err := c.Read("vol", "o0"); err != nil { // a hit, so a cache-read event at v1
		t.Fatal(err)
	}
	for v := core.Version(2); v <= 4; v++ {
		// Write returns once the client has dropped its copy and acked.
		if _, _, err := srv.Write("o0", payload(0, v)); err != nil {
			t.Fatal(err)
		}
		if data, ok := c.Peek("o0"); ok {
			t.Fatalf("copy survived the invalidation: version %d", check(0, data))
		}
		got, err := c.Read("vol", "o0")
		if err != nil || check(0, got) != v {
			t.Fatalf("read after write %d: version %d, %v", v, check(0, got), err)
		}
		if check(0, held) != 1 {
			t.Fatalf("after version %d was installed the slice held since version 1 reads as version %d", v, check(0, held))
		}
	}

	// Event order around the first write: read v1, ack, applied v2.
	read, acked, applied := -1, -1, -1
	for i, e := range ring.Snapshot() {
		switch {
		case e.Type == obs.EvCacheRead && e.Version == 1:
			read = i
		case e.Type == obs.EvInvalAcked && acked < 0:
			acked = i
		case e.Type == obs.EvWriteApplied && e.Version == 2:
			applied = i
		}
	}
	if read < 0 || !(read < acked && acked < applied) {
		t.Errorf("event order: last cache-read of v1 at %d, first ack at %d, write-applied v2 at %d; want read < ack < applied", read, acked, applied)
	}
}

// TestReadConcurrentWithVersionChurn runs readers in a tight Read loop,
// checking every payload, while a writer cycles the object through versions:
// an invalidation, an ack, a refetch, and the next write as soon as every
// reader has seen this one (a refetch that keeps being overtaken gives up
// after four attempts, by design). Under -race an in-place overwrite anywhere
// on the path — table, grant, cache — is a reported race with a reader still
// checking the old slice; the auditor rules out a read of a version the
// server had already replaced.
func TestReadConcurrentWithVersionChurn(t *testing.T) {
	o, _ := auditedObserver(t)
	srv, c := readEnv(t, o, 1)
	const versions = 30
	var (
		seen [2]atomic.Int64 // newest version each reader has verified
		wg   sync.WaitGroup
	)
	for r := range seen {
		wg.Add(1)
		go func(seen *atomic.Int64) {
			defer wg.Done()
			defer seen.Store(versions) // on failure, release the writer
			for last := core.Version(1); last < versions; {
				data, err := c.Read("vol", "o0")
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
				v := check(0, data)
				if v < last {
					t.Errorf("read version %d after version %d (0: torn or foreign bytes)", v, last)
					return
				}
				last = v
				seen.Store(int64(v))
			}
		}(&seen[r])
	}
	for v := core.Version(2); v <= versions; v++ {
		if _, _, err := srv.Write("o0", payload(0, v)); err != nil {
			t.Fatalf("write %d: %v", v, err)
		}
		for seen[0].Load() < int64(v) || seen[1].Load() < int64(v) {
			runtime.Gosched()
		}
	}
	wg.Wait()
}

var readSink []byte

// BenchmarkReadHit is the price of the paper's local read: a real server
// and client, 1024 warmed 256-byte objects under ten-minute leases, no
// observer. `make bench-wirepath` gates it at 0 B/op, 0 allocs/op.
func BenchmarkReadHit(b *testing.B) {
	const objects = 1024
	_, c := readEnv(b, nil, objects)
	ids := make([]core.ObjectID, objects)
	for i := range ids {
		ids[i] = oid(i)
		if _, err := c.Read("vol", ids[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := c.Read("vol", ids[i%objects])
		if err != nil {
			b.Fatal(err)
		}
		readSink = data
	}
}

// BenchmarkReadMiss is the price of the paper's basic exchange, the miss
// twin of BenchmarkReadHit: every read finds its object lease lapsed and
// makes one ReqObjLease/ObjLease round trip for a grant without data, to a
// real server on the in-memory network. `make bench-wirepath` gates its
// allocs/op at missAllocs.
func BenchmarkReadMiss(b *testing.B) {
	sim, c := missEnv(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		miss(b, sim, c)
	}
}
