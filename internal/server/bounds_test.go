package server_test

import (
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/obs"
	"repro/internal/server"
)

// TestDelayedDiscardReconnectUnderPartition drives the live server through
// the paper's full Inactive -> Unreachable -> reconnection arc with its
// reads and writes checked (startServer fails the test on a stale or
// invented read, or a write past its bound):
//
//  1. a client caches an object, then the network partitions it;
//  2. its volume lease lapses and a write queues a delayed invalidation;
//  3. the discard window d elapses and the sweeper moves the client to the
//     Unreachable set, dropping its pending list and object leases;
//  4. the partition heals and the client's next read runs MUST_RENEW_ALL,
//     invalidating the stale copy before the fresh volume lease is granted.
func TestDelayedDiscardReconnectUnderPartition(t *testing.T) {
	table := core.Config{
		ObjectLease:     10 * time.Second,
		VolumeLease:     150 * time.Millisecond,
		Mode:            core.ModeDelayed,
		InactiveDiscard: 300 * time.Millisecond,
	}
	counts := obs.NewCountSink()
	env := startServer(t, table, func(cfg *server.Config) {
		cfg.MsgTimeout = 30 * time.Millisecond
		cfg.SweepInterval = 25 * time.Millisecond
		cfg.Obs = &obs.Observer{Tracer: obs.NewTracer(counts)}
	})
	c, err := client.Dial(env.net, "srv:1", client.Config{
		ID:      "napper",
		Skew:    5 * time.Millisecond,
		Timeout: time.Second,
		Redial:  true,
		Obs:     env.obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if got := env.mustReadRetry(t, c, "a"); got != "init-a" {
		t.Fatalf("read = %q, want init-a", got)
	}

	env.net.Partition("napper", "srv")

	// Let the volume lease lapse so the client goes Inactive; the write must
	// then queue its invalidation instead of blocking on the dead link.
	time.Sleep(250 * time.Millisecond)
	if _, waited, err := env.write(env.srv, "a", "v2"); err != nil {
		t.Fatalf("Write: %v", err)
	} else if waited > 100*time.Millisecond {
		t.Errorf("delayed write waited %v for a partitioned client", waited)
	}
	if counts.Count(obs.EvInvalQueued) == 0 {
		t.Error("write did not queue a delayed invalidation")
	}

	// The sweeper must discard the client once the pending list outlives d.
	deadline := time.Now().Add(2 * time.Second)
	for counts.Count(obs.EvUnreachable) == 0 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if counts.Count(obs.EvUnreachable) == 0 {
		t.Fatal("client was never discarded to the Unreachable set")
	}
	if st := env.srv.Stats(); st.UnreachableClients == 0 {
		t.Errorf("stats = %+v: no unreachable clients after discard", st)
	}

	env.net.Heal("napper", "srv")

	// Reads resume through the reconnection protocol and see the new value.
	if got := env.mustReadRetry(t, c, "a"); got != "v2" {
		t.Fatalf("read after reconnect = %q, want v2", got)
	}
	if counts.Count(obs.EvReconnect) == 0 {
		t.Error("reconnection protocol never ran")
	}
}

// TestBestEffortStalenessWithinBound checks the paper's Table 1 claim on the
// live stack: best-effort writes may leave caches stale, but never staler
// than min(t, t_v). A partitioned client keeps serving its cached copy after
// a best-effort write commits. Measured from outside, the client's history
// holds exactly those stale reads, each younger than the analytic bound.
func TestBestEffortStalenessWithinBound(t *testing.T) {
	table := core.Config{
		ObjectLease: 10 * time.Second,
		VolumeLease: 2 * time.Second,
		Mode:        core.ModeEager,
	}
	env := startServer(t, table, func(cfg *server.Config) {
		cfg.WriteMode = server.WriteBestEffort
		cfg.BestEffortGrace = 20 * time.Millisecond
		cfg.MsgTimeout = 10 * time.Millisecond
	})
	c := env.dial(t, "c1")
	if got := env.mustRead(t, c, "a"); got != "init-a" {
		t.Fatalf("read = %q", got)
	}

	// Cut the link: the invalidation is lost, and best-effort means the
	// write commits after the grace period anyway.
	env.net.Partition("c1", "srv")
	if _, waited, err := env.write(env.srv, "a", "v2"); err != nil {
		t.Fatalf("Write: %v", err)
	} else if waited > 500*time.Millisecond {
		t.Errorf("best-effort write waited %v, want ~grace", waited)
	}

	// The client's leases are still valid, so cached reads keep succeeding —
	// and keep returning the superseded version. Each is a stale read.
	for i := 0; i < 3; i++ {
		time.Sleep(30 * time.Millisecond)
		if got := env.mustRead(t, c, "a"); got != "init-a" {
			t.Fatalf("best-effort cached read = %q, want stale init-a", got)
		}
	}
	bound := table.VolumeLease // min(t, t_v)
	rep := history.Check(env.log)
	if rep.Stale == 0 || rep.Invented != 0 {
		t.Errorf("%v; want the cached reads stale", rep)
	}
	var maxAge time.Duration
	for _, a := range rep.Anomalies {
		maxAge = max(maxAge, a.Age)
	}
	if maxAge <= 0 || maxAge > bound {
		t.Errorf("max stale-read age %v outside (0, %v]", maxAge, bound)
	}
	env.net.Heal("c1", "srv")
}
