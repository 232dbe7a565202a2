package audit

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

var t0 = time.Date(2026, 1, 1, 12, 0, 0, 0, time.UTC)

func at(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }

func volumeCfg() Config {
	return Config{
		ObjectLease: 100 * time.Second, VolumeLease: 10 * time.Second,
		InactiveDiscard:    30 * time.Second,
		RequireObjectLease: true, RequireVolumeLease: true,
		CheckStaleness: true,
	}
}

func grantBoth(a *Auditor, c, o, v string, now time.Time) {
	a.Observe(obs.Event{Type: obs.EvVolLeaseGrant, Client: core.ClientID(c), Volume: core.VolumeID(v),
		Expire: now.Add(10 * time.Second), At: now})
	a.Observe(obs.Event{Type: obs.EvObjLeaseGrant, Client: core.ClientID(c), Object: core.ObjectID(o),
		Version: 1, Expire: now.Add(100 * time.Second), At: now})
}

func TestCleanSequenceNoViolations(t *testing.T) {
	a := New(volumeCfg())
	grantBoth(a, "c1", "o", "v", at(0))
	a.Observe(obs.Event{Type: obs.EvCacheRead, Client: "c1", Object: "o", Volume: "v", Version: 1, At: at(1)})
	a.Observe(obs.Event{Type: obs.EvInvalAcked, Client: "c1", Object: "o", At: at(2)})
	a.Observe(obs.Event{Type: obs.EvWriteApplied, Object: "o", Volume: "v", Version: 2, At: at(2)})
	if err := a.Err(); err != nil {
		t.Fatalf("clean sequence flagged: %v", err)
	}
	if got := a.Events(); got != 5 {
		t.Errorf("events = %d, want 5", got)
	}
}

func TestReadValidityViolations(t *testing.T) {
	a := New(volumeCfg())
	// No leases at all: both rules fire.
	a.Observe(obs.Event{Type: obs.EvCacheRead, Client: "c1", Object: "o", Volume: "v", At: at(0)})
	if n := a.ByRule()[RuleReadValidity]; n != 2 {
		t.Fatalf("leaseless read: %d read-validity violations, want 2", n)
	}
	// Valid leases: clean.
	grantBoth(a, "c1", "o", "v", at(1))
	a.Observe(obs.Event{Type: obs.EvCacheRead, Client: "c1", Object: "o", Volume: "v", Version: 1, At: at(2)})
	if n := a.ByRule()[RuleReadValidity]; n != 2 {
		t.Fatalf("valid read flagged: %d violations", n)
	}
	// Volume lease expired (10s term): one more violation.
	a.Observe(obs.Event{Type: obs.EvCacheRead, Client: "c1", Object: "o", Volume: "v", Version: 1, At: at(12)})
	if n := a.ByRule()[RuleReadValidity]; n != 3 {
		t.Fatalf("read after volume expiry: %d violations, want 3", n)
	}
}

func TestWriteSafetyViolation(t *testing.T) {
	a := New(volumeCfg())
	grantBoth(a, "c1", "o", "v", at(0))
	// Commit without invalidating c1 while both its leases are valid.
	a.Observe(obs.Event{Type: obs.EvWriteApplied, Object: "o", Volume: "v", Version: 2, At: at(1)})
	if n := a.ByRule()[RuleWriteSafety]; n != 1 {
		t.Fatalf("write-safety violations = %d, want 1", n)
	}
	// After the volume lease expires the same commit pattern is legal.
	a.Observe(obs.Event{Type: obs.EvWriteApplied, Object: "o", Volume: "v", Version: 3, At: at(11)})
	if n := a.ByRule()[RuleWriteSafety]; n != 1 {
		t.Fatalf("post-expiry write flagged: %d violations", n)
	}
}

func TestDelayedOrderingAndDiscardWindow(t *testing.T) {
	a := New(volumeCfg())
	grantBoth(a, "c1", "o", "v", at(0))
	// Volume lease expires at 10s; a delayed write queues an invalidation.
	a.Observe(obs.Event{Type: obs.EvInvalQueued, Client: "c1", Object: "o", Volume: "v",
		Expire: at(10), At: at(15)})
	a.Observe(obs.Event{Type: obs.EvWriteApplied, Object: "o", Volume: "v", Version: 2, At: at(15)})
	if err := a.Err(); err != nil {
		t.Fatalf("delayed write flagged: %v", err)
	}
	// Renewing without delivering the queued invalidation violates ordering.
	a.Observe(obs.Event{Type: obs.EvVolLeaseGrant, Client: "c1", Volume: "v",
		Expire: at(26), At: at(16)})
	if n := a.ByRule()[RuleDelayedOrdering]; n != 1 {
		t.Fatalf("delayed-ordering violations = %d, want 1", n)
	}

	// Fresh run: queue again, then discard BEFORE d=30s has elapsed.
	b := New(volumeCfg())
	grantBoth(b, "c1", "o", "v", at(0))
	b.Observe(obs.Event{Type: obs.EvInvalQueued, Client: "c1", Object: "o", Volume: "v",
		Expire: at(10), At: at(15)})
	b.Observe(obs.Event{Type: obs.EvUnreachable, Client: "c1", Volume: "v", At: at(20)})
	if n := b.ByRule()[RuleDiscardWindow]; n != 1 {
		t.Fatalf("early discard: %d violations, want 1", n)
	}
	// And the correct sequence: discard at/after expiry+d is clean, but the
	// client must then reconnect before its next lease.
	c := New(volumeCfg())
	grantBoth(c, "c1", "o", "v", at(0))
	c.Observe(obs.Event{Type: obs.EvInvalQueued, Client: "c1", Object: "o", Volume: "v",
		Expire: at(10), At: at(15)})
	c.Observe(obs.Event{Type: obs.EvUnreachable, Client: "c1", Volume: "v", At: at(40)})
	c.Observe(obs.Event{Type: obs.EvVolLeaseGrant, Client: "c1", Volume: "v",
		Expire: at(60), At: at(50)})
	if n := c.ByRule()[RuleReconnectSkipped]; n != 1 {
		t.Fatalf("skipped reconnect: %d violations, want 1", n)
	}
	if n := c.ByRule()[RuleDiscardWindow]; n != 0 {
		t.Fatalf("on-time discard flagged: %d", n)
	}
	// With the reconnection protocol the grant is clean.
	d := New(volumeCfg())
	grantBoth(d, "c1", "o", "v", at(0))
	d.Observe(obs.Event{Type: obs.EvUnreachable, Client: "c1", Volume: "v", At: at(40)})
	d.Observe(obs.Event{Type: obs.EvReconnect, Client: "c1", Volume: "v", At: at(50)})
	d.Observe(obs.Event{Type: obs.EvVolLeaseGrant, Client: "c1", Volume: "v",
		Expire: at(60), At: at(50)})
	if err := d.Err(); err != nil {
		t.Fatalf("reconnection flagged: %v", err)
	}
}

func TestStalenessMeasurementAndBound(t *testing.T) {
	a := New(volumeCfg()) // bound = min(100s, 10s) = 10s
	grantBoth(a, "c1", "o", "v", at(0))
	a.Observe(obs.Event{Type: obs.EvWriteApplied, Object: "o", Volume: "v", Version: 2, At: at(11)})
	// Read version 1 at 15s: 4s stale, within the bound.
	a.Observe(obs.Event{Type: obs.EvVolLeaseGrant, Client: "c1", Volume: "v", Expire: at(25), At: at(15)})
	a.Observe(obs.Event{Type: obs.EvCacheRead, Client: "c1", Object: "o", Volume: "v", Version: 1, At: at(15)})
	if n := a.StaleReads(); n != 1 {
		t.Fatalf("stale reads = %d, want 1", n)
	}
	if got, want := a.MaxStaleness(), 4*time.Second; got != want {
		t.Fatalf("max staleness = %v, want %v", got, want)
	}
	if n := a.ByRule()[RuleStalenessBound]; n != 0 {
		t.Fatalf("in-bound staleness flagged: %d", n)
	}
	// Read version 1 at 22s: 11s stale, over the 10s bound.
	a.Observe(obs.Event{Type: obs.EvVolLeaseGrant, Client: "c1", Volume: "v", Expire: at(32), At: at(22)})
	a.Observe(obs.Event{Type: obs.EvCacheRead, Client: "c1", Object: "o", Volume: "v", Version: 1, At: at(22)})
	if n := a.ByRule()[RuleStalenessBound]; n != 1 {
		t.Fatalf("staleness-bound violations = %d, want 1", n)
	}
	if got := a.cfg.Bound(); got != 10*time.Second {
		t.Fatalf("bound = %v, want 10s", got)
	}
}

// TestViolationLogCapAndCallback: the log keeps the first quotedViolations
// breaches, while the total and Err's summary count every one.
func TestViolationLogCapAndCallback(t *testing.T) {
	a := New(volumeCfg())
	for i := 0; i < 5; i++ {
		a.Observe(obs.Event{Type: obs.EvCacheRead, Client: "c1", Object: "o", Volume: "v", At: at(float64(i))})
	}
	if got := len(a.violations); got != quotedViolations {
		t.Errorf("retained %d violations, want the cap %d", got, quotedViolations)
	}
	if a.totalViol.Load() != 10 {
		t.Errorf("total = %d, want 10", a.totalViol.Load())
	}
	if err := a.Err(); err == nil || !strings.Contains(err.Error(), "and 7 more") {
		t.Errorf("Err() = %v, want summary quoting first violations and the remainder", err)
	}
}

func TestBoundDerivation(t *testing.T) {
	cases := []struct {
		cfg  Config
		want time.Duration
	}{
		{Config{ObjectLease: 100 * time.Second, VolumeLease: 10 * time.Second}, 10 * time.Second},
		{Config{ObjectLease: 5 * time.Second, VolumeLease: 10 * time.Second}, 5 * time.Second},
		{Config{ObjectLease: 5 * time.Second}, 5 * time.Second},
		{Config{VolumeLease: 7 * time.Second}, 7 * time.Second},
		{Config{ObjectLease: 5 * time.Second, StalenessBound: time.Second}, time.Second},
		{Config{}, 0},
	}
	for i, tc := range cases {
		if got := tc.cfg.Bound(); got != tc.want {
			t.Errorf("case %d: Bound() = %v, want %v", i, got, tc.want)
		}
	}
}
