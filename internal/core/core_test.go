package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/clock"
)

func eagerCfg() Config {
	return Config{
		ObjectLease: 100 * time.Second,
		VolumeLease: 10 * time.Second,
		Mode:        ModeEager,
	}
}

func delayedCfg(d time.Duration) Config {
	c := eagerCfg()
	c.Mode = ModeDelayed
	c.InactiveDiscard = d
	return c
}

// newTable builds a table with one volume "v" holding objects "a" and "b".
func newTable(t *testing.T, cfg Config) *Table {
	t.Helper()
	tb, err := NewTable(cfg)
	if err != nil {
		t.Fatalf("NewTable: %v", err)
	}
	if err := tb.CreateVolume("v"); err != nil {
		t.Fatalf("CreateVolume: %v", err)
	}
	for _, oid := range []ObjectID{"a", "b"} {
		if err := tb.CreateObject("v", oid, []byte("data-"+string(oid))); err != nil {
			t.Fatalf("CreateObject: %v", err)
		}
	}
	return tb
}

func at(sec float64) time.Time { return clock.At(sec) }

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		ok   bool
	}{
		{"valid eager", func(c *Config) {}, true},
		{"valid delayed", func(c *Config) { c.Mode = ModeDelayed; c.InactiveDiscard = time.Minute }, true},
		{"zero object lease", func(c *Config) { c.ObjectLease = 0 }, false},
		{"zero volume lease", func(c *Config) { c.VolumeLease = 0 }, false},
		{"bad mode", func(c *Config) { c.Mode = 0 }, false},
		{"negative discard", func(c *Config) { c.InactiveDiscard = -1 }, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := eagerCfg()
			c.mut(&cfg)
			err := cfg.Validate()
			if (err == nil) != c.ok {
				t.Errorf("Validate() = %v, ok=%v", err, c.ok)
			}
		})
	}
}

func TestModeString(t *testing.T) {
	if ModeEager.String() != "eager" || ModeDelayed.String() != "delayed" {
		t.Error("mode strings wrong")
	}
	if Mode(9).String() != "mode(9)" {
		t.Error("unknown mode string wrong")
	}
}

func TestCreateDuplicateVolumeAndObject(t *testing.T) {
	tb := newTable(t, eagerCfg())
	if err := tb.CreateVolume("v"); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate volume: %v", err)
	}
	if err := tb.CreateObject("v", "a", nil); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate object: %v", err)
	}
	if err := tb.CreateObject("nope", "c", nil); !errors.Is(err, ErrNoSuchVolume) {
		t.Errorf("object in missing volume: %v", err)
	}
}

func TestGrantObjectLeaseCarriesDataWhenStale(t *testing.T) {
	tb := newTable(t, eagerCfg())
	g, err := tb.GrantObjectLease(at(0), "c1", "a", NoVersion)
	if err != nil {
		t.Fatalf("GrantObjectLease: %v", err)
	}
	if g.Version != 1 || string(g.Data) != "data-a" {
		t.Errorf("grant = %+v, want version 1 with data", g)
	}
	if !g.Expire.Equal(at(100)) {
		t.Errorf("expire = %v, want 100s", clock.Seconds(g.Expire))
	}
	// Renewal with the current version carries no data.
	g2, err := tb.GrantObjectLease(at(1), "c1", "a", g.Version)
	if err != nil {
		t.Fatalf("renewal: %v", err)
	}
	if g2.Data != nil {
		t.Error("renewal with current version carried data")
	}
	if !g2.Expire.Equal(at(101)) {
		t.Errorf("renewal expire = %v, want 101s", clock.Seconds(g2.Expire))
	}
}

func TestGrantObjectLeaseUnknownObject(t *testing.T) {
	tb := newTable(t, eagerCfg())
	if _, err := tb.GrantObjectLease(at(0), "c1", "zz", NoVersion); !errors.Is(err, ErrNoSuchObject) {
		t.Errorf("err = %v, want ErrNoSuchObject", err)
	}
}

func TestRequestVolumeLeaseFirstContact(t *testing.T) {
	tb := newTable(t, eagerCfg())
	// First contact: the client's epoch must match the volume's (0). A
	// client reporting NoEpoch is treated as stale and resynchronized.
	g, err := tb.RequestVolumeLease(at(0), "c1", "v", 0)
	if err != nil {
		t.Fatalf("RequestVolumeLease: %v", err)
	}
	if g.Status != VolumeGranted {
		t.Fatalf("status = %v, want granted", g.Status)
	}
	if !g.Expire.Equal(at(10)) {
		t.Errorf("expire = %v, want 10s", clock.Seconds(g.Expire))
	}
	if g.Epoch != 0 {
		t.Errorf("epoch = %d, want 0", g.Epoch)
	}
}

func TestRequestVolumeLeaseStaleEpochNeedsRenewAll(t *testing.T) {
	tb := newTable(t, eagerCfg())
	g, err := tb.RequestVolumeLease(at(0), "c1", "v", NoEpoch)
	if err != nil {
		t.Fatalf("RequestVolumeLease: %v", err)
	}
	if g.Status != VolumeNeedsRenewAll {
		t.Errorf("status = %v, want needs-renew-all", g.Status)
	}
}

func TestRequestVolumeLeaseUnknownVolume(t *testing.T) {
	tb := newTable(t, eagerCfg())
	if _, err := tb.RequestVolumeLease(at(0), "c1", "zz", 0); !errors.Is(err, ErrNoSuchVolume) {
		t.Errorf("err = %v, want ErrNoSuchVolume", err)
	}
}

func TestEagerWritePlanNotifiesValidHolders(t *testing.T) {
	tb := newTable(t, eagerCfg())
	mustGrant(t, tb, at(0), "c1", "v")
	mustObj(t, tb, at(0), "c1", "a")
	mustGrant(t, tb, at(0), "c2", "v")
	mustObj(t, tb, at(0), "c2", "a")
	mustObj(t, tb, at(0), "c2", "b")

	plan, err := tb.BeginWrite(at(5), "a")
	if err != nil {
		t.Fatalf("BeginWrite: %v", err)
	}
	if len(plan.Notify) != 2 {
		t.Fatalf("notify = %+v, want c1 and c2", plan.Notify)
	}
	if plan.Notify[0].Client != "c1" || plan.Notify[1].Client != "c2" {
		t.Errorf("notify order = %+v, want sorted [c1 c2]", plan.Notify)
	}
	// Per-client wait bound is min(vol expire=10, obj expire=100) = 10s.
	for _, n := range plan.Notify {
		if !n.LeaseExpire.Equal(at(10)) {
			t.Errorf("lease bound = %v, want 10s", clock.Seconds(n.LeaseExpire))
		}
	}
	// Writing object b only notifies c2.
	planB, err := tb.BeginWrite(at(5), "b")
	if err != nil {
		t.Fatalf("BeginWrite(b): %v", err)
	}
	if len(planB.Notify) != 1 || planB.Notify[0].Client != "c2" {
		t.Errorf("notify(b) = %+v, want [c2]", planB.Notify)
	}
}

func TestEagerWriteBoundAfterVolumeExpiry(t *testing.T) {
	// The paper allows the write to proceed as soon as EITHER lease has
	// expired: a holder whose volume lease lapsed at 10 is still notified,
	// but the wait bound is the lapsed volume expiry (in the past), so the
	// server need not wait for it.
	tb := newTable(t, eagerCfg())
	mustGrant(t, tb, at(0), "c1", "v") // vol expires at 10
	mustObj(t, tb, at(0), "c1", "a")   // obj expires at 100
	plan, err := tb.BeginWrite(at(50), "a")
	if err != nil {
		t.Fatalf("BeginWrite: %v", err)
	}
	if len(plan.Notify) != 1 {
		t.Fatalf("notify = %+v", plan.Notify)
	}
	if !plan.Notify[0].LeaseExpire.Equal(at(10)) {
		t.Errorf("bound = %vs, want 10s (the expired volume lease)",
			clock.Seconds(plan.Notify[0].LeaseExpire))
	}
	// Same result when the lease record was swept first: the expiry log
	// preserves the bound.
	tb2 := newTable(t, eagerCfg())
	mustGrant(t, tb2, at(0), "c1", "v")
	mustObj(t, tb2, at(0), "c1", "a")
	tb2.Sweep(at(40))
	plan2, err := tb2.BeginWrite(at(50), "a")
	if err != nil {
		t.Fatalf("BeginWrite after sweep: %v", err)
	}
	if len(plan2.Notify) != 1 || !plan2.Notify[0].LeaseExpire.Equal(at(10)) {
		t.Errorf("post-sweep plan = %+v, want bound 10s", plan2.Notify)
	}
}

func TestWriteAckFlow(t *testing.T) {
	tb := newTable(t, eagerCfg())
	mustGrant(t, tb, at(0), "c1", "v")
	mustObj(t, tb, at(0), "c1", "a")
	plan, _ := tb.BeginWrite(at(1), "a")
	if len(plan.Notify) != 1 {
		t.Fatalf("notify = %+v", plan.Notify)
	}
	if err := tb.AckWriteInvalidate(at(1), "c1", "a"); err != nil {
		t.Fatalf("Ack: %v", err)
	}
	ver, err := tb.FinishWrite(at(1), "a", []byte("new"), nil)
	if err != nil {
		t.Fatalf("FinishWrite: %v", err)
	}
	if ver != 2 {
		t.Errorf("version = %d, want 2", ver)
	}
	v, data, err := tb.Read("a")
	if err != nil || v != 2 || string(data) != "new" {
		t.Errorf("Read = %d %q %v", v, data, err)
	}
	// c1 acked, so it is not unreachable and can renew normally.
	g, _ := tb.RequestVolumeLease(at(2), "c1", "v", 0)
	if g.Status != VolumeGranted {
		t.Errorf("status after ack = %v, want granted", g.Status)
	}
}

func TestWriteUnackedClientBecomesUnreachable(t *testing.T) {
	tb := newTable(t, eagerCfg())
	mustGrant(t, tb, at(0), "c1", "v")
	mustObj(t, tb, at(0), "c1", "a")
	plan, _ := tb.BeginWrite(at(1), "a")
	if _, err := tb.FinishWrite(at(11), "a", []byte("new"), []ClientID{plan.Notify[0].Client}); err != nil {
		t.Fatalf("FinishWrite: %v", err)
	}
	g, _ := tb.RequestVolumeLease(at(12), "c1", "v", 0)
	if g.Status != VolumeNeedsRenewAll {
		t.Errorf("status = %v, want needs-renew-all", g.Status)
	}
}

func TestReconnectionProtocol(t *testing.T) {
	tb := newTable(t, eagerCfg())
	mustGrant(t, tb, at(0), "c1", "v")
	mustObj(t, tb, at(0), "c1", "a")
	mustObj(t, tb, at(0), "c1", "b")
	// Write to a with c1 unresponsive.
	plan, _ := tb.BeginWrite(at(1), "a")
	if _, err := tb.FinishWrite(at(11), "a", []byte("new"), []ClientID{plan.Notify[0].Client}); err != nil {
		t.Fatalf("FinishWrite: %v", err)
	}
	// c1 returns: the renewal demands the reconnection protocol.
	g, _ := tb.RequestVolumeLease(at(20), "c1", "v", 0)
	if g.Status != VolumeNeedsRenewAll {
		t.Fatalf("status = %v", g.Status)
	}
	// c1 reports both cached objects with its versions (it missed a's write).
	res, err := tb.HandleRenewObjLeases(at(20), "c1", "v", 0, []HeldObject{
		{Object: "a", Version: 1},
		{Object: "b", Version: 1},
	})
	if err != nil {
		t.Fatalf("HandleRenewObjLeases: %v", err)
	}
	if len(res.Invalidate) != 1 || res.Invalidate[0] != "a" {
		t.Errorf("invalidate = %v, want [a]", res.Invalidate)
	}
	if len(res.Renew) != 1 || res.Renew[0].Object != "b" || res.Renew[0].Version != 1 {
		t.Errorf("renew = %+v, want [b v1]", res.Renew)
	}
	if res.Renew[0].Data != nil {
		t.Error("renew vector must not carry data")
	}
	// Ack completes the reconnection and grants the volume.
	g2, err := tb.ConfirmVolume(at(20), "c1", "v", 0, res.Invalidate)
	if err != nil || g2.Status != VolumeGranted {
		t.Fatalf("ConfirmVolume = %+v %v", g2, err)
	}
	// Subsequent renewals are normal.
	g3, _ := tb.RequestVolumeLease(at(21), "c1", "v", 0)
	if g3.Status != VolumeGranted {
		t.Errorf("status after reconnect = %v", g3.Status)
	}
}

func TestReconnectionUnknownObjectInvalidated(t *testing.T) {
	tb := newTable(t, eagerCfg())
	if g, _ := tb.RequestVolumeLease(at(0), "c1", "v", NoEpoch); g.Status != VolumeNeedsRenewAll {
		t.Fatalf("status = %v, want needs-renew-all", g.Status)
	}
	res, err := tb.HandleRenewObjLeases(at(0), "c1", "v", 0, []HeldObject{{Object: "ghost", Version: 3}})
	if err != nil {
		t.Fatalf("HandleRenewObjLeases: %v", err)
	}
	if len(res.Invalidate) != 1 || res.Invalidate[0] != "ghost" {
		t.Errorf("invalidate = %v, want [ghost]", res.Invalidate)
	}
}

func TestDelayedWriteQueuesForVolumeExpiredClient(t *testing.T) {
	tb := newTable(t, delayedCfg(0))   // d = forever
	mustGrant(t, tb, at(0), "c1", "v") // vol to 10
	mustObj(t, tb, at(0), "c1", "a")   // obj to 100
	plan, err := tb.BeginWrite(at(50), "a")
	if err != nil {
		t.Fatalf("BeginWrite: %v", err)
	}
	if len(plan.Notify) != 0 {
		t.Fatalf("delayed mode notified %+v, want none", plan.Notify)
	}
	if _, err := tb.FinishWrite(at(50), "a", []byte("new"), nil); err != nil {
		t.Fatalf("FinishWrite: %v", err)
	}
	// Renewal must deliver the pending invalidation first.
	g, _ := tb.RequestVolumeLease(at(60), "c1", "v", 0)
	if g.Status != VolumePendingInvalidations {
		t.Fatalf("status = %v, want pending-invalidations", g.Status)
	}
	if len(g.Invalidate) != 1 || g.Invalidate[0] != "a" {
		t.Errorf("invalidate = %v, want [a]", g.Invalidate)
	}
	g2, err := tb.ConfirmVolume(at(60), "c1", "v", 0, g.Invalidate)
	if err != nil || g2.Status != VolumeGranted {
		t.Fatalf("ConfirmVolume = %+v %v", g2, err)
	}
	// Pending cleared: next renewal is plain.
	g3, _ := tb.RequestVolumeLease(at(61), "c1", "v", 0)
	if g3.Status != VolumeGranted {
		t.Errorf("status = %v, want granted", g3.Status)
	}
}

func TestDelayedEagerNotifyWhileVolumeValid(t *testing.T) {
	tb := newTable(t, delayedCfg(0))
	mustGrant(t, tb, at(0), "c1", "v")
	mustObj(t, tb, at(0), "c1", "a")
	plan, _ := tb.BeginWrite(at(5), "a")
	if len(plan.Notify) != 1 {
		t.Errorf("notify = %+v, want [c1] while volume valid", plan.Notify)
	}
}

func TestDelayedDiscardAfterD(t *testing.T) {
	tb := newTable(t, delayedCfg(20*time.Second))
	mustGrant(t, tb, at(0), "c1", "v") // vol expires 10
	mustObj(t, tb, at(0), "c1", "a")
	// Write at 15: inactive, queued (since = 10, discard at 30).
	if _, err := tb.BeginWrite(at(15), "a"); err != nil {
		t.Fatalf("BeginWrite: %v", err)
	}
	if _, err := tb.FinishWrite(at(15), "a", []byte("n"), nil); err != nil {
		t.Fatalf("FinishWrite: %v", err)
	}
	// Renewal at 100 (past discard): the pending list is gone; client is
	// unreachable and must reconnect.
	g, _ := tb.RequestVolumeLease(at(100), "c1", "v", 0)
	if g.Status != VolumeNeedsRenewAll {
		t.Errorf("status = %v, want needs-renew-all after discard", g.Status)
	}
}

func TestDelayedRenewalBeforeDiscardKeepsPending(t *testing.T) {
	tb := newTable(t, delayedCfg(60*time.Second))
	mustGrant(t, tb, at(0), "c1", "v")
	mustObj(t, tb, at(0), "c1", "a")
	if _, err := tb.BeginWrite(at(15), "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.FinishWrite(at(15), "a", []byte("n"), nil); err != nil {
		t.Fatal(err)
	}
	g, _ := tb.RequestVolumeLease(at(30), "c1", "v", 0) // well before 10+60
	if g.Status != VolumePendingInvalidations {
		t.Errorf("status = %v, want pending-invalidations", g.Status)
	}
}

func TestDelayedSweepDiscardsAndMarksUnreachable(t *testing.T) {
	tb := newTable(t, delayedCfg(20*time.Second))
	mustGrant(t, tb, at(0), "c1", "v")
	mustObj(t, tb, at(0), "c1", "a")
	if _, err := tb.BeginWrite(at(15), "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.FinishWrite(at(15), "a", []byte("n"), nil); err != nil {
		t.Fatal(err)
	}
	tb.Sweep(at(50)) // past since(10)+d(20)
	s := tb.Stats(at(50))
	if s.InactiveClients != 0 || s.PendingInvalidation != 0 {
		t.Errorf("after sweep: %+v, want inactive/pending cleared", s)
	}
	if s.UnreachableClients != 1 {
		t.Errorf("unreachable = %d, want 1", s.UnreachableClients)
	}
}

func TestSweepRemovesExpiredLeases(t *testing.T) {
	tb := newTable(t, eagerCfg())
	mustGrant(t, tb, at(0), "c1", "v")
	mustObj(t, tb, at(0), "c1", "a")
	s := tb.Stats(at(1))
	if s.VolumeLeases != 1 || s.ObjectLeases != 1 {
		t.Fatalf("stats = %+v", s)
	}
	removed, _ := tb.Sweep(at(200))
	if removed != 2 {
		t.Errorf("Sweep removed %d records, want 2", removed)
	}
	s = tb.Stats(at(200))
	if s.VolumeLeases != 0 || s.ObjectLeases != 0 || s.StateBytes != 0 {
		t.Errorf("stats after sweep = %+v", s)
	}
}

func TestStatsCountsOnlyValidLeases(t *testing.T) {
	tb := newTable(t, eagerCfg())
	mustGrant(t, tb, at(0), "c1", "v")
	mustObj(t, tb, at(0), "c1", "a")
	s := tb.Stats(at(5))
	if s.VolumeLeases != 1 || s.ObjectLeases != 1 {
		t.Errorf("stats at 5s = %+v", s)
	}
	if s.StateBytes != 2*RecordBytes {
		t.Errorf("state bytes = %d, want %d", s.StateBytes, 2*RecordBytes)
	}
	// At 50s the volume lease is expired (even unswept) and not counted.
	s = tb.Stats(at(50))
	if s.VolumeLeases != 0 || s.ObjectLeases != 1 {
		t.Errorf("stats at 50s = %+v", s)
	}
}

func TestStatsAddAggregatesShards(t *testing.T) {
	a := Stats{Volumes: 1, Objects: 2, ObjectLeases: 3, VolumeLeases: 1,
		PendingInvalidation: 4, InactiveClients: 1, UnreachableClients: 2,
		StateBytes: 11 * RecordBytes}
	b := Stats{Volumes: 2, Objects: 1, ObjectLeases: 1, VolumeLeases: 2,
		PendingInvalidation: 0, InactiveClients: 3, UnreachableClients: 0,
		StateBytes: 6 * RecordBytes}
	a.Add(b)
	want := Stats{Volumes: 3, Objects: 3, ObjectLeases: 4, VolumeLeases: 3,
		PendingInvalidation: 4, InactiveClients: 4, UnreachableClients: 2,
		StateBytes: 17 * RecordBytes}
	if a != want {
		t.Errorf("Add = %+v, want %+v", a, want)
	}
	// Aggregating per-volume tables must equal one table holding both
	// volumes: the sharded server's Stats() relies on this.
	t1 := newTable(t, eagerCfg())
	mustGrant(t, t1, at(0), "c1", "v")
	mustObj(t, t1, at(0), "c1", "a")
	t2, err := NewTable(eagerCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := t2.CreateVolume("w"); err != nil {
		t.Fatal(err)
	}
	if err := t2.CreateObject("w", "b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := t2.RequestVolumeLease(at(0), "c2", "w", 0); err != nil {
		t.Fatal(err)
	}
	agg := t1.Stats(at(1))
	agg.Add(t2.Stats(at(1)))
	if agg.Volumes != 2 || agg.Objects != 3 || agg.VolumeLeases != 2 || agg.ObjectLeases != 1 {
		t.Errorf("aggregated stats = %+v", agg)
	}
	if want := int64(3 * RecordBytes); agg.StateBytes != want {
		t.Errorf("aggregated state bytes = %d, want %d", agg.StateBytes, want)
	}
}

func TestRecoverBumpsEpochAndFencesWrites(t *testing.T) {
	tb := newTable(t, eagerCfg())
	mustGrant(t, tb, at(0), "c1", "v")
	mustObj(t, tb, at(0), "c1", "a")
	tb.Recover(at(5))
	if e, _ := tb.VolumeEpoch("v"); e != 1 {
		t.Errorf("epoch = %d, want 1", e)
	}
	// Lease state is gone.
	s := tb.Stats(at(5))
	if s.VolumeLeases != 0 || s.ObjectLeases != 0 {
		t.Errorf("stats after recover = %+v", s)
	}
	// Writes fenced until 5 + VolumeLease(10) = 15.
	if _, err := tb.BeginWrite(at(10), "a"); !errors.Is(err, ErrWriteFenced) {
		t.Errorf("BeginWrite during fence = %v, want ErrWriteFenced", err)
	}
	if _, err := tb.BeginWrite(at(15), "a"); err != nil {
		t.Errorf("BeginWrite after fence: %v", err)
	}
	// Old-epoch client must reconnect.
	g, _ := tb.RequestVolumeLease(at(16), "c1", "v", 0)
	if g.Status != VolumeNeedsRenewAll {
		t.Errorf("status with stale epoch = %v", g.Status)
	}
	// After reconnect the client carries the new epoch.
	if _, err := tb.HandleRenewObjLeases(at(16), "c1", "v", 0, nil); err != nil {
		t.Fatal(err)
	}
	g2, _ := tb.ConfirmVolume(at(16), "c1", "v", 0, nil)
	if g2.Epoch != 1 || g2.Status != VolumeGranted {
		t.Errorf("reconnect grant = %+v", g2)
	}
	g3, _ := tb.RequestVolumeLease(at(17), "c1", "v", 1)
	if g3.Status != VolumeGranted {
		t.Errorf("status with new epoch = %v", g3.Status)
	}
}

// TestDataIsolation pins the payload ownership rule. Copy-in: the table
// never keeps a caller's buffer, at any ingress. Replace, never overwrite: a
// slice handed out by Read or GrantObjectLease is the table's own, and still
// holds its version's bytes after later versions are installed, including
// shorter ones that would have fitted in its backing array.
func TestDataIsolation(t *testing.T) {
	tb, _ := NewTable(eagerCfg())
	if err := tb.CreateVolume("v"); err != nil {
		t.Fatal(err)
	}
	stored := func(want string) []byte {
		t.Helper()
		_, data, err := tb.Read("o")
		if err != nil || string(data) != want {
			t.Fatalf("Read = %q, %v; want %q", data, err, want)
		}
		return data
	}

	buf := []byte("hello")
	if err := tb.CreateObject("v", "o", buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X'
	v1 := stored("hello")
	g, err := tb.GrantObjectLease(at(0), "c1", "o", NoVersion)
	if err != nil || &g.Data[0] != &v1[0] {
		t.Fatalf("grant = %q, %v; want the slice Read returns", g.Data, err)
	}

	buf = []byte("bye")
	if _, err := tb.FinishWrite(at(1), "o", buf, nil); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X'
	v2 := stored("bye")

	buf = []byte("ciao")
	if err := tb.InstallVersion(at(2), "o", buf, 7, nil); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X'
	v7 := stored("ciao")

	if err := tb.MarkStale(at(3), "o", nil); err != nil {
		t.Fatal(err)
	}
	buf = []byte("ciao")
	if err := tb.RestoreData("o", buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X'
	stored("ciao")

	for _, held := range []struct {
		got  []byte
		want string
	}{{v1, "hello"}, {g.Data, "hello"}, {v2, "bye"}, {v7, "ciao"}} {
		if string(held.got) != held.want {
			t.Errorf("slice handed out for %q now reads %q: a later version overwrote it", held.want, held.got)
		}
	}
}

func TestObjectsAndVolumesListing(t *testing.T) {
	tb := newTable(t, eagerCfg())
	objs, err := tb.Objects("v")
	if err != nil || len(objs) != 2 || objs[0] != "a" || objs[1] != "b" {
		t.Errorf("Objects = %v %v", objs, err)
	}
	vols := tb.Volumes()
	if len(vols) != 1 || vols[0] != "v" {
		t.Errorf("Volumes = %v", vols)
	}
	vid, err := tb.VolumeOfObject("a")
	if err != nil || vid != "v" {
		t.Errorf("VolumeOfObject = %v %v", vid, err)
	}
	if _, err := tb.VolumeOfObject("zz"); !errors.Is(err, ErrNoSuchObject) {
		t.Errorf("missing object: %v", err)
	}
}

func TestWriteSkipsUnreachableClients(t *testing.T) {
	tb := newTable(t, eagerCfg())
	mustGrant(t, tb, at(0), "c1", "v")
	mustObj(t, tb, at(0), "c1", "a")
	mustObj(t, tb, at(0), "c1", "b")
	// c1 fails to ack a write to a -> unreachable.
	plan, _ := tb.BeginWrite(at(1), "a")
	if _, err := tb.FinishWrite(at(11), "a", []byte("n"), []ClientID{plan.Notify[0].Client}); err != nil {
		t.Fatal(err)
	}
	// A write to b must not try to notify the unreachable c1 (Figure 3's
	// client ∉ o.volume.unreachable condition).
	plan2, _ := tb.BeginWrite(at(12), "b")
	if len(plan2.Notify) != 0 {
		t.Errorf("notify = %+v, want none (client unreachable)", plan2.Notify)
	}
}

// mustGrant grants a volume lease, failing the test on any non-granted
// outcome.
func mustGrant(t *testing.T, tb *Table, now time.Time, c ClientID, v VolumeID) {
	t.Helper()
	g, err := tb.RequestVolumeLease(now, c, v, mustEpoch(t, tb, v))
	if err != nil || g.Status != VolumeGranted {
		t.Fatalf("volume grant for %s = %+v, %v", c, g, err)
	}
}

func mustEpoch(t *testing.T, tb *Table, v VolumeID) Epoch {
	t.Helper()
	e, err := tb.VolumeEpoch(v)
	if err != nil {
		t.Fatalf("VolumeEpoch: %v", err)
	}
	return e
}

// mustObj grants an object lease.
func mustObj(t *testing.T, tb *Table, now time.Time, c ClientID, o ObjectID) {
	t.Helper()
	if _, err := tb.GrantObjectLease(now, c, o, NoVersion); err != nil {
		t.Fatalf("object grant for %s/%s: %v", c, o, err)
	}
}

func TestVolumeStats(t *testing.T) {
	tb := newTable(t, eagerCfg())
	if err := tb.CreateVolume("v2"); err != nil {
		t.Fatal(err)
	}
	if err := tb.CreateObject("v2", "z", nil); err != nil {
		t.Fatal(err)
	}
	mustGrant(t, tb, at(0), "c1", "v")
	mustObj(t, tb, at(0), "c1", "a")
	mustObj(t, tb, at(0), "c1", "z") // object in v2; no volume lease there

	s1, err := tb.VolumeStats(at(1), "v")
	if err != nil {
		t.Fatal(err)
	}
	if s1.Objects != 2 || s1.VolumeLeases != 1 || s1.ObjectLeases != 1 {
		t.Errorf("v stats = %+v", s1)
	}
	s2, err := tb.VolumeStats(at(1), "v2")
	if err != nil {
		t.Fatal(err)
	}
	if s2.Objects != 1 || s2.VolumeLeases != 0 || s2.ObjectLeases != 1 {
		t.Errorf("v2 stats = %+v", s2)
	}
	// Per-volume stats must sum to the table-wide stats.
	tot := tb.Stats(at(1))
	if got := s1.StateBytes + s2.StateBytes; got != tot.StateBytes {
		t.Errorf("volume stats sum %d != total %d", got, tot.StateBytes)
	}
	if _, err := tb.VolumeStats(at(1), "ghost"); err == nil {
		t.Error("VolumeStats accepted unknown volume")
	}
}

func TestInstallVersionAndCreateObjectAt(t *testing.T) {
	tb := newTable(t, eagerCfg())
	if err := tb.CreateObjectAt("v", "m", []byte("d7"), 7); err != nil {
		t.Fatal(err)
	}
	if v, data, _ := tb.Read("m"); v != 7 || string(data) != "d7" {
		t.Errorf("Read = v%d %q", v, data)
	}
	if err := tb.InstallVersion(at(1), "m", []byte("d9"), 9, nil); err != nil {
		t.Fatal(err)
	}
	if v, data, _ := tb.Read("m"); v != 9 || string(data) != "d9" {
		t.Errorf("Read after install = v%d %q", v, data)
	}
	// Non-monotone installs are rejected.
	if err := tb.InstallVersion(at(2), "m", []byte("x"), 9, nil); err == nil {
		t.Error("equal version accepted")
	}
	if err := tb.InstallVersion(at(2), "m", []byte("x"), 3, nil); err == nil {
		t.Error("lower version accepted")
	}
	// Unacked clients go unreachable, same as FinishWrite.
	mustGrant(t, tb, at(3), "c1", "v")
	mustObj(t, tb, at(3), "c1", "m")
	if err := tb.InstallVersion(at(4), "m", []byte("d10"), 10, []ClientID{"c1"}); err != nil {
		t.Fatal(err)
	}
	g, _ := tb.RequestVolumeLease(at(5), "c1", "v", 0)
	if g.Status != VolumeNeedsRenewAll {
		t.Errorf("status = %v, want needs-renew-all", g.Status)
	}
	if err := tb.CreateObjectAt("v", "bad", nil, 0); err == nil {
		t.Error("version 0 accepted")
	}
}

func TestConfigAccessorAndFence(t *testing.T) {
	tb := newTable(t, eagerCfg())
	if got := tb.Config(); got.VolumeLease != 10*time.Second {
		t.Errorf("Config = %+v", got)
	}
	tb.FenceWrites(at(100))
	if !tb.WriteFence().Equal(at(100)) {
		t.Errorf("WriteFence = %v", tb.WriteFence())
	}
	if _, err := tb.BeginWrite(at(50), "a"); !errors.Is(err, ErrWriteFenced) {
		t.Errorf("BeginWrite during fence = %v", err)
	}
	// Fences only move forward.
	tb.FenceWrites(at(10))
	if !tb.WriteFence().Equal(at(100)) {
		t.Errorf("fence moved backwards to %v", tb.WriteFence())
	}
	if _, err := tb.BeginWrite(at(101), "a"); err != nil {
		t.Errorf("BeginWrite after fence: %v", err)
	}
}

func TestNewTableRejectsBadConfig(t *testing.T) {
	if _, err := NewTable(Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
}

func TestVolumeGrantStatusString(t *testing.T) {
	cases := map[VolumeGrantStatus]string{
		VolumeGranted:              "granted",
		VolumePendingInvalidations: "pending-invalidations",
		VolumeNeedsRenewAll:        "needs-renew-all",
		VolumeGrantStatus(9):       "status(9)",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", int(s), got, want)
		}
	}
}

func TestReadAndEpochErrors(t *testing.T) {
	tb := newTable(t, eagerCfg())
	if _, _, err := tb.Read("ghost"); !errors.Is(err, ErrNoSuchObject) {
		t.Errorf("Read(ghost) = %v", err)
	}
	if _, err := tb.VolumeEpoch("ghost"); !errors.Is(err, ErrNoSuchVolume) {
		t.Errorf("VolumeEpoch(ghost) = %v", err)
	}
	if err := tb.CreateVolumeAt("neg", -1); err == nil {
		t.Error("negative epoch accepted")
	}
}

func TestMarkStaleAndRestoreData(t *testing.T) {
	tb := newTable(t, eagerCfg())
	mustGrant(t, tb, at(0), "c1", "v")
	mustObj(t, tb, at(0), "c1", "a")
	if err := tb.MarkStale(at(1), "a", []ClientID{"c1"}); err != nil {
		t.Fatal(err)
	}
	// Version unchanged; data gone; client unreachable.
	v, data, err := tb.Read("a")
	if err != nil || v != 1 || len(data) != 0 {
		t.Errorf("after MarkStale: v%d %q %v", v, data, err)
	}
	g, _ := tb.RequestVolumeLease(at(2), "c1", "v", 0)
	if g.Status != VolumeNeedsRenewAll {
		t.Errorf("status = %v, want needs-renew-all", g.Status)
	}
	if err := tb.RestoreData("a", []byte("back")); err != nil {
		t.Fatal(err)
	}
	if _, data, _ := tb.Read("a"); string(data) != "back" {
		t.Errorf("after RestoreData: %q", data)
	}
	if err := tb.MarkStale(at(3), "ghost", nil); !errors.Is(err, ErrNoSuchObject) {
		t.Errorf("MarkStale(ghost) = %v", err)
	}
	if err := tb.RestoreData("ghost", nil); !errors.Is(err, ErrNoSuchObject) {
		t.Errorf("RestoreData(ghost) = %v", err)
	}
}

// TestDelayedDiscardsIdleHolder: the discard clock runs from a holder's
// volume-lease expiry even when no invalidation was ever queued for it. d
// after that expiry a holder that never renewed has lost its object leases
// and joined the Unreachable set, whether a Sweep or its own renewal applied
// the policy, and the renewal demands the reconnection protocol.
func TestDelayedDiscardsIdleHolder(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sweep bool
	}{{"swept", true}, {"lazy", false}} {
		t.Run(tc.name, func(t *testing.T) {
			tb := newTable(t, delayedCfg(20*time.Second))
			mustGrant(t, tb, at(0), "c1", "v") // volume lease to 10: expire + d = 30
			mustObj(t, tb, at(0), "c1", "a")   // object lease to 100; a is never written
			if tc.sweep {
				tb.Sweep(at(30))
			}
			g, err := tb.RequestVolumeLease(at(30), "c1", "v", 0)
			if err != nil {
				t.Fatal(err)
			}
			if g.Status != VolumeNeedsRenewAll {
				t.Errorf("renewal at expire + d = %v, want needs-renew-all", g.Status)
			}
			if s := tb.Stats(at(30)); s.ObjectLeases != 0 || s.UnreachableClients != 1 {
				t.Errorf("stats at expire + d = %+v, want 0 object leases and 1 unreachable client", s)
			}
		})
	}
}
